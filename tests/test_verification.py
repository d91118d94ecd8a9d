"""Checkers: positive cases, negative controls, determinism of evidence."""

import math

import numpy as np
import pytest

from fermidesc import algebra, descriptors as dsc, fock, states, transformations as tf
from fermidesc import verification as vf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet

from conftest import count_calls


def bell_like_state() -> states.PhenomenalState:
    psi = (
        fock.fock_basis_state(2, [0, 1]).amplitudes
        + fock.fock_basis_state(2, [1, 0]).amplitudes
    ) / np.sqrt(2)
    return states.PhenomenalState(ModeSet.full(2), np.outer(psi, psi.conj()))


def test_no_signalling_phase_example():
    rho = bell_like_state()
    ident = tf.PSUnitary(2, np.eye(4, dtype=complex))
    v_b = tf.named_gate("phase", 2, modes=(1,), theta=0.77)
    result = vf.check_no_signalling(rho, ident, v_b, ModeSet((0,), 2), ModeSet((1,), 2))
    assert result.passed
    assert result.residual < 1e-12


def test_no_signalling_trivial_identity():
    rho = bell_like_state()
    ident = tf.PSUnitary(2, np.eye(4, dtype=complex))
    result = vf.check_no_signalling(rho, ident, ident, ModeSet((0,), 2), ModeSet((1,), 2))
    assert result.passed


def test_no_signalling_ssr_violating_unitary_rejected_at_precondition():
    # the parity-mixing candidate dies in validation before any check runs
    mixer = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2)).astype(complex)
    with pytest.raises(ValidationError) as err:
        tf.validate_ps_unitary(mixer)
    assert err.value.code == "ssr_violation"


def test_no_signalling_nonlocal_input_rejected():
    rho = bell_like_state()
    ident = tf.PSUnitary(2, np.eye(4, dtype=complex))
    entangler = tf.named_gate("tunneling", 2, modes=(0, 1), theta=0.3)
    with pytest.raises(ValidationError) as err:
        vf.check_no_signalling(rho, ident, entangler, ModeSet((0,), 2), ModeSet((1,), 2))
    assert err.value.code == "not_local"


def test_no_signalling_checks_each_unitary_once(monkeypatch):
    from fermidesc import algebra

    rho = vf.random_phenomenal(3, 4)
    part_a, part_b = ModeSet((0, 2), 3), ModeSet((1,), 3)
    u_a = tf.local_random_ps_unitary(part_a, 8)
    v_b = tf.local_random_ps_unitary(part_b, 9)
    splits = count_calls(monkeypatch, algebra, "_split_local")
    assert vf.check_no_signalling(rho, u_a, v_b, part_a, part_b).passed
    assert [sub for _, sub in splits] == [part_a, part_b]
    hop = tf.named_gate("tunneling", 3, modes=(0, 1), theta=0.3)
    with pytest.raises(ValidationError) as err:
        vf.check_no_signalling(rho, hop, v_b, part_a, part_b)
    assert err.value.code == "not_local"


@pytest.mark.parametrize("seed", range(10))
def test_no_signalling_randomized(seed):
    n_modes = 3
    rho = vf.random_phenomenal(n_modes, seed)
    part_a, part_b = ModeSet((0, 2), n_modes), ModeSet((1,), n_modes)
    u_a = tf.local_random_ps_unitary(part_a, seed * 2)
    v_b = tf.local_random_ps_unitary(part_b, seed * 2 + 1)
    result = vf.check_no_signalling(rho, u_a, v_b, part_a, part_b)
    assert result.passed


def test_locality_invariance_examples():
    u = tf.named_gate("tunneling", 3, modes=(0, 1), theta=0.9)
    result = vf.check_locality_invariance(u, ModeSet((0, 1), 3))
    assert result.passed
    ident = tf.PSUnitary(3, np.eye(8, dtype=complex))
    result = vf.check_locality_invariance(ident, ModeSet((0, 1), 3))
    assert result.residual == 0.0
    with pytest.raises(ValidationError):
        vf.check_locality_invariance(u, ModeSet.full(3))


@pytest.mark.parametrize("seed", range(20))
def test_locality_invariance_randomized(seed):
    u = tf.local_random_ps_unitary(ModeSet((0, 1), 3), seed)
    result = vf.check_locality_invariance(u, ModeSet((0, 1), 3))
    assert result.passed


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_locality_residuals_match_the_dense_ladder_bitwise(n_modes):
    for k, inside in enumerate(vf.proper_subsets(n_modes)):
        u = tf.local_random_ps_unitary(inside, 40 * n_modes + k)
        result = vf.check_locality_invariance(u, inside)
        assert result.passed
        assert [d["outside_mode"] for d in result.details] == list(inside.complement().indices)
        for detail in result.details:
            j = detail["outside_mode"]
            assert detail["inside"] == list(inside.indices)
            dense = fock.frobenius(u.heisenberg(j) - fock.annihilator(n_modes, j).matrix)
            assert np.float64(detail["residual"]).tobytes() == np.float64(dense).tobytes()
        assert result.residual == max(d["residual"] for d in result.details)


def test_sweep_proves_each_local_unitary_local_once(monkeypatch):
    checks = count_calls(monkeypatch, vf, "check_locality_invariance")
    proofs = count_calls(monkeypatch, vf, "is_local_unitary")
    results = {r.name: r for r in vf.run_sweep(4, 0, 8)}
    assert len(checks) == 14 * 2  # proper subsets of 4 modes, 8 // 4 seeds each
    for u, inside in checks:
        assert [args[1] for args in proofs if args[0] is u] == [inside]
    details = results["locality_invariance"].details
    assert len(details) == sum(4 - len(inside) for _, inside in checks)


def test_locality_invariance_refuses_an_inside_with_no_outside_mode():
    u = tf.random_ps_unitary(3, 1)
    for inside in (ModeSet.full(3), ModeSet((), 3)):
        with pytest.raises(ValidationError) as err:
            vf.check_locality_invariance(u, inside)
        assert err.value.code == "empty_subsystem"


def test_locality_invariance_takes_no_mode_index():
    u = tf.local_random_ps_unitary(ModeSet((0, 1), 3), 0)
    with pytest.raises(TypeError):
        vf.check_locality_invariance(u, ModeSet((0, 1), 3), 2)


def test_locality_invariance_at_the_mode_cap_builds_no_dense_ladder(monkeypatch):
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    n_modes = fock.DEFAULT_MODE_CAP
    inside = ModeSet.of(set(range(n_modes)) - {4}, n_modes)
    u = tf.local_random_ps_unitary(inside, 3)
    fock._annihilator_matrix.cache_clear()
    result = vf.check_locality_invariance(u, inside)
    assert result.passed and [d["outside_mode"] for d in result.details] == [4]
    assert fock._annihilator_matrix.cache_info().currsize == 0


def test_diagram_identity_any_subset():
    d = dsc.canonical_descriptors(ModeSet.full(3), fock.vacuum_state(3))
    for subset in vf.proper_subsets(3):
        result = vf.check_diagram(d, [subset])
        assert result.passed
        assert result.residual < 1e-12


def test_diagram_tunneling_half_mixed():
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=np.pi / 4)
    d = dsc.evolve_descriptors(u, ModeSet.full(2), fock.fock_basis_state(2, [1, 0]))
    result = vf.check_diagram(d, [ModeSet((0,), 2)])
    assert result.passed


@pytest.mark.parametrize("seed", range(5))
def test_diagram_randomized_all_subsets(seed):
    n_modes = 4
    u = tf.random_ps_unitary(n_modes, seed)
    psi0 = vf.random_sector_state(n_modes, seed + 5)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    for subset in vf.proper_subsets(n_modes):
        result = vf.check_diagram(d, [subset])
        assert result.passed, (subset.indices, result.residual)
        assert result.details[0]["partial_trace_cross_residual"] < 1e-10


def test_diagram_reads_the_global_state_once(monkeypatch):
    calls = []
    phenomenal_of = dsc.phenomenal_of

    def counting(d):
        calls.append(d.subsystem.indices)
        return phenomenal_of(d)

    monkeypatch.setattr(dsc, "phenomenal_of", counting)
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(4, 1), ModeSet.full(4), vf.random_sector_state(4, 2)
    )
    subsets = list(vf.proper_subsets(4))
    result = vf.check_diagram(d, subsets)
    assert result.passed
    assert len(calls) == len(subsets) + 1
    assert [detail["j_subset"] for detail in result.details] == [
        list(s.indices) for s in subsets
    ]
    assert result.residual == max(detail["residual"] for detail in result.details)


def test_diagram_refuses_an_empty_subset_list():
    d = dsc.canonical_descriptors(ModeSet.full(2), fock.vacuum_state(2))
    with pytest.raises(ValidationError) as err:
        vf.check_diagram(d, [])
    assert err.value.code == "empty_subsystem"


def test_ontic_property_list_identity_instances():
    result = vf.check_ontic_property_list(range(3), 2)
    assert result.passed


@pytest.mark.parametrize("n_modes", [2, 3])
def test_ontic_property_list_randomized(n_modes):
    result = vf.check_ontic_property_list(range(10), n_modes)
    assert result.passed
    assert result.residual < 1e-9


def test_ontic_property_list_calls_compatible_once_per_seed(monkeypatch):
    calls = []
    compatible = dsc.compatible

    def counting(da, db, *args):
        calls.append((da.subsystem.indices, db.subsystem.indices))
        return compatible(da, db, *args)

    monkeypatch.setattr(dsc, "compatible", counting)
    assert vf.check_ontic_property_list(range(4), 3).passed
    assert len(calls) == 4


def test_ontic_property_negative_control_detects_nonlocal_action():
    result = vf.check_ontic_property_list(range(5), 3, negative_control=True)
    assert result.passed  # i.e. the doctored property failed every time
    assert result.name == "ontic_property_list_negative_control"


def test_negative_control_computes_only_its_own_property(monkeypatch):
    # properties 1-3 build a bare set's witness and a join; property 4 needs neither
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    joins = count_calls(monkeypatch, dsc, "compatible")
    assert vf.check_ontic_property_list(range(5), 3, negative_control=True).passed
    assert intertwiners == joins == []


def test_ontic_property_list_at_six_modes():
    # the joins here need witnesses on 64-dimensional Fock spaces
    result = vf.check_ontic_property_list(range(3), 6)
    assert result.passed
    control = vf.check_ontic_property_list(range(3), 6, negative_control=True)
    assert control.passed  # every doctored instance was detected


def test_checkers_can_fail_under_tolerance_squeeze():
    # no vacuous passes: a zero tolerance turns machine noise into a verdict
    rho = vf.random_phenomenal(3, 3)
    u_a = tf.local_random_ps_unitary(ModeSet((0,), 3), 1)
    v_b = tf.local_random_ps_unitary(ModeSet((1, 2), 3), 2)
    squeezed = vf.check_no_signalling(rho, u_a, v_b, ModeSet((0,), 3), ModeSet((1, 2), 3), tol=0.0)
    assert not squeezed.passed and squeezed.residual > 0.0

    u = tf.local_random_ps_unitary(ModeSet((0, 1), 3), 4)
    squeezed = vf.check_locality_invariance(u, ModeSet((0, 1), 3), tol=0.0)
    assert not squeezed.passed and squeezed.residual > 0.0

    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(3, 5), ModeSet.full(3), vf.random_sector_state(3, 6)
    )
    squeezed = vf.check_diagram(d, [ModeSet((0, 2), 3)], tol=0.0)
    assert not squeezed.passed and squeezed.residual > 0.0

    squeezed = vf.check_reconstruction([(3, 5)], tol=0.0)
    assert not squeezed.passed and squeezed.residual > 0.0


def test_canonical_algebra_check():
    for n_modes in (1, 2, 3):
        result = vf.check_canonical_algebra(n_modes, range(5))
        assert result.passed
        assert result.details[0]["constructed_residual"] == 0.0


def test_ssr_gatekeeping_check():
    result = vf.check_ssr_gatekeeping(3, range(10))
    assert result.passed, result.details


@pytest.mark.parametrize("refusal", [None, "wrong_code"])
def test_ssr_gatekeeping_names_each_forbidden_input_it_lets_through(monkeypatch, refusal):
    def gate(*args, **kwargs):
        if refusal:
            raise ValidationError(refusal, "planted")

    for name in ("PhenomenalState", "exp_hamiltonian", "validate_ps_unitary"):
        monkeypatch.setattr(vf, name, gate)
    monkeypatch.setattr(dsc, "DescriptorSet", gate)
    failures = vf.check_ssr_gatekeeping(2, []).details[0]["failures"]
    if refusal is None:
        assert failures == [
            "parity-mixing state accepted",
            "parity-odd generator accepted",
            "parity-mixing unitary accepted",
            "descriptor set without a parity-preserving witness accepted",
        ]
    else:
        assert failures == [
            f"{noun} rejected with wrong code wrong_code"
            for noun in ("state", "generator", "unitary", "descriptor set")
        ]


def test_descriptor_equivalence_check():
    result = vf.check_descriptor_equivalence(3, range(10))
    assert result.passed


def test_reconstruction_check():
    result = vf.check_reconstruction([(2, s) for s in range(5)] + [(4, 0)])
    assert result.passed


def test_epimorphism_check():
    result = vf.check_epimorphism([(3, s) for s in range(5)])
    assert result.passed


def test_qubit_ladder_check():
    result = vf.check_qubit_ladders(3)
    assert result.passed
    assert result.residual == 0.0


def test_checker_determinism():
    a = vf.check_ontic_property_list(range(4), 3)
    b = vf.check_ontic_property_list(range(4), 3)
    assert a.details == b.details
    assert a.residual == b.residual


def test_bipartitions_count():
    assert len(list(vf.bipartitions(4))) == 7
    assert len(list(vf.proper_subsets(4))) == 14


def test_run_sweep_all_green():
    results = vf.run_sweep(2, 0, 6)
    assert all(r.passed for r in results), [(r.name, r.residual) for r in results]
    for r in results:
        # the evidence invariant: the verdict is the residual vs the tolerance
        assert r.passed == (r.residual <= r.tolerance)
    names = {r.name for r in results}
    assert {
        "canonical_algebra",
        "ssr_gatekeeping",
        "locality_invariance",
        "no_signalling",
        "descriptor_equivalence",
        "reconstruction",
        "epimorphism",
        "diagram",
        "ontic_property_list",
        "ontic_property_list_negative_control",
        "qubit_ladders",
    } <= names


# Planted-bug controls: each case plants one physics bug in a kernel, bound
# everywhere the library reads it, and the sweep must notice by a failed
# family; an error raised inside a family fails it.  A tolerance squeeze shows
# that a check can fail on rounding; these show that it fails on wrong physics.

def _heisenberg_in_the_wrong_order(self, mode):
    partner, sign = fock._ladder_columns(self.n_modes, mode)
    return (self.matrix[:, partner] * sign) @ self.matrix.conj().T  # U f U^dag


def _ladders_without_the_string(n_modes, mode):
    j = np.arange(2 ** n_modes)
    bit = 1 << (n_modes - 1 - mode)
    return j ^ bit, np.where(j & bit, 1.0, 0.0)


def _phenomenal_without_the_vacuum(d):
    ys = d.heisenberg_state.amplitudes[None, :]
    for da in (x.matrix for x in d.descriptors):
        ys = np.stack([ys, ys @ da.T], axis=1).reshape(-1, ys.shape[1])
    return states.PhenomenalState(d.subsystem, (ys.conj() @ ys.T).T)


def _naive_ontic_apply(w, d):
    conjugated = (w.matrix.conj().T @ x.matrix @ w.matrix for x in d.descriptors)
    ops = tuple(fock.FockOperator(d.n_modes, m) for m in conjugated)
    return dsc.DescriptorSet(d.subsystem, ops, d.heisenberg_state)


def _trusted_product_in_the_wrong_order(self, other):
    product = other.matrix @ self.matrix
    return tf.PSUnitary._trusted(self.n_modes, product, tf._block_defect(product))


def _trusted_product_without_its_defect(self, other):
    return tf.PSUnitary._trusted(self.n_modes, self.matrix @ other.matrix, 0.0)


def _sector_image_of_the_even_block_twice(n_modes, mode, even, odd, image=tf._sector_image):
    return image(n_modes, mode, even, even)


def _joint_vacuum_seeded_in_the_other_sector(desc, n_modes, empty):
    # each sector's Gaussian block is drawn on the other sector's rows
    factors = [desc[a] for a in sorted(desc)]
    rng = np.random.default_rng(n_modes)
    column = np.cumsum(empty) - 1
    x_d = np.zeros((len(empty), np.count_nonzero(empty)), dtype=complex)
    sectors = fock.parity_sectors(n_modes)
    for idx, other, name in zip(sectors, sectors[::-1], ("even", "odd")):
        slots = column[idx[empty[idx]]]
        shape = (len(other), len(slots))
        x_d[np.ix_(other, slots)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(2):
            q, r = np.linalg.qr(dsc._vacuum_factors(factors, x_d[:, slots])[idx])
            x_d[np.ix_(idx, slots)] = q
        kept = np.count_nonzero(np.abs(np.diagonal(r)) > 0.5)
        if kept != len(slots):
            raise ValidationError(
                "degenerate_reconstruction",
                f"the descriptors' joint vacuum has {kept} {name} states, "
                f"the canonical one {len(slots)}",
            )
    return x_d


def _fold_local_without_its_sign(target, small, subsystem):
    src, _ = algebra._reorder_to_front(subsystem)
    dk = 2 ** len(subsystem)
    target[src] = (np.asarray(small, dtype=complex) @ target[src].reshape(dk, -1)).reshape(
        target.shape
    )


def _gate_keeping_sets_without_a_witness(self):
    # the exact residual decides whenever no witness is built, and a set
    # that obeys the canonical relations is kept with none
    try:
        witness = self._witness or dsc._intertwiner(self.matrices(), self.n_modes)
    except (ValidationError, np.linalg.LinAlgError):
        witness = None
    if witness is not None:
        object.__setattr__(self, "_witness", witness)
        delta, eps = witness[0].defect, witness[1]
        if 3 * delta + 2 * delta**2 + 4 * (1 + delta) * eps + 2 * eps**2 <= dsc.CAR_TOL:
            return
    residual = dsc.descriptor_algebra_residual(list(self.matrices().values()), 2 ** self.n_modes)
    if residual > dsc.CAR_TOL:
        raise ValidationError("descriptor_algebra", f"violates the canonical relations ({residual})")


def _plant(monkeypatch, bug):
    if bug == "heisenberg_u_f_udag":
        monkeypatch.setattr(tf.PSUnitary, "heisenberg", _heisenberg_in_the_wrong_order)
    elif bug == "ladders_without_jordan_wigner":
        for module in (fock, dsc, tf, vf):
            monkeypatch.setattr(module, "_ladder_columns", _ladders_without_the_string)
    elif bug == "phenomenal_without_vacuum":
        monkeypatch.setattr(dsc, "phenomenal_of", _phenomenal_without_the_vacuum)
    elif bug == "naive_ontic_apply":
        monkeypatch.setattr(dsc, "ontic_apply", _naive_ontic_apply)
    elif bug == "unsigned_mode_reorder":
        signed = algebra._mode_reorder
        monkeypatch.setattr(
            algebra, "_mode_reorder", lambda front, n: (signed(front, n)[0], np.ones(2 ** n))
        )
    elif bug == "trusted_product_in_the_wrong_order":
        monkeypatch.setattr(tf.PSUnitary, "__matmul__", _trusted_product_in_the_wrong_order)
    elif bug == "trusted_product_drops_its_defect":
        monkeypatch.setattr(tf.PSUnitary, "__matmul__", _trusted_product_without_its_defect)
    elif bug == "foreign_evolved_witness":
        evolve = dsc.evolve_descriptors

        def with_a_foreign_witness(u, subsystem, psi0):
            d = evolve(u, subsystem, psi0)
            object.__setattr__(d, "_witness", (tf.random_ps_unitary(u.n_modes, 999), 0.0))
            return d

        monkeypatch.setattr(dsc, "evolve_descriptors", with_a_foreign_witness)
    elif bug == "sector_image_of_the_even_block_twice":
        monkeypatch.setattr(tf, "_sector_image", _sector_image_of_the_even_block_twice)
    elif bug == "seeded_block_in_the_other_sector":
        monkeypatch.setattr(dsc, "_joint_vacuum", _joint_vacuum_seeded_in_the_other_sector)
    elif bug == "unsigned_fold_scatter":
        monkeypatch.setattr(algebra, "fold_local", _fold_local_without_its_sign)
    elif bug == "gate_keeps_a_set_without_a_witness":
        monkeypatch.setattr(
            dsc.DescriptorSet, "_require_canonical_relations", _gate_keeping_sets_without_a_witness
        )


@pytest.fixture
def fresh_kernel_caches():
    caches = (
        fock._ladder_columns,
        fock._annihilator_matrix,
        fock._sector_ladder,
        fock._sector_pairs,
        fock._parity_diagonal,
        fock.parity_sectors,
        algebra._mode_reorder,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:  # a planted bug may have filled them with wrong entries
        cache.cache_clear()


@pytest.mark.parametrize(
    "bug",
    [
        "heisenberg_u_f_udag",
        "ladders_without_jordan_wigner",
        "phenomenal_without_vacuum",
        "naive_ontic_apply",
        "unsigned_mode_reorder",
        "foreign_evolved_witness",
        "trusted_product_in_the_wrong_order",
        "trusted_product_drops_its_defect",
        "gate_keeps_a_set_without_a_witness",
        "sector_image_of_the_even_block_twice",
        "seeded_block_in_the_other_sector",
        "unsigned_fold_scatter",
    ],
)
def test_sweep_catches_a_planted_bug(monkeypatch, fresh_kernel_caches, bug):
    _plant(monkeypatch, bug)
    results = vf.run_sweep(3, 0, 6)  # a fault raised inside a family fails that family
    assert not all(r.passed for r in results), [r.name for r in results]


def test_sweep_refuses_modes_beyond_the_cap_before_any_family(monkeypatch):
    families = count_calls(monkeypatch, vf, "check_canonical_algebra")
    with pytest.raises(ValidationError) as err:
        vf.run_sweep(fock.mode_cap() + 1, 0, 1)
    assert err.value.code == "cap_exceeded"
    assert families == []


def test_a_family_that_raises_fails_with_the_error_in_its_details(monkeypatch):
    def degenerate(d):
        raise ValidationError("degenerate_reconstruction", "planted")

    monkeypatch.setattr(dsc, "reconstruct_with_residual", degenerate)
    results = {r.name: r for r in vf.run_sweep(2, 0, 2)}
    failed = results.pop("reconstruction")
    assert (failed.passed, failed.residual, failed.tolerance) == (False, math.inf, 1e-8)
    assert failed.details == ({"error": {"code": "degenerate_reconstruction", "message": "planted"}},)
    assert all(r.passed for r in results.values())


def test_sweep_without_a_planted_bug_is_green(fresh_kernel_caches):
    assert all(r.passed for r in vf.run_sweep(3, 0, 6))
