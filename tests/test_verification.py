"""Checkers: positive cases, negative controls, determinism of evidence."""

import numpy as np
import pytest

from fermidesc import descriptors as dsc, fock, states, transformations as tf
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
