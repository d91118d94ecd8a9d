"""Descriptor evolution, equivalence, ontic action, join, reconstruction."""

import time

import numpy as np
import pytest

from fermidesc import algebra, descriptors as dsc, fock, states, transformations as tf
from fermidesc import verification as vf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.verification import random_sector_state

from conftest import count_calls


def max_descriptor_distance(a: dsc.DescriptorSet, b: dsc.DescriptorSet) -> float:
    assert a.subsystem.indices == b.subsystem.indices
    return max(
        fock.frobenius(x.matrix - y.matrix) for x, y in zip(a.descriptors, b.descriptors)
    )


def test_identity_gives_canonical_descriptors():
    psi0 = fock.vacuum_state(2)
    ident = tf.PSUnitary(2, np.eye(4, dtype=complex))
    d = dsc.evolve_descriptors(ident, ModeSet.full(2), psi0)
    for a, desc in zip((0, 1), d.descriptors):
        assert np.array_equal(desc.matrix, fock.annihilator(2, a).matrix)


def test_phase_gate_descriptor_closed_form():
    theta = 0.9
    u = tf.named_gate("phase", 2, modes=(0,), theta=theta)
    d = dsc.evolve_descriptors(u, ModeSet((0,), 2), fock.vacuum_state(2))
    expected = np.exp(1j * theta) * fock.annihilator(2, 0).matrix
    assert fock.frobenius(d.descriptors[0].matrix - expected) < 1e-12


def test_tunneling_descriptor_closed_form():
    theta = 0.4
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=theta)
    d = dsc.evolve_descriptors(u, ModeSet((0,), 2), fock.vacuum_state(2))
    expected = (
        np.cos(theta) * fock.annihilator(2, 0).matrix
        + np.sin(theta) * fock.annihilator(2, 1).matrix
    )
    assert fock.frobenius(d.descriptors[0].matrix - expected) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_evolved_descriptors_satisfy_car(seed):
    n_modes = 3
    u = tf.random_ps_unitary(n_modes, seed)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), fock.vacuum_state(n_modes))
    residual = dsc.descriptor_algebra_residual(
        [x.matrix for x in d.descriptors], 2 ** n_modes
    )
    assert residual < 1e-10


def test_heisenberg_state_must_be_sector_pure():
    v = (
        fock.vacuum_state(1).amplitudes + fock.fock_basis_state(1, [1]).amplitudes
    ) / np.sqrt(2)
    with pytest.raises(ValidationError) as err:
        dsc.evolve_descriptors(
            tf.PSUnitary(1, np.eye(2, dtype=complex)),
            ModeSet.full(1),
            fock.FockVector(1, v),
        )
    assert err.value.code == "ssr_violation"


def test_equivalence_examples():
    n_modes = 2
    theta = 0.8
    u = tf.named_gate("phase", n_modes, modes=(0,), theta=theta)
    ident = tf.PSUnitary(n_modes, np.eye(4, dtype=complex))
    assert not dsc.equivalent_at(u, ident, ModeSet((0,), n_modes))
    assert dsc.equivalent_at(u, ident, ModeSet((1,), n_modes))

    v = tf.random_ps_unitary(n_modes, 3)
    w = tf.local_random_ps_unitary(ModeSet((1,), n_modes), 4)
    assert dsc.equivalent_at(w @ v, v, ModeSet((0,), n_modes))


@pytest.mark.parametrize("seed", range(10))
def test_equivalence_both_directions(seed):
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(2, 5))
    mode = int(rng.integers(n_modes))
    complement = ModeSet.of([m for m in range(n_modes) if m != mode], n_modes)

    v = tf.random_ps_unitary(n_modes, seed * 5 + 1)
    w = tf.local_random_ps_unitary(complement, seed * 5 + 2)
    u = w @ v
    # forward: off-mode factor => equivalent
    assert dsc.equivalent_at(u, v, ModeSet((mode,), n_modes), tol=1e-9)
    # converse: equivalent pair's quotient is local off-mode
    quotient = u @ v.dag()
    assert tf.is_local_unitary(quotient, complement, tol=1e-9)
    # generic global pairs are not equivalent
    g = tf.random_ps_unitary(n_modes, seed * 5 + 3)
    assert not dsc.equivalent_at(g @ v, v, ModeSet((mode,), n_modes), tol=1e-9)


def test_ontic_apply_identity():
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(2, 0), ModeSet.full(2), fock.vacuum_state(2)
    )
    out = dsc.ontic_apply(tf.PSUnitary(2, np.eye(4, dtype=complex)), d)
    assert max_descriptor_distance(out, d) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_ontic_apply_composes_in_the_right_order(seed):
    # the normative identity: applying v to descriptors of u gives those of v u
    n_modes = 3
    psi0 = random_sector_state(n_modes, seed)
    u = tf.random_ps_unitary(n_modes, seed * 2 + 1)
    v = tf.random_ps_unitary(n_modes, seed * 2 + 2)
    full = ModeSet.full(n_modes)
    applied = dsc.ontic_apply(v, dsc.evolve_descriptors(u, full, psi0))
    composed = dsc.evolve_descriptors(v @ u, full, psi0)
    assert max_descriptor_distance(applied, composed) < 1e-9
    # naive conjugation would represent u v instead; rule it out
    wrong = dsc.evolve_descriptors(u @ v, full, psi0)
    assert max_descriptor_distance(applied, wrong) > 1e-3


def test_ontic_apply_disjoint_local_is_trivial():
    n_modes = 3
    psi0 = fock.vacuum_state(n_modes)
    v = tf.random_ps_unitary(n_modes, 6)
    d_b = dsc.ontic_project(
        dsc.evolve_descriptors(v, ModeSet.full(n_modes), psi0), ModeSet((2,), n_modes)
    )
    w_a = tf.local_random_ps_unitary(ModeSet((0, 1), n_modes), 7)
    out = dsc.ontic_apply(w_a, d_b)
    assert max_descriptor_distance(out, d_b) < 1e-10


def test_ontic_apply_partial_with_covered_support():
    # w moves only mode 0; a descriptor set tracking {0} suffices
    n_modes = 2
    psi0 = fock.vacuum_state(n_modes)
    u = tf.random_ps_unitary(n_modes, 1)
    d_a = dsc.ontic_project(
        dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0), ModeSet((0,), n_modes)
    )
    w = tf.named_gate("phase", n_modes, modes=(0,), theta=0.5)
    out = dsc.ontic_apply(w, d_a)
    expected = dsc.ontic_project(
        dsc.evolve_descriptors(w @ u, ModeSet.full(n_modes), psi0), ModeSet((0,), n_modes)
    )
    assert max_descriptor_distance(out, expected) < 1e-10


def test_ontic_apply_insufficient_coverage():
    n_modes = 3
    psi0 = fock.vacuum_state(n_modes)
    d_b = dsc.canonical_descriptors(ModeSet((2,), n_modes), psi0)
    w_global = tf.random_ps_unitary(n_modes, 9)
    with pytest.raises(ValidationError) as err:
        dsc.ontic_apply(w_global, d_b)
    assert err.value.code == "insufficient_coverage"


def test_ontic_apply_rejects_non_car_moved_descriptor():
    # a partial set skips the relation gate; the action must not substitute
    # descriptors that no unitary produces
    n_modes = 3
    bent = (0.5 * fock.annihilator(n_modes, 0), fock.annihilator(n_modes, 1))
    d = dsc.DescriptorSet(ModeSet((0, 1), n_modes), bent, fock.vacuum_state(n_modes))
    w = tf.named_gate("tunneling", n_modes, modes=(0, 1), theta=0.3)
    with pytest.raises(ValidationError) as err:
        dsc.ontic_apply(w, d)
    assert err.value.code == "descriptor_algebra"


def substituted_basis_images(
    desc: dict[int, np.ndarray], modes: tuple[int, ...], dim: int
) -> np.ndarray:
    """Images of the subsystem monomials with descriptors in place of ladders.

    Returns an array indexed like the flat (l, p) label order of
    ``monomial_basis``: entry l*2^m+p is  cre_d(l) . vac_d . ann_d(p)  where
    vac_d is the product of d_j d_j^dag over the subsystem.
    """
    m = len(modes)
    vac = np.eye(dim, dtype=complex)
    for j in modes:
        d = desc[j]
        vac = vac @ (d @ d.conj().T)

    left: dict[tuple[int, ...], np.ndarray] = {(): vac}

    def left_of(occupied: tuple[int, ...]) -> np.ndarray:
        if occupied in left:
            return left[occupied]
        out = desc[occupied[0]].conj().T @ left_of(occupied[1:])
        left[occupied] = out
        return out

    right: dict[tuple[int, ...], np.ndarray] = {(): np.eye(dim, dtype=complex)}

    def right_of(occupied: tuple[int, ...]) -> np.ndarray:
        # annihilators in decreasing mode order
        if occupied in right:
            return right[occupied]
        out = desc[occupied[-1]] @ right_of(occupied[:-1])
        right[occupied] = out
        return out

    images = np.empty((4 ** m, dim, dim), dtype=complex)
    k = 0
    for l_bits in range(2 ** m):
        l_occ = tuple(modes[i] for i in range(m) if (l_bits >> (m - 1 - i)) & 1)
        li = left_of(l_occ)
        for p_bits in range(2 ** m):
            p_occ = tuple(modes[i] for i in range(m) if (p_bits >> (m - 1 - i)) & 1)
            images[k] = li @ right_of(p_occ)
            k += 1
    return images


def substitution_oracle(w: tf.PSUnitary, d: dsc.DescriptorSet) -> dict[int, np.ndarray]:
    """The paper's group action, spelled out on the monomial basis.

    Expands each moved mode's image w^dag f_a w over the moved modes'
    ladder monomials and replaces every ladder factor by its descriptor.
    """
    moved = tf.invariance_support(w)
    basis = algebra.monomial_basis(moved)
    images = substituted_basis_images(d.matrices(), moved.indices, 2 ** d.n_modes)
    out = d.matrices()
    for a in moved.indices:
        target = fock.FockOperator(w.n_modes, w.heisenberg(a))
        coeffs = basis.expand(target).reshape(-1)
        out[a] = np.tensordot(coeffs, images, axes=(0, 0))
    return out


@pytest.mark.parametrize(
    "n_modes,n_moved",
    [(n, k) for n in range(3, 7) for k in sorted({1, 2, 3, n})],
)
def test_ontic_apply_matches_substitution_oracle(n_modes, n_moved):
    rng = np.random.default_rng(10 * n_modes + n_moved)
    moved = ModeSet.of(rng.choice(n_modes, n_moved, replace=False), n_modes)
    # track one unmoved mode too, where there is one
    tracked = ModeSet.of(
        list(moved) + list(rng.choice(moved.complement().indices, min(1, n_modes - n_moved))),
        n_modes,
    )
    psi0 = random_sector_state(n_modes, n_modes + n_moved)
    u = tf.random_ps_unitary(n_modes, 2 * n_modes + n_moved)
    d = dsc.evolve_descriptors(u, tracked, psi0)
    w = tf.local_random_ps_unitary(moved, 3 * n_modes + n_moved)
    assert tf.invariance_support(w) == moved
    applied = dsc.ontic_apply(w, d).matrices()
    oracle = substitution_oracle(w, d)
    assert applied.keys() == oracle.keys()
    assert max(fock.frobenius(applied[a] - oracle[a]) for a in applied) <= 1e-12
    algebra._basis_arrays.cache_clear()  # the full-set stacks reach 4^N x 4^N


def test_ontic_project_composes():
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(4, 2), ModeSet.full(4), fock.vacuum_state(4)
    )
    two_step = dsc.ontic_project(dsc.ontic_project(d, ModeSet((0, 1, 3), 4)), ModeSet((1, 3), 4))
    one_step = dsc.ontic_project(d, ModeSet((1, 3), 4))
    assert max_descriptor_distance(two_step, one_step) == 0.0
    assert dsc.ontic_project(d, ModeSet.full(4)) is d


def test_ontic_project_copies_the_parent_without_grading_again(monkeypatch):
    u = tf.random_ps_unitary(4, 8)
    d = dsc.evolve_descriptors(u, ModeSet.full(4), random_sector_state(4, 9))
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    restricted = dsc.ontic_project(d, ModeSet((1, 3), 4))
    assert grades == []
    assert restricted.subsystem == ModeSet((1, 3), 4)
    assert restricted.descriptors == (d.descriptors[1], d.descriptors[3])  # the same objects
    assert restricted.heisenberg_state is d.heisenberg_state
    assert restricted._witness is d._witness is not None
    assert d.subsystem == ModeSet.full(4) and len(d.descriptors) == 4


@pytest.mark.parametrize("part_b", [(1,), (1, 2)], ids=["proper_union", "full_union"])
def test_compatible_of_restrictions_grades_nothing_again(monkeypatch, part_b):
    n_modes = 4
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 76), ModeSet.full(n_modes), random_sector_state(n_modes, 3)
    )
    d_a = dsc.ontic_project(d, ModeSet((0, 3), n_modes))
    d_b = dsc.ontic_project(d, ModeSet(part_b, n_modes))
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    norms = count_calls(monkeypatch, fock.FockVector, "require_normalized")
    result = dsc.compatible(d_a, d_b)
    assert result
    assert grades == [] and norms == []
    reference = dsc.ontic_project(d, d_a.subsystem.union(d_b.subsystem))
    assert max_descriptor_distance(result.joined, reference) == 0.0


def test_ontic_apply_grades_only_the_moved_images(monkeypatch):
    n_modes = 4
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 77), ModeSet.full(n_modes), random_sector_state(n_modes, 4)
    )
    w = tf.local_random_ps_unitary(ModeSet((0, 2), n_modes), 78)
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    norms = count_calls(monkeypatch, fock.FockVector, "require_normalized")
    applied = dsc.ontic_apply(w, d)
    graded = [x for (x, *_) in grades if isinstance(x, fock.FockOperator)]
    assert graded == [applied.descriptors[0], applied.descriptors[2]]
    assert len(grades) == 3  # and the frame w W, which its product validates
    assert norms == []
    assert applied.descriptors[1] is d.descriptors[1] and applied.descriptors[3] is d.descriptors[3]


def test_ontic_apply_refuses_a_near_tolerance_global_transformation_as_not_odd():
    # w passes as even (its off-block part is 0.9 of the grade's bound), but
    # its images of the ladders do not pass as odd
    n_modes = 4
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 79), ModeSet.full(n_modes), fock.vacuum_state(n_modes)
    )
    haar = tf.random_ps_unitary(n_modes, 80).matrix
    even, odd = fock.parity_sectors(n_modes)
    off = np.zeros_like(haar)
    off[np.ix_(even, odd)] = np.random.default_rng(81).standard_normal((len(even), len(odd)))
    off *= 0.45 * 1e-10 * fock.frobenius(haar) / fock.frobenius(off)
    w = tf.PSUnitary(n_modes, haar + off)
    assert tf.invariance_support(w) == ModeSet.full(n_modes)
    with pytest.raises(ValidationError) as err:
        dsc.ontic_apply(w, d)
    assert err.value.code == "not_odd"


@pytest.mark.parametrize(
    "subsystem, code",
    [
        (ModeSet((), 3), "empty_subsystem"),
        (ModeSet((0, 2), 3), "not_subset"),
        (ModeSet((0,), 4), "dimension_mismatch"),
        (ModeSet((0,), 2), "dimension_mismatch"),
    ],
)
def test_ontic_project_refusals(subsystem, code):
    d = dsc.evolve_descriptors(tf.random_ps_unitary(3, 2), ModeSet.full(3), fock.vacuum_state(3))
    part = dsc.ontic_project(d, ModeSet((0, 1), 3))
    with pytest.raises(ValidationError) as err:
        dsc.ontic_project(part, subsystem)
    assert err.value.code == code


def test_compatible_projections_of_global_state():
    n_modes = 3
    psi0 = fock.vacuum_state(n_modes)
    u = tf.random_ps_unitary(n_modes, 21)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    d_a = dsc.ontic_project(d, ModeSet((0,), n_modes))
    d_b = dsc.ontic_project(d, ModeSet((1, 2), n_modes))
    result = dsc.compatible(d_a, d_b)
    assert result.compatible
    assert dsc.equivalent_at(result.witness, u, ModeSet.full(n_modes), tol=1e-8)
    joined = dsc.join(d_a, d_b)
    assert max_descriptor_distance(joined, d) == 0.0


def test_compatible_phase_gates_witness():
    n_modes = 2
    psi0 = fock.vacuum_state(n_modes)
    pa = tf.named_gate("phase", n_modes, modes=(0,), theta=0.3)
    pb = tf.named_gate("phase", n_modes, modes=(1,), theta=1.1)
    d_a = dsc.evolve_descriptors(pa, ModeSet((0,), n_modes), psi0)
    d_b = dsc.evolve_descriptors(pb, ModeSet((1,), n_modes), psi0)
    result = dsc.compatible(d_a, d_b)
    assert result.compatible
    assert dsc.equivalent_at(result.witness, pa @ pb, ModeSet.full(n_modes), tol=1e-8)


def test_compatible_heisenberg_mismatch_is_an_error():
    n_modes = 2
    d_a = dsc.canonical_descriptors(ModeSet((0,), n_modes), fock.vacuum_state(n_modes))
    d_b = dsc.canonical_descriptors(
        ModeSet((1,), n_modes), fock.fock_basis_state(n_modes, [1, 1])
    )
    with pytest.raises(ValidationError) as err:
        dsc.compatible(d_a, d_b)
    assert err.value.code == "heisenberg_mismatch"


def incompatible_pairs():
    # a tunneling-entangled mode-0 descriptor cannot coexist with a canonical
    # mode-1 descriptor: their cross anticommutator cannot vanish
    psi0 = fock.vacuum_state(3)
    u = tf.named_gate("tunneling", 3, modes=(0, 1), theta=0.4)
    yield (
        "tunneling_vs_canonical",
        dsc.evolve_descriptors(u, ModeSet((0,), 3), psi0),
        dsc.canonical_descriptors(ModeSet((1,), 3), psi0),
    )
    # parts taken from two unrelated global unitaries, proper and full unions
    for n_modes, part_a, part_b in ((3, (0,), (2,)), (4, (0, 1), (3,)), (3, (0,), (1, 2))):
        psi0 = fock.vacuum_state(n_modes)
        u = tf.random_ps_unitary(n_modes, 61)
        v = tf.random_ps_unitary(n_modes, 62)
        yield (
            f"u_v_{n_modes}_{part_a}_{part_b}",
            dsc.evolve_descriptors(u, ModeSet(part_a, n_modes), psi0),
            dsc.evolve_descriptors(v, ModeSet(part_b, n_modes), psi0),
        )
    # the particle-hole family {f_0^dag, f_1} is CAR-valid, but its joint
    # vacuum |10> is parity-odd, so no superselected unitary produces it
    psi0 = fock.vacuum_state(2)
    yield (
        "particle_hole",
        dsc.DescriptorSet(ModeSet((0,), 2), (fock.creator(2, 0),), psi0),
        dsc.canonical_descriptors(ModeSet((1,), 2), psi0),
    )


def test_incompatible_descriptor_sets_detected():
    for name, d_a, d_b in incompatible_pairs():
        result = dsc.compatible(d_a, d_b)
        assert not result.compatible, name
        with pytest.raises(ValidationError) as err:
            dsc.join(d_a, d_b)
        assert err.value.code == "incompatible", name


def test_incompatible_result_has_no_joined_set():
    name, d_a, d_b = next(p for p in incompatible_pairs() if p[0].startswith("u_v_"))
    result = dsc.compatible(d_a, d_b)
    assert not result.compatible, name
    assert result.joined is None
    assert result.witness is None


@pytest.mark.parametrize("part_a, part_b", [((0,), (2,)), ((0, 2), (1, 3))])
def test_compatible_joined_equals_join(part_a, part_b):
    n_modes = 4
    psi0 = random_sector_state(n_modes, 71)
    u = tf.random_ps_unitary(n_modes, 72)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    d_a = dsc.ontic_project(d, ModeSet(part_a, n_modes))
    d_b = dsc.ontic_project(d, ModeSet(part_b, n_modes))
    result = dsc.compatible(d_a, d_b)
    joined = dsc.join(d_a, d_b)
    assert result.joined.subsystem == joined.subsystem
    assert result.joined.heisenberg_state is d_a.heisenberg_state
    for x, y in zip(result.joined.descriptors, joined.descriptors, strict=True):
        assert np.array_equal(x.matrix, y.matrix)


def test_full_union_join_runs_the_canonical_relation_gate_once(monkeypatch):
    n_modes = 4
    psi0 = fock.vacuum_state(n_modes)
    d = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 73), ModeSet.full(n_modes), psi0)
    d_a = dsc.ontic_project(d, ModeSet((0, 3), n_modes))
    d_b = dsc.ontic_project(d, ModeSet((1, 2), n_modes))
    residuals = count_calls(monkeypatch, dsc, "descriptor_algebra_residual")
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    joined = dsc.join(d_a, d_b)
    # the gate checks the parent's witness, handed over; the exact residual never runs
    assert intertwiners == []
    assert residuals == []
    assert joined._witness is d._witness
    assert max_descriptor_distance(joined, d) == 0.0


def test_proper_union_join_of_restrictions_builds_no_witness(monkeypatch):
    n_modes = 5
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 74), ModeSet.full(n_modes), random_sector_state(n_modes, 2)
    )
    d_a = dsc.ontic_project(d, ModeSet((0, 3), n_modes))
    d_b = dsc.ontic_project(d, ModeSet((1,), n_modes))
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    result = dsc.compatible(d_a, d_b)
    assert intertwiners == []
    assert result.witness is d._witness[0]
    assert result.residual == d._witness[1]
    reference = dsc.ontic_project(d, ModeSet((0, 1, 3), n_modes))
    assert max_descriptor_distance(result.joined, reference) == 0.0
    assert dsc._witness_residual(result.witness, result.joined.matrices()) <= result.residual


def test_full_union_of_separately_evolved_sets_builds_one_witness(monkeypatch):
    n_modes = 4
    u = tf.random_ps_unitary(n_modes, 75)
    psi0 = fock.vacuum_state(n_modes)
    d_1, d_2 = (dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0) for _ in range(2))
    assert d_1._witness is not d_2._witness
    d_a = dsc.ontic_project(d_1, ModeSet((0, 2), n_modes))
    d_b = dsc.ontic_project(d_2, ModeSet((1, 3), n_modes))
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    result = dsc.compatible(d_a, d_b)
    # equal matrices but no shared witness object: the joined set's gate builds one
    assert [args[1] for args in intertwiners] == [n_modes]
    assert result.joined._witness is not None
    assert result.witness is result.joined._witness[0]


def test_particle_hole_descriptor_compatible_with_spare_mode():
    # with a third mode to absorb the parity, {f_0^dag} and {f_1} do extend
    n_modes = 3
    psi0 = fock.vacuum_state(n_modes)
    d_a = dsc.DescriptorSet(ModeSet((0,), n_modes), (fock.creator(n_modes, 0),), psi0)
    d_b = dsc.canonical_descriptors(ModeSet((1,), n_modes), psi0)
    result = dsc.compatible(d_a, d_b)
    assert result.compatible
    assert isinstance(result.witness, tf.PSUnitary)
    merged = {**d_a.matrices(), **d_b.matrices()}
    assert result.residual == dsc._witness_residual(result.witness, merged)
    assert result.residual <= 1e-12


def test_proper_union_join_round_trip():
    n_modes = 4
    psi0 = fock.vacuum_state(n_modes)
    u = tf.random_ps_unitary(n_modes, 31)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    d_a = dsc.ontic_project(d, ModeSet((0,), n_modes))
    d_b = dsc.ontic_project(d, ModeSet((2,), n_modes))
    joined = dsc.join(d_a, d_b)
    assert joined.subsystem.indices == (0, 2)
    assert max_descriptor_distance(
        dsc.ontic_project(joined, ModeSet((0,), n_modes)), d_a
    ) == 0.0
    reference = dsc.ontic_project(d, ModeSet((0, 2), n_modes))
    assert max_descriptor_distance(joined, reference) == 0.0


def test_join_uniqueness_across_witnesses():
    n_modes = 3
    psi0 = fock.vacuum_state(n_modes)
    u = tf.random_ps_unitary(n_modes, 41)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    d_a = dsc.ontic_project(d, ModeSet((0,), n_modes))
    d_b = dsc.ontic_project(d, ModeSet((1,), n_modes))
    result = dsc.compatible(d_a, d_b)
    assert result.compatible
    # a second witness differing by a complement-local factor
    w_c = tf.local_random_ps_unitary(ModeSet((2,), n_modes), 5)
    other = w_c @ result.witness
    merged = {**d_a.matrices(), **d_b.matrices()}
    assert dsc._witness_residual(other, merged) < 1e-9


def test_reconstruct_canonical_is_identity():
    d = dsc.canonical_descriptors(ModeSet.full(3), fock.vacuum_state(3))
    u = dsc.reconstruct_unitary(d)
    assert tf.phase_distance(u.matrix, np.eye(8)) < 1e-10


def test_reconstruct_phase_gate():
    u = tf.named_gate("phase", 2, modes=(0,), theta=np.pi / 2)
    d = dsc.evolve_descriptors(u, ModeSet.full(2), fock.vacuum_state(2))
    rec = dsc.reconstruct_unitary(d)
    assert tf.phase_distance(rec.matrix, u.matrix) < 1e-9
    for a in range(2):
        assert fock.frobenius(rec.heisenberg(a) - d.descriptors[a].matrix) < 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_reconstruct_random_round_trip(seed):
    n_modes = 3
    u = tf.random_ps_unitary(n_modes, seed)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), fock.vacuum_state(n_modes))
    rec = dsc.reconstruct_unitary(d)
    assert tf.phase_distance(rec.matrix, u.matrix) < 1e-8
    for a in range(n_modes):
        assert fock.frobenius(rec.heisenberg(a) - d.descriptors[a].matrix) < 1e-8


def structured_cases():
    # sparse matrices, sign diagonals, and argmax ties stress the modulus
    # and phase recovery differently than Haar samples
    yield "parity_2", tf.PSUnitary(2, np.diag(fock.parity_diagonal(2)))
    yield "parity_3", tf.PSUnitary(3, np.diag(fock.parity_diagonal(3)))
    yield "swap_like", tf.named_gate("tunneling", 3, modes=(0, 2), theta=np.pi / 2)
    yield "interaction", tf.named_gate("interaction", 3, modes=(1, 2), theta=2.2)
    yield "identity_3", tf.PSUnitary(3, np.eye(8, dtype=complex))
    yield "pure_phase", tf.PSUnitary(2, np.exp(1.1j) * np.eye(4, dtype=complex))
    composite = (
        tf.named_gate("phase", 4, modes=(2,), theta=1.0)
        @ tf.named_gate("tunneling", 4, modes=(0, 3), theta=0.9)
        @ tf.named_gate("interaction", 4, modes=(1, 2), theta=0.4)
    )
    yield "composite_4", composite


@pytest.mark.parametrize("name,unitary", list(structured_cases()))
def test_reconstruct_structured_unitaries(name, unitary):
    n_modes = unitary.n_modes
    d = dsc.evolve_descriptors(unitary, ModeSet.full(n_modes), fock.vacuum_state(n_modes))
    rec = dsc.reconstruct_unitary(d)
    assert tf.phase_distance(rec.matrix, unitary.matrix) < 1e-12
    assert dsc._witness_residual(rec, d.matrices()) < 1e-12


def test_proper_union_join_with_two_mode_part():
    n_modes = 4
    psi0 = fock.vacuum_state(n_modes)
    for seed in range(3):
        u = tf.random_ps_unitary(n_modes, seed)
        d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
        d_a = dsc.ontic_project(d, ModeSet((0, 1), n_modes))
        d_b = dsc.ontic_project(d, ModeSet((2,), n_modes))
        joined = dsc.join(d_a, d_b)
        reference = dsc.ontic_project(d, ModeSet((0, 1, 2), n_modes))
        assert max_descriptor_distance(joined, reference) == 0.0


def test_reconstruction_unique_up_to_phase():
    # coinciding descriptor sets force the same unitary up to a global phase
    u = tf.random_ps_unitary(3, 55)
    v = tf.PSUnitary(3, np.exp(0.9j) * u.matrix)
    d_u = dsc.evolve_descriptors(u, ModeSet.full(3), fock.vacuum_state(3))
    d_v = dsc.evolve_descriptors(v, ModeSet.full(3), fock.vacuum_state(3))
    assert max_descriptor_distance(d_u, d_v) < 1e-12
    r_u = dsc.reconstruct_unitary(d_u)
    r_v = dsc.reconstruct_unitary(d_v)
    assert tf.phase_distance(r_u.matrix, r_v.matrix) < 1e-8
    assert tf.phase_distance(r_u.matrix, u.matrix) < 1e-8


def test_reconstruct_rejects_partial_sets():
    d = dsc.canonical_descriptors(ModeSet((0,), 2), fock.vacuum_state(2))
    with pytest.raises(ValidationError) as err:
        dsc.reconstruct_unitary(d)
    assert err.value.code == "not_full"


def test_reconstruct_rejects_degenerate_input():
    # scaled annihilators break the relations and cannot come from a unitary
    n_modes = 2
    bent = (
        0.5 * fock.annihilator(n_modes, 0),
        fock.annihilator(n_modes, 1),
    )
    with pytest.raises(ValidationError) as err:
        dsc.DescriptorSet(ModeSet.full(n_modes), bent, fock.vacuum_state(n_modes))
    assert err.value.code == "descriptor_algebra"


def test_reconstruct_rejects_particle_hole_family():
    # passes the canonical-relation gate, but its vacuum has the wrong parity
    n_modes = 2
    family = (fock.creator(n_modes, 0), fock.annihilator(n_modes, 1))
    d = dsc.DescriptorSet(ModeSet.full(n_modes), family, fock.vacuum_state(n_modes))
    with pytest.raises(ValidationError) as err:
        dsc.reconstruct_unitary(d)
    assert err.value.code == "degenerate_reconstruction"


@pytest.mark.parametrize("n_modes", range(2, 9))
def test_genuine_full_sets_pass_the_gate_on_their_witness(monkeypatch, n_modes):
    residuals = count_calls(monkeypatch, dsc, "descriptor_algebra_residual")
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    full = ModeSet.full(n_modes)
    psi0 = random_sector_state(n_modes, n_modes)
    unitaries = (
        tf.random_ps_unitary(n_modes, 60 + n_modes),
        tf.named_gate("tunneling", n_modes, modes=(n_modes - 1, 0), theta=0.7),
    )
    for u in unitaries:
        assert dsc.evolve_descriptors(u, full, psi0)._witness is not None
    assert dsc.canonical_descriptors(full, psi0)._witness is not None
    assert residuals == []
    # a set built from bare matrices has no witness to hand over: one gate call each
    assert len(intertwiners) == 3


def odd_direction(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-norm random matrix that flips parity, so a perturbed descriptor stays odd."""
    parity = fock.parity_diagonal(n_modes).real
    dim = 2 ** n_modes
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z[parity[:, None] == parity[None, :]] = 0.0
    return z / fock.frobenius(z)


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_gate_verdict_matches_the_exact_residual(n_modes):
    rng = np.random.default_rng(80 + n_modes)
    u = tf.random_ps_unitary(n_modes, 90 + n_modes)
    base = [u.heisenberg(a) for a in range(n_modes)]
    directions = [odd_direction(n_modes, rng) for _ in base]
    psi0 = fock.vacuum_state(n_modes)

    def family(scale):
        return [d + scale * e for d, e in zip(base, directions)]

    # the residual is linear in the scale here; add scales just either side of CAR_TOL
    slope = dsc.descriptor_algebra_residual(family(1e-10), 2 ** n_modes) / 1e-10
    critical = dsc.CAR_TOL / slope
    scales = list(np.logspace(-13, -7, 49))
    scales += [critical * (1 + k) for k in (-1e-3, -1e-4, -1e-5, 1e-5, 1e-4, 1e-3)]
    seen = []
    for scale in scales:
        matrices = family(scale)
        exact = dsc.descriptor_algebra_residual(matrices, 2 ** n_modes)
        ops = tuple(fock.FockOperator(n_modes, m) for m in matrices)
        try:
            dsc.DescriptorSet(ModeSet.full(n_modes), ops, psi0)
            accepted = True
        except ValidationError as err:
            assert err.code == "descriptor_algebra"
            assert err.args[0] == (
                f"full descriptor set violates the canonical relations ({exact:.3e})"
            )
            accepted = False
        seen.append((exact, accepted))
        if abs(exact / dsc.CAR_TOL - 1) > 1e-6:
            assert accepted == (exact <= dsc.CAR_TOL), (scale, exact)
    residuals = [exact for exact, _ in seen]
    assert min(residuals) <= 1e-12 and max(residuals) >= 1e-8
    assert {accepted for _, accepted in seen} == {True, False}


def test_particle_hole_family_passes_the_gate_on_the_exact_residual(monkeypatch):
    n_modes = 2
    residuals = count_calls(monkeypatch, dsc, "descriptor_algebra_residual")
    family = (fock.creator(n_modes, 0), fock.annihilator(n_modes, 1))
    d = dsc.DescriptorSet(ModeSet.full(n_modes), family, fock.vacuum_state(n_modes))
    assert len(residuals) == 1  # no parity-preserving witness exists
    assert d._witness is None
    with pytest.raises(ValidationError) as err:
        dsc.reconstruct_unitary(d)
    assert err.value.code == "degenerate_reconstruction"


@pytest.mark.parametrize("n_modes", [2, 5, 8])
def test_reconstruction_reuses_the_gate_witness(monkeypatch, n_modes):
    u = tf.random_ps_unitary(n_modes, 30 + n_modes)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 3))
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    witness, residual = dsc.reconstruct_with_residual(d)
    assert intertwiners == []
    fresh, fresh_residual = dsc._intertwiner(d.matrices(), n_modes)
    assert witness.matrix.tobytes() == fresh.matrix.tobytes()
    assert residual == fresh_residual > 0.0
    # with RECONSTRUCT_TOL below the residual, the round trip is refused
    monkeypatch.setattr(dsc, "RECONSTRUCT_TOL", residual / 2)
    with pytest.raises(ValidationError) as err:
        dsc._intertwiner(d.matrices(), n_modes)
    assert err.value.code == "degenerate_reconstruction"
    assert err.value.args[0] == f"assembled witness fails the round trip (residual {residual:.3e})"


def test_ontic_apply_reuses_the_stored_witness(monkeypatch):
    n_modes = 5
    psi0 = random_sector_state(n_modes, 6)
    u = tf.random_ps_unitary(n_modes, 61)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    restricted = dsc.ontic_project(d, ModeSet((0, 1, 3), n_modes))
    assert restricted._witness is d._witness is not None
    w = tf.local_random_ps_unitary(ModeSet((1, 3), n_modes), 62)
    composite = dsc.evolve_descriptors(w @ u, ModeSet.full(n_modes), psi0)
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    applied = dsc.ontic_apply(w, d)
    # the result's canonical-relation gate checks the frame it is handed
    assert intertwiners == []
    assert max_descriptor_distance(applied, composite) <= 1e-10
    applied = dsc.ontic_apply(w, restricted)
    assert intertwiners == []
    composite = dsc.ontic_project(composite, restricted.subsystem)
    assert max_descriptor_distance(applied, composite) <= 1e-10


@pytest.mark.parametrize("part", [(0, 1, 2, 3, 4), (0, 1, 3), (1, 3)])
def test_ontic_apply_hands_on_a_witness_bounding_its_residual(part):
    n_modes = 5
    u = tf.random_ps_unitary(n_modes, 63)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 7))
    w = tf.local_random_ps_unitary(ModeSet((1, 3), n_modes), 64)
    applied = dsc.ontic_apply(w, dsc.ontic_project(d, ModeSet(part, n_modes)))
    witness, eps = applied._witness
    assert eps >= dsc._witness_residual(witness, applied.matrices())
    assert eps <= 1e-12


def test_ontic_apply_without_a_stored_witness_hands_on_none():
    n_modes = 4
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 65), ModeSet((0, 1, 2), n_modes), fock.vacuum_state(n_modes)
    )
    assert d._witness is None
    applied = dsc.ontic_apply(tf.local_random_ps_unitary(ModeSet((1,), n_modes), 66), d)
    assert applied._witness is None


def test_reconstruction_of_an_applied_set_matches_a_fresh_witness():
    n_modes = 5
    u = tf.random_ps_unitary(n_modes, 67)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 8))
    w = tf.local_random_ps_unitary(ModeSet((0, 2, 4), n_modes), 68)
    applied = dsc.ontic_apply(w, d)
    witness, residual = dsc.reconstruct_with_residual(applied)
    fresh, fresh_residual = dsc._intertwiner(applied.matrices(), n_modes)
    assert tf.phase_distance(witness.matrix, fresh.matrix) <= 1e-12
    assert max(residual, fresh_residual) <= 1e-12


def test_ontic_apply_builds_no_dense_ladder():
    n_modes = 8
    psi0 = random_sector_state(n_modes, 4)
    d = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 4), ModeSet.full(n_modes), psi0)
    w = tf.local_random_ps_unitary(ModeSet((1, 4, 6), n_modes), 9)
    fock._annihilator_matrix.cache_clear()
    dsc.ontic_apply(w, d)
    assert fock._annihilator_matrix.cache_info().currsize == 0


def test_phenomenal_of_canonical_vacuum():
    d = dsc.canonical_descriptors(ModeSet.full(2), fock.vacuum_state(2))
    state = dsc.phenomenal_of(d)
    assert np.allclose(state.matrix, fock.vacuum_state(2).projector().matrix, atol=1e-12)


def test_phenomenal_of_matches_schroedinger_evolution():
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=np.pi / 4)
    psi0 = fock.fock_basis_state(2, [1, 0])
    d = dsc.evolve_descriptors(u, ModeSet.full(2), psi0)
    state = dsc.phenomenal_of(d)
    evolved = u.matrix @ psi0.amplitudes
    assert np.allclose(state.matrix, np.outer(evolved, evolved.conj()), atol=1e-12)


def test_phenomenal_of_local_equals_partial_trace():
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=np.pi / 4)
    psi0 = fock.fock_basis_state(2, [1, 0])
    d = dsc.evolve_descriptors(u, ModeSet.full(2), psi0)
    local = dsc.phenomenal_of(dsc.ontic_project(d, ModeSet((0,), 2)))
    assert np.allclose(local.matrix, np.diag([0.5, 0.5]), atol=1e-12)
    global_state = dsc.phenomenal_of(d)
    reduced = states.partial_trace(global_state, ModeSet((0,), 2))
    assert fock.frobenius(local.matrix - reduced.matrix) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_phenomenal_homomorphism(seed):
    # mapping after acting equals conjugating the mapped state
    n_modes = 3
    psi0 = random_sector_state(n_modes, seed + 70)
    u = tf.random_ps_unitary(n_modes, seed + 80)
    w = tf.random_ps_unitary(n_modes, seed + 90)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    lhs = dsc.phenomenal_of(dsc.ontic_apply(w, d)).matrix
    rho = dsc.phenomenal_of(d).matrix
    rhs = w.matrix @ rho @ w.matrix.conj().T
    assert fock.frobenius(lhs - rhs) < 1e-9


def projector_phenomenal(d: dsc.DescriptorSet) -> np.ndarray:
    """Oracle: the dense vacuum projector form ys* . (prod_a d_a d_a^dag) . ys^T.

    Each annihilator string on |psi0> is one memoised product, and the
    product of the d_a d_a^dag is formed as a 2^N x 2^N matrix.  Raises
    ``internal_inconsistency`` when the result is no state, as
    ``phenomenal_of`` does.
    """
    modes = d.subsystem.indices
    m = len(modes)
    desc = d.matrices()
    vac = np.eye(2 ** d.n_modes, dtype=complex)
    for a in modes:
        vac = vac @ (desc[a] @ desc[a].conj().T)
    y = {(): d.heisenberg_state.amplitudes}

    def y_of(occupied):
        if occupied not in y:
            y[occupied] = desc[occupied[-1]] @ y_of(occupied[:-1])
        return y[occupied]

    patterns = [
        tuple(modes[i] for i in range(m) if (bits >> (m - 1 - i)) & 1) for bits in range(2 ** m)
    ]
    ys = np.stack([y_of(p) for p in patterns])
    gamma = (ys.conj() @ vac @ ys.T).T
    try:
        states.PhenomenalState(d.subsystem, gamma)
    except ValidationError as exc:
        raise ValidationError("internal_inconsistency", str(exc)) from exc
    return gamma


def assert_matches_projector_form(d: dsc.DescriptorSet) -> None:
    assert np.abs(dsc.phenomenal_of(d).matrix - projector_phenomenal(d)).max() <= 1e-14


def test_phenomenal_of_matches_projector_form_on_every_restriction():
    n_modes = 4
    psi0 = random_sector_state(n_modes, 12)
    d = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 11), ModeSet.full(n_modes), psi0)
    subsets = list(vf.proper_subsets(n_modes)) + [ModeSet.full(n_modes)]
    for subset in subsets:
        assert_matches_projector_form(dsc.ontic_project(d, subset))


def test_phenomenal_of_matches_projector_form_at_six_modes():
    n_modes = 6
    psi0 = random_sector_state(n_modes, 3)
    d = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 2), ModeSet.full(n_modes), psi0)
    for subset in ((4,), (0, 5), (1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 4, 5), tuple(range(6))):
        assert_matches_projector_form(dsc.ontic_project(d, ModeSet(subset, n_modes)))


def test_phenomenal_of_matches_projector_form_on_particle_hole_set():
    psi0 = random_sector_state(2, 1)
    d = dsc.DescriptorSet(ModeSet((0,), 2), (fock.creator(2, 0),), psi0)
    assert_matches_projector_form(d)


def test_doctored_partial_set_is_no_state_in_either_form():
    d = dsc.DescriptorSet(ModeSet((0,), 2), (0.5 * fock.annihilator(2, 0),), fock.vacuum_state(2))
    for form in (dsc.phenomenal_of, projector_phenomenal):
        with pytest.raises(ValidationError) as info:
            form(d)
        assert info.value.code == "internal_inconsistency"


def test_images_at_the_mode_cap_build_no_dense_ladder(monkeypatch):
    """Evolving and reconstructing at N=10 fills no 16 MB entry of the ladder cache."""
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    n_modes = fock.DEFAULT_MODE_CAP
    u = tf.random_ps_unitary(n_modes, 5)
    fock._annihilator_matrix.cache_clear()
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), fock.vacuum_state(n_modes))
    assert dsc.reconstruct_with_residual(d)[1] <= dsc.RECONSTRUCT_TOL
    assert fock._annihilator_matrix.cache_info().currsize == 0


def test_full_set_jobs_at_mode_cap(monkeypatch):
    """Each full-set job at N=10 ends within 10 s (2 vCPUs: 5.2, 0.0, 0.2, 0.1, 1.8 s)."""
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    n_modes = fock.DEFAULT_MODE_CAP
    budget = 10.0
    full = ModeSet.full(n_modes)
    u = tf.random_ps_unitary(n_modes, 7)

    def timed(job):
        start = time.perf_counter()
        out = job()
        assert time.perf_counter() - start <= budget
        return out

    d = timed(lambda: dsc.evolve_descriptors(u, full, fock.vacuum_state(n_modes)))
    assert timed(lambda: dsc.reconstruct_with_residual(d))[1] <= dsc.RECONSTRUCT_TOL
    part = ModeSet((0, 3, 4, 8), n_modes)
    pair = dsc.ontic_project(d, part), dsc.ontic_project(d, part.complement())
    assert timed(lambda: dsc.compatible(*pair)).joined.subsystem == full
    pair = dsc.ontic_project(d, ModeSet((0, 3), n_modes)), dsc.ontic_project(d, ModeSet((5,), n_modes))
    assert timed(lambda: dsc.compatible(*pair))
    moved = ModeSet((1, 4, 7), n_modes)
    w = tf.local_random_ps_unitary(moved, 8)
    applied = dsc.ontic_project(timed(lambda: dsc.ontic_apply(w, d)), moved)
    composite = dsc.evolve_descriptors(w @ u, moved, d.heisenberg_state)
    assert max_descriptor_distance(applied, composite) <= 1e-9
