"""Descriptor evolution, equivalence, ontic action, join, reconstruction."""

import json
import time

import numpy as np
import pytest

from fermidesc import algebra, descriptors as dsc, fock, serialize, states, transformations as tf
from fermidesc import verification as vf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.verification import random_sector_state

from conftest import count_calls, lift_cases
from oracles import MonomialBasis


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


def no_witness_message(matrices: dict[int, np.ndarray], n_modes: int) -> str:
    """The gate's rejection of descriptors whose intertwiner fails."""
    with pytest.raises(ValidationError) as err:
        dsc._intertwiner(matrices, n_modes)
    return f"descriptor set has no parity-preserving witness ({err.value})"


@pytest.mark.parametrize(
    "subsystem, doctored",
    [
        (ModeSet((0,), 2), (0.5 * fock.annihilator(2, 0),)),
        (ModeSet((0, 1), 3), (0.5 * fock.annihilator(3, 0), fock.annihilator(3, 1))),
    ],
    ids=["one_mode", "two_of_three"],
)
def test_non_car_proper_set_is_refused_when_built(subsystem, doctored):
    n_modes = subsystem.ambient_n
    psi0 = fock.vacuum_state(n_modes)
    # d d^dag of d = 0.5 f_0 has eigenvalues 1/4 and 0: the joint vacuum is empty
    matrices = dict(zip(subsystem.indices, (x.matrix for x in doctored)))
    message = no_witness_message(matrices, n_modes)
    with pytest.raises(ValidationError) as err:
        dsc.DescriptorSet(subsystem, doctored, psi0)
    assert (err.value.code, err.value.args[0]) == ("descriptor_algebra", message)
    data = {
        "modes": list(subsystem.indices),
        "ambient_n": n_modes,
        "descriptors": [serialize.matrix_to_json(x.matrix) for x in doctored],
        "heisenberg_state": serialize.vector_to_json(psi0.amplitudes),
    }
    with pytest.raises(ValidationError) as err:
        serialize.json_to_descriptor_set(json.loads(json.dumps(data, default=serialize.plain)))
    assert (err.value.code, err.value.field) == ("descriptor_algebra", "descriptor_set")


def substituted_basis_images(
    desc: dict[int, np.ndarray], modes: tuple[int, ...], dim: int
) -> np.ndarray:
    """Images of the subsystem monomials with descriptors in place of ladders.

    Returns an array indexed like the flat (l, p) label order of
    ``MonomialBasis``: entry l*2^m+p is  cre_d(l) . vac_d . ann_d(p)  where
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
    basis = MonomialBasis.of(moved)
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


def test_ontic_apply_grades_nothing(monkeypatch):
    n_modes = 4
    d = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 77), ModeSet.full(n_modes), random_sector_state(n_modes, 4)
    )
    w = tf.local_random_ps_unitary(ModeSet((0, 2), n_modes), 78)
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    norms = count_calls(monkeypatch, fock.FockVector, "require_normalized")
    applied = dsc.ontic_apply(w, d)
    assert grades == []  # the frame w W is an exact product, its images exactly odd
    assert norms == []
    assert applied.descriptors[1] is d.descriptors[1] and applied.descriptors[3] is d.descriptors[3]
    for a in (0, 2):
        assert algebra.parity_grade(applied.descriptors[a]) == algebra.GRADE_ODD


@pytest.mark.parametrize("modes", [(1, 2), (0, 1, 2, 3)], ids=["proper", "full"])
def test_evolve_descriptors_grades_only_the_heisenberg_state(monkeypatch, modes):
    n_modes = 4
    u = tf.random_ps_unitary(n_modes, 82)
    psi0 = random_sector_state(n_modes, 83)
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    d = dsc.evolve_descriptors(u, ModeSet(modes, n_modes), psi0)
    assert len(grades) == 1 and grades[0][0] is psi0.amplitudes  # no image is graded
    for x in d.descriptors:
        assert algebra.parity_grade(x) == algebra.GRADE_ODD


@pytest.mark.parametrize(
    "entry",
    [
        lambda w, d: dsc.ontic_apply(w, d),
        lambda w, d: dsc.evolve_descriptors(w, ModeSet((0, 1), d.n_modes), d.heisenberg_state),
    ],
    ids=["ontic_apply", "evolve_descriptors"],
)
def test_near_tolerance_transformation_acts_through_its_even_part(entry):
    # w's off-block part is 0.9 of the grade's bound, so w passes as even and
    # is stored without it; its images, as the group action's new
    # descriptors or as an evolved set's, are then exactly odd
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
    assert np.array_equal(w.matrix, haar)
    assert tf.invariance_support(w) == ModeSet.full(n_modes)
    result, clean = entry(w, d), entry(tf.PSUnitary(n_modes, haar), d)
    for x, y in zip(result.descriptors, clean.descriptors):
        assert algebra.parity_grade(x) == algebra.GRADE_ODD
        assert np.array_equal(x.matrix, y.matrix)


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


@pytest.mark.parametrize("distance", [0.0, 0.5e-10, 0.999e-10, 1.001e-10, 2e-10, 1e-6])
def test_heisenberg_states_match_as_their_projectors_do(distance):
    # b is a, turned by a global phase and tilted by an angle t towards a
    # unit x orthogonal to it, so that |P_a - P_b|_F = sqrt(2) sin(t) = distance
    n_modes = 3
    psi0 = random_sector_state(n_modes, 5)
    a = psi0.amplitudes
    x = random_sector_state(n_modes, 7).amplitudes  # same sector as a
    x = x - np.vdot(a, x) * a
    x /= np.linalg.norm(x)
    t = np.arcsin(distance / np.sqrt(2))
    b = np.exp(0.7j) * (np.cos(t) * a + np.sin(t) * x)
    projector = fock.frobenius(np.outer(a, a.conj()) - np.outer(b, b.conj()))
    assert projector == pytest.approx(distance, rel=1e-4, abs=1e-15)
    u = tf.random_ps_unitary(n_modes, 8)
    d_a = dsc.evolve_descriptors(u, ModeSet((0,), n_modes), psi0)
    d_b = dsc.evolve_descriptors(u, ModeSet((1, 2), n_modes), fock.FockVector(n_modes, b))
    try:
        dsc.compatible(d_a, d_b)
        matched = True
    except ValidationError as err:
        assert err.code == "heisenberg_mismatch"
        matched = False
    assert matched == (projector <= 1e-10)


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


def test_incompatible_union_builds_one_witness_and_no_exact_residual(monkeypatch):
    n_modes = 6
    psi0 = fock.vacuum_state(n_modes)
    d_a = dsc.evolve_descriptors(
        tf.random_ps_unitary(n_modes, 61), ModeSet((0, 1, 2), n_modes), psi0
    )
    d_b = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 62), ModeSet((4, 5), n_modes), psi0)
    residuals = count_calls(monkeypatch, dsc, "descriptor_algebra_residual")
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    result = dsc.compatible(d_a, d_b)
    # the union's gate refuses it on its failed intertwiner alone
    assert not result
    assert result.reason.startswith(
        "[descriptor_algebra] descriptor set has no parity-preserving witness ("
    )
    assert residuals == [] and len(intertwiners) == 1


def library_sets():
    """(name, set) for each way the library builds a descriptor set."""
    n_modes = 4
    psi0 = random_sector_state(n_modes, 11)
    u = tf.random_ps_unitary(n_modes, 12)
    full = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    bare = dsc.canonical_descriptors(ModeSet((0, 2), n_modes), psi0)
    w = tf.local_random_ps_unitary(ModeSet((0, 2), n_modes), 13)
    text = json.dumps(serialize.descriptor_set_to_json(full), default=serialize.plain)
    yield "canonical", bare
    yield "json", serialize.json_to_descriptor_set(json.loads(text))
    yield "evolved_full", full
    yield "evolved_proper", dsc.evolve_descriptors(u, ModeSet((1, 3), n_modes), psi0)
    yield "projected", dsc.ontic_project(full, ModeSet((1, 2), n_modes))
    yield "applied_evolved", dsc.ontic_apply(w, full)
    yield "applied_bare", dsc.ontic_apply(w, bare)
    parts = (dsc.ontic_project(full, ModeSet(p, n_modes)) for p in ((0, 3), (1,)))
    yield "joined", dsc.join(*parts)
    spare = fock.vacuum_state(3)
    yield "particle_hole_union", dsc.join(
        dsc.DescriptorSet(ModeSet((0,), 3), (fock.creator(3, 0),), spare),
        dsc.canonical_descriptors(ModeSet((1,), 3), spare),
    )


def test_every_library_set_holds_a_witness():
    for name, d in library_sets():
        witness, eps = d._witness
        assert isinstance(witness, tf.PSUnitary), name
        assert dsc._witness_residual(witness, d.matrices()) <= eps <= dsc.RECONSTRUCT_TOL, name


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
    yield "parity_2", tf.PSUnitary(2, np.diag(fock._parity_diagonal(2)))
    yield "parity_3", tf.PSUnitary(3, np.diag(fock._parity_diagonal(3)))
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
    # obeys the canonical relations, but its vacuum |10> has the wrong parity:
    # reconstruction's intertwiner finds no witness, so the set is refused
    # where it enters and never reaches reconstruction
    n_modes = 2
    family = (fock.creator(n_modes, 0), fock.annihilator(n_modes, 1))
    matrices = {a: x.matrix for a, x in enumerate(family)}
    assert dsc.descriptor_algebra_residual(list(matrices.values()), 2 ** n_modes) == 0.0
    with pytest.raises(ValidationError) as err:
        dsc._intertwiner(matrices, n_modes)
    assert err.value.code == "degenerate_reconstruction"
    with pytest.raises(ValidationError) as err:
        dsc.DescriptorSet(ModeSet.full(n_modes), family, fock.vacuum_state(n_modes))
    assert err.value.code == "descriptor_algebra"


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
        witness, eps = dsc.evolve_descriptors(u, full, psi0)._witness
        assert witness is u and eps == 0.0
    assert dsc.canonical_descriptors(full, psi0)._witness is not None
    assert residuals == []
    # an evolved set carries the unitary that made it; only the set built
    # from bare matrices has no witness to hand over, and its gate builds one
    assert len(intertwiners) == 1


def odd_direction(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-norm random matrix that flips parity, so a perturbed descriptor stays odd."""
    parity = fock._parity_diagonal(n_modes).real
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
            # refused on its failed intertwiner, else on the exact residual it prints
            try:
                dsc._intertwiner(dict(enumerate(matrices)), n_modes)
                message = f"descriptor set violates the canonical relations ({exact:.3e})"
            except ValidationError as failed:
                message = f"descriptor set has no parity-preserving witness ({failed})"
            assert err.args[0] == message
            accepted = False
        seen.append((exact, accepted))
        if abs(exact / dsc.CAR_TOL - 1) > 1e-6:
            assert accepted == (exact <= dsc.CAR_TOL), (scale, exact)
    residuals = [exact for exact, _ in seen]
    assert min(residuals) <= 1e-12 and max(residuals) >= 1e-8
    assert {accepted for _, accepted in seen} == {True, False}

    # evolved from a unitary scaled by (1 + s): the set carries it as its
    # witness, with a defect near 2 s 2^(N/2) and images off by (1 + s)^2
    def scaled_images(s):
        scaled = tf.PSUnitary(n_modes, (1 + s) * u.matrix)
        return scaled, [scaled.heisenberg(a) for a in range(n_modes)]

    slope = dsc.descriptor_algebra_residual(scaled_images(1e-12)[1], 2 ** n_modes) / 1e-12
    critical = dsc.CAR_TOL / slope
    # up to the largest scale whose defect passes as unitary, about 0.5e-10 * 2^(N/2)
    scales = list(np.logspace(-14, np.log10(0.4e-10 * 2 ** (n_modes / 2)), 25))
    scales += [critical * (1 + k) for k in (-1e-3, -1e-4, 1e-4, 1e-3)]
    seen = []
    for scale in scales:
        scaled, images = scaled_images(scale)
        exact = dsc.descriptor_algebra_residual(images, 2 ** n_modes)
        try:
            d = dsc.evolve_descriptors(scaled, ModeSet.full(n_modes), psi0)
            accepted = True
            assert d._witness == (scaled, 0.0)
        except ValidationError as err:
            assert err.code == "descriptor_algebra"
            assert err.args[0] == f"descriptor set violates the canonical relations ({exact:.3e})"
            accepted = False
        seen.append(accepted)
        if abs(exact / dsc.CAR_TOL - 1) > 1e-6:
            assert accepted == (exact <= dsc.CAR_TOL), (scale, exact)
    assert set(seen) == {True, False}


def test_particle_hole_family_is_refused_where_it_enters(monkeypatch):
    # a set with no parity-preserving witness is refused by every builder,
    # on its failed intertwiner, without the exact residual
    n_modes = 2
    full = ModeSet.full(n_modes)
    family = (fock.creator(n_modes, 0), fock.annihilator(n_modes, 1))
    psi0 = fock.vacuum_state(n_modes)
    message = no_witness_message({a: x.matrix for a, x in enumerate(family)}, n_modes)
    data = {
        "modes": list(full.indices),
        "ambient_n": n_modes,
        "descriptors": [serialize.matrix_to_json(x.matrix) for x in family],
        "heisenberg_state": serialize.vector_to_json(psi0.amplitudes),
    }
    data = json.loads(json.dumps(data, default=serialize.plain))
    residuals = count_calls(monkeypatch, dsc, "descriptor_algebra_residual")
    builders = (
        lambda: dsc.DescriptorSet(full, family, psi0),
        lambda: dsc._assembled(full, family, psi0, None),
        lambda: serialize.json_to_descriptor_set(data),
    )
    for build in builders:
        with pytest.raises(ValidationError) as err:
            build()
        assert (err.value.code, err.value.args[0]) == ("descriptor_algebra", message)
    assert err.value.field == "descriptor_set"
    assert residuals == []


@pytest.mark.parametrize("n_modes", [2, 5, 8])
def test_reconstruction_is_built_from_the_matrices(monkeypatch, n_modes):
    u = tf.random_ps_unitary(n_modes, 30 + n_modes)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 3))
    text = json.dumps(serialize.descriptor_set_to_json(d), default=serialize.plain)
    reloaded = serialize.json_to_descriptor_set(json.loads(text))
    assert reloaded._witness is not d._witness
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    witness, residual = dsc.reconstruct_with_residual(d)
    assert len(intertwiners) == 1 and witness is not u
    # the same set read back from JSON, whose gate built its own witness,
    # reconstructs bitwise the same: the result depends on the matrices alone
    again, again_residual = dsc.reconstruct_with_residual(reloaded)
    assert witness.matrix.tobytes() == again.matrix.tobytes()
    assert residual == again_residual > 0.0
    # with RECONSTRUCT_TOL below the residual, the round trip is refused
    monkeypatch.setattr(dsc, "RECONSTRUCT_TOL", residual / 2)
    with pytest.raises(ValidationError) as err:
        dsc._intertwiner(d.matrices(), n_modes)
    assert err.value.code == "degenerate_reconstruction"
    assert err.value.args[0] == f"assembled witness fails the round trip (residual {residual:.3e})"


def full_sets(n_modes: int):
    """Full sets evolved by a Haar and a named-gate unitary, and the canonical one."""
    psi0 = random_sector_state(n_modes, n_modes)
    full = ModeSet.full(n_modes)
    yield dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 70 + n_modes), full, psi0)
    gate = tf.named_gate("tunneling", n_modes, modes=(n_modes - 1, 0), theta=0.9)
    yield dsc.evolve_descriptors(gate, full, psi0)
    yield dsc.canonical_descriptors(full, psi0)


def dense_projector(d: dsc.DescriptorSet) -> np.ndarray:
    """The dense 2^N x 2^N product of the d_a d_a^dag: for CAR descriptors, the projector onto V_d."""
    vac = np.eye(2 ** d.n_modes, dtype=complex)
    for m in d.matrices().values():
        vac = vac @ (m @ m.conj().T)
    return vac


def projector_vacuum(d: dsc.DescriptorSet) -> np.ndarray:
    """The even eigenvector of the dense projector of a full set; the one-vector oracle."""
    even = fock.parity_sectors(d.n_modes)[0]
    evals, evecs = np.linalg.eigh(dense_projector(d)[np.ix_(even, even)])
    assert np.count_nonzero(evals > 0.5) == 1
    vector = np.zeros(2 ** d.n_modes, dtype=complex)
    vector[even] = evecs[:, -1]
    return vector


def family_empty(d: dsc.DescriptorSet) -> np.ndarray:
    """Which Fock states have every mode of the set's family empty."""
    mask = sum(1 << (d.n_modes - 1 - a) for a in d.subsystem.indices)
    return (np.arange(2 ** d.n_modes) & mask) == 0


@pytest.mark.parametrize("n_modes", range(2, 9))
def test_one_vector_vacuum_matches_the_projector_eigenvector(n_modes):
    for d in full_sets(n_modes):
        vacuum = dsc._joint_vacuum(d.matrices(), n_modes, family_empty(d))
        assert vacuum.shape == (2 ** n_modes, 1)
        oracle = projector_vacuum(d)
        overlap = np.vdot(oracle, vacuum[:, 0])
        assert fock.frobenius(vacuum[:, 0] - overlap / abs(overlap) * oracle) <= 1e-12


def families(n_modes: int):
    """Full and proper families of evolved, named-gate and canonical sets."""
    parts = {
        tuple(range(n_modes)), (0,), (n_modes - 1,), tuple(range(1, n_modes)),
        tuple(range(0, n_modes, 2)),
    }
    for d in full_sets(n_modes):
        for part in sorted(parts):
            yield dsc.ontic_project(d, ModeSet(part, n_modes))


@pytest.mark.parametrize("n_modes", range(2, 9))
def test_joint_vacuum_spans_the_projector_eigenspace(n_modes):
    # the oracle is the dense projector: for these CAR families its eigenvalues
    # are 0 and 1, so it is the projector onto its eigenspace above one half
    parity = fock._parity_diagonal(n_modes).real
    for d in families(n_modes):
        empty = family_empty(d)
        x_d = dsc._joint_vacuum(d.matrices(), n_modes, empty)
        assert x_d.shape == (2 ** n_modes, np.count_nonzero(empty))
        projector = dense_projector(d)
        column_parity = parity[empty]  # of each column's family-empty state
        for sign in (1.0, -1.0):
            rows, cols = parity == sign, column_parity == sign
            assert not x_d[np.ix_(~rows, cols)].any()
            q = x_d[np.ix_(rows, cols)]
            assert fock.frobenius(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
            assert fock.frobenius(q @ q.conj().T - projector[np.ix_(rows, rows)]) <= 1e-12


def logging_products(ops, shapes: list) -> None:
    """Make each operator's matrix log the shape of every product it enters."""

    class ProductLog(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(xs):
                return tuple(x.view(np.ndarray) if isinstance(x, ProductLog) else x for x in xs)

            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            out = getattr(ufunc, method)(*plain(inputs), **kwargs)
            if ufunc is np.matmul:
                shapes.append(out.shape)
            return out.view(ProductLog) if isinstance(out, np.ndarray) else out

    for op in ops:
        object.__setattr__(op, "matrix", op.matrix.view(ProductLog))


@pytest.mark.parametrize("n_modes", [2, 5, 8])
def test_full_sets_reconstruct_and_read_without_the_dense_projector(monkeypatch, n_modes):
    # and bare proper sets build their witness and read their state without it
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    dim = 2 ** n_modes
    for d in full_sets(n_modes):
        shapes = []
        logging_products(d.descriptors, shapes)
        assert dsc.reconstruct_with_residual(d)[1] <= dsc.RECONSTRUCT_TOL
        state = dsc.phenomenal_of(d)
        assert shapes and (dim, dim) not in shapes
        assert np.abs(state.matrix - projector_phenomenal(d)).max() <= 1e-14
        for part in ((n_modes - 1,), tuple(range(0, n_modes, 2))):
            subsystem = ModeSet(part, n_modes)
            ops = tuple(fock.FockOperator(n_modes, d.matrices()[a]) for a in part)
            shapes = []
            logging_products(ops, shapes)
            bare = dsc.DescriptorSet(subsystem, ops, d.heisenberg_state)
            assert bare._witness[1] <= dsc.RECONSTRUCT_TOL
            state = dsc.phenomenal_of(bare)
            assert shapes and (dim, dim) not in shapes
            assert np.abs(state.matrix - projector_phenomenal(bare)).max() <= 1e-14
    assert eighs == []


@pytest.mark.parametrize(
    "family",
    [
        (fock.creator(2, 0), fock.annihilator(2, 1)),
        (0.5 * fock.annihilator(2, 0), fock.annihilator(2, 1)),
    ],
    ids=["particle_hole", "scaled"],
)
def test_full_families_without_an_even_vacuum_keep_their_refusal(monkeypatch, family):
    # the joint vacuum of {f_0^dag, f_1} is the odd |10>, so the even block
    # projects to zero; that of {f_0 / 2, f_1} keeps a quarter of |00>, and
    # the second R's diagonal, below one half, names both refusals
    vacua = count_calls(monkeypatch, dsc, "_joint_vacuum")
    with pytest.raises(ValidationError) as err:
        dsc.DescriptorSet(ModeSet.full(2), family, fock.vacuum_state(2))
    assert (err.value.code, err.value.args[0]) == (
        "descriptor_algebra",
        "descriptor set has no parity-preserving witness ([degenerate_reconstruction] "
        "the descriptors' joint vacuum has 0 even states, the canonical one 1)",
    )
    assert len(vacua) == 1


def test_library_images_come_from_the_sector_kernel(monkeypatch):
    n_modes = 4
    full = ModeSet.full(n_modes)
    u = tf.random_ps_unitary(n_modes, 21)
    w = tf.local_random_ps_unitary(ModeSet((1, 2), n_modes), 22)
    kernels = count_calls(monkeypatch, tf, "_sector_image")
    d = dsc.evolve_descriptors(u, full, fock.vacuum_state(n_modes))
    assert len(kernels) == n_modes
    dsc.reconstruct_with_residual(d)  # the round trip's images
    assert len(kernels) == 2 * n_modes
    dsc.ontic_apply(w, d)  # two moved images; the lift's unmoved residual is bounded
    assert len(kernels) == 2 * n_modes + 2
    assert dsc.equivalent_at(u, u, full)
    assert len(kernels) == 4 * n_modes + 2


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


@pytest.mark.parametrize("part", [(0, 1, 2, 3), (0, 1, 3)], ids=["full", "proper"])
def test_evolved_sets_and_their_derivations_build_no_witness(monkeypatch, part):
    n_modes = 4
    intertwiners = count_calls(monkeypatch, dsc, "_intertwiner")
    u = tf.random_ps_unitary(n_modes, 69)
    d = dsc.evolve_descriptors(u, ModeSet(part, n_modes), random_sector_state(n_modes, 9))
    assert d._witness[0] is u and d._witness[1] == 0.0
    w = tf.local_random_ps_unitary(ModeSet((1, 3), n_modes), 70)
    applied = dsc.ontic_apply(w, d)
    restricted = dsc.ontic_project(d, ModeSet((1, 3), n_modes))
    dsc.ontic_apply(w, restricted)
    d_a = dsc.ontic_project(d, ModeSet((0,), n_modes))
    d_b = dsc.ontic_project(d, ModeSet(part[1:], n_modes))
    assert dsc.compatible(d_a, d_b)
    assert dsc.join(d_a, d_b).subsystem == d.subsystem
    assert dsc.compatible(d_a, dsc.ontic_project(d, ModeSet((1,), n_modes)))
    joined = dsc.join(*(dsc.ontic_project(applied, ModeSet(p, n_modes)) for p in ((0,), part[1:])))
    assert joined._witness is applied._witness
    assert intertwiners == []


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


def test_ontic_apply_frames_the_set_s_own_witness(monkeypatch):
    n_modes = 4
    d = dsc.canonical_descriptors(ModeSet((0, 1, 3), n_modes), random_sector_state(n_modes, 14))
    w = tf.local_random_ps_unitary(ModeSet((1, 3), n_modes), 15)
    projections = count_calls(monkeypatch, dsc, "ontic_project")
    assembled = count_calls(monkeypatch, dsc, "_assembled")
    applied = dsc.ontic_apply(w, d)
    # no restriction set is built to read a witness: the set's own is the frame's
    assert projections == [] and len(assembled) == 1
    frame, eps = applied._witness
    product = (w @ d._witness[0]).matrix
    assert fock.frobenius(frame.matrix - product) <= 1e-14 * fock.frobenius(product)
    assert eps >= dsc._witness_residual(frame, {0: d.descriptors[0].matrix})


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


def test_ontic_apply_builds_no_dense_ladder(monkeypatch):
    n_modes = 8
    psi0 = random_sector_state(n_modes, 4)
    d = dsc.evolve_descriptors(tf.random_ps_unitary(n_modes, 4), ModeSet.full(n_modes), psi0)
    w = tf.local_random_ps_unitary(ModeSet((1, 4, 6), n_modes), 9)
    ladders = [count_calls(monkeypatch, module, "_annihilator_matrix") for module in (fock, algebra)]
    dsc.ontic_apply(w, d)
    assert ladders == [[], []]


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
    product of the d_a d_a^dag is formed as a 2^N x 2^N matrix.  The result
    is validated in full, so each comparison also shows that
    ``phenomenal_of``, which checks only the trace, returns a state.
    """
    modes = d.subsystem.indices
    m = len(modes)
    desc = d.matrices()
    vac = dense_projector(d)
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
    states.PhenomenalState(d.subsystem, gamma)
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


def test_images_at_the_mode_cap_build_no_dense_ladder(monkeypatch):
    """Evolving and reconstructing at N=10 builds no 16 MB dense ladder."""
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    n_modes = fock.DEFAULT_MODE_CAP
    u = tf.random_ps_unitary(n_modes, 5)
    ladders = [count_calls(monkeypatch, module, "_annihilator_matrix") for module in (fock, algebra)]
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), fock.vacuum_state(n_modes))
    assert dsc.reconstruct_with_residual(d)[1] <= dsc.RECONSTRUCT_TOL
    assert ladders == [[], []]


def test_full_set_jobs_at_mode_cap(monkeypatch):
    """Each full-set job at N=10 ends within 10 s.

    On 2 vCPUs they take 0.15-0.45, 0.3-0.55, 0.0, 0.0 and 0.065-0.08 s; the
    last, ``ontic_apply`` of a lift, folds its frame from the lift's factor
    (0.29-0.34 s with the dense support, product and residual images).
    """
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


@pytest.mark.parametrize("n_modes", range(2, 8))
def test_a_folded_frame_carries_bounds_above_its_measured_defects(n_modes):
    u = tf.random_ps_unitary(n_modes, 90 + n_modes)
    psi0 = random_sector_state(n_modes, 91 + n_modes)
    full = ModeSet.full(n_modes)
    applied_sets = 0
    for lift in lift_cases(n_modes):
        moved = tf.invariance_support(lift)
        extra = moved.complement().indices[:1]
        for tracked in {moved, ModeSet.of(moved.indices + extra, n_modes), full}:
            if moved.is_empty:
                continue
            sets = (dsc.evolve_descriptors(u, tracked, psi0),
                    dsc.ontic_project(dsc.evolve_descriptors(u, full, psi0), tracked))
            for d in sets:
                frame, eps = dsc.ontic_apply(lift, d)._witness
                product = (lift @ d._witness[0]).matrix
                assert fock.frobenius(frame.matrix - product) <= 1e-14 * fock.frobenius(product)
                measured = tf._sectors_defect(frame.blocks)
                assert frame.defect >= measured
                unmoved = {a: m for a, m in d.matrices().items() if a not in moved}
                assert eps >= dsc._witness_residual(frame, unmoved)
                assert max(frame.defect, eps) <= 1e-11
                applied_sets += 1
    assert applied_sets >= 10


def test_ontic_apply_of_a_lift_forms_no_dense_product(monkeypatch):
    n_modes = 6
    u = tf.random_ps_unitary(n_modes, 92)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 93))
    w = tf.local_random_ps_unitary(ModeSet((1, 3, 4), n_modes), 94)
    products = count_calls(monkeypatch, tf.PSUnitary, "__matmul__")
    defects = count_calls(monkeypatch, tf, "_block_defect")
    kernels = count_calls(monkeypatch, tf, "_sector_image")
    norms = []
    frobenius = tf.frobenius
    monkeypatch.setattr(tf, "frobenius", lambda a: norms.append(a.size) or frobenius(a))
    applied = dsc.ontic_apply(w, d)
    assert products == [] and defects == []
    assert sorted(args[1] for args in kernels) == [1, 3, 4]  # one image per moved mode
    assert norms and max(norms) == 4 ** 3  # the support came from the factor
    composite = dsc.evolve_descriptors(w @ u, ModeSet.full(n_modes), d.heisenberg_state)
    assert max_descriptor_distance(applied, composite) <= 1e-12


def test_a_heisenberg_state_is_graded_once_per_vector(monkeypatch):
    n_modes = 4
    u = tf.random_ps_unitary(n_modes, 95)
    psi0 = random_sector_state(n_modes, 96)
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    dsc.evolve_descriptors(u, ModeSet((1, 2), n_modes), psi0)
    dsc.DescriptorSet(ModeSet((0,), n_modes), (fock.annihilator(n_modes, 0),), psi0)
    assert [args[0] is psi0.amplitudes for args in grades].count(True) == 1
    mixed = fock.FockVector(n_modes, np.full(2 ** n_modes, 0.25, dtype=complex))
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(ValidationError) as err:
            dsc.evolve_descriptors(u, ModeSet((0,), n_modes), mixed)
        assert err.value.code == "ssr_violation"


def test_heisenberg_images_skip_the_array_rule(monkeypatch):
    n_modes = 4
    u = tf.random_ps_unitary(n_modes, 97)
    psi0 = random_sector_state(n_modes, 98)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
    lift = tf.local_random_ps_unitary(ModeSet((0, 2), n_modes), 99)
    rules = count_calls(monkeypatch, fock, "checked_array")
    results = (
        dsc.evolve_descriptors(u, ModeSet((1, 3), n_modes), psi0),
        dsc.ontic_apply(lift, d),
        dsc.ontic_apply(tf.random_ps_unitary(n_modes, 100), d),
    )
    assert rules == []
    for x in (x for r in results for x in r.descriptors):
        assert not x.matrix.flags.writeable


def test_the_residual_bound_covers_a_subsystem_mode_the_lift_leaves_unmoved():
    # a lift on modes (1, 3) that moves mode 1 and turns mode 3 by 1e-13,
    # below the support rule's threshold: mode 3 keeps its descriptor, and
    # the bound must cover its commutator, which is not exactly 0
    n_modes = 4
    sub = ModeSet((1, 3), n_modes)
    small = np.diag(np.exp(1j * np.array([0.0, 1e-13, 1.0, 1.0 + 1e-13])))
    lift = tf._lifted(small, tf._block_defect(small), sub)
    assert tf.invariance_support(lift) == ModeSet((1,), n_modes)
    u = tf.random_ps_unitary(n_modes, 101)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 102))
    frame, eps = dsc.ontic_apply(lift, d)._witness
    unmoved = {a: m for a, m in d.matrices().items() if a != 1}
    measured = dsc._witness_residual(frame, unmoved)
    assert measured > 1e-14  # mode 3's turn, well above the bound's other terms
    assert eps >= measured
