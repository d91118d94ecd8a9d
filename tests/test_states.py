"""State validation, the two partial-trace routes, products, expectations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from oracles import MonomialBasis
from fermidesc import algebra, descriptors as dsc, fock, states
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.transformations import random_ps_unitary
from fermidesc.verification import random_phenomenal, random_sector_state


def brute_force_partial_trace(state: states.PhenomenalState, keep: ModeSet) -> np.ndarray:
    """Third, slowest route: explicit monomial matrices and HS inner products.

    Expands the state over the full monomial basis ordered (keep, rest) by
    multiplying actual ladder matrices, keeps the components with matching
    complement patterns, and assembles the small matrix by label.
    """
    n = state.n_modes
    keep_pos = keep.positions_in(state.subsystem)
    rest_pos = tuple(i for i in range(n) if i not in keep_pos)
    m = len(keep_pos)
    dim_small = 2 ** m
    out = np.zeros((dim_small, dim_small), dtype=complex)

    def creators(pattern_positions):
        op = np.eye(2 ** n, dtype=complex)
        for pos in pattern_positions:
            op = op @ fock.creator(n, pos).matrix
        return op

    vac = fock.vacuum_state(n).projector().matrix
    for l_bits in range(dim_small):
        l_occ = tuple(keep_pos[i] for i in range(m) if (l_bits >> (m - 1 - i)) & 1)
        for p_bits in range(dim_small):
            p_occ = tuple(keep_pos[i] for i in range(m) if (p_bits >> (m - 1 - i)) & 1)
            acc = 0.0 + 0.0j
            for r in range(2 ** len(rest_pos)):
                u_occ = tuple(
                    rest_pos[i]
                    for i in range(len(rest_pos))
                    if (r >> (len(rest_pos) - 1 - i)) & 1
                )
                element = creators(l_occ + u_occ) @ vac @ creators(p_occ + u_occ).conj().T
                acc += np.vdot(element, state.matrix)
            out[l_bits, p_bits] = acc
    return out


def test_validation_examples():
    forbidden = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    with pytest.raises(ValidationError) as err:
        states.PhenomenalState(ModeSet.full(1), forbidden)
    assert err.value.code == "ssr_violation"

    vac = fock.vacuum_state(2).projector().matrix
    assert states.PhenomenalState(ModeSet.full(2), vac).n_modes == 2

    mix = 0.5 * vac + 0.5 * fock.fock_basis_state(2, [1, 1]).projector().matrix
    states.PhenomenalState(ModeSet.full(2), mix)


def test_validation_error_codes_distinct():
    with pytest.raises(ValidationError) as err:
        states.PhenomenalState(ModeSet.full(1), np.array([[1, 1j], [1j, 0]]))
    assert err.value.code == "not_hermitian"
    with pytest.raises(ValidationError) as err:
        states.PhenomenalState(ModeSet.full(1), np.diag([0.9, 0.0]).astype(complex))
    assert err.value.code == "not_trace_one"
    with pytest.raises(ValidationError) as err:
        states.PhenomenalState(ModeSet.full(1), np.diag([1.5, -0.5]).astype(complex))
    assert err.value.code == "not_positive"


def test_partial_trace_bell_like_example():
    psi = (
        fock.fock_basis_state(2, [0, 1]).amplitudes
        + fock.fock_basis_state(2, [1, 0]).amplitudes
    ) / np.sqrt(2)
    rho = states.PhenomenalState(ModeSet.full(2), np.outer(psi, psi.conj()))
    reduced = states.partial_trace(rho, ModeSet((0,), 2))
    assert np.allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-12)


@pytest.mark.parametrize("trace", [states.partial_trace, states.partial_trace_jw])
def test_partial_traces_refuse_modes_of_another_system(trace):
    rho = random_phenomenal(2, 4)
    with pytest.raises(ValidationError) as err:
        trace(rho, ModeSet((0,), 5))
    assert err.value.code == "dimension_mismatch"


def test_partial_trace_keep_everything_is_identity_map():
    rho = random_phenomenal(3, 1)
    same = states.partial_trace(rho, ModeSet.full(3))
    assert np.array_equal(same.matrix, rho.matrix)


def looped_mode_sort_permutation(n: int, front_positions: tuple[int, ...]) -> np.ndarray:
    """Reference: the signed permutation matrix, one basis state at a time."""
    order = list(front_positions) + [i for i in range(n) if i not in front_positions]
    new_label = {old: new for new, old in enumerate(order)}
    r = np.zeros((2 ** n, 2 ** n))
    for old_index in range(2 ** n):
        mapped = [new_label[pos] for pos in range(n) if (old_index >> (n - 1 - pos)) & 1]
        inversions = sum(
            1 for i in range(len(mapped)) for j in range(i + 1, len(mapped)) if mapped[i] > mapped[j]
        )
        new_index = sum(1 << (n - 1 - label) for label in mapped)
        r[new_index, old_index] = -1 if inversions % 2 else 1
    return r


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_mode_sort_permutation_matches_loop(n_modes):
    rng = np.random.default_rng(n_modes)
    for size in range(n_modes + 1):
        front = tuple(int(i) for i in rng.permutation(n_modes)[:size])
        src, sign = states.mode_sort_permutation(n_modes, front)
        r = np.zeros((2 ** n_modes, 2 ** n_modes))
        r[np.arange(2 ** n_modes), src] = sign
        assert np.array_equal(r, looped_mode_sort_permutation(n_modes, front))


def looped_partial_trace(state: states.PhenomenalState, keep: ModeSet) -> np.ndarray:
    """Reference: the monomial-matching rule one matrix entry at a time."""
    n = state.n_modes
    keep_pos = keep.positions_in(state.subsystem)
    comp_pos = tuple(i for i in range(n) if i not in keep_pos)
    m, s = len(keep_pos), len(comp_pos)
    comp_patterns = [
        tuple(pos for i, pos in enumerate(comp_pos) if (u >> (s - 1 - i)) & 1) for u in range(2 ** s)
    ]
    keep_patterns = [
        tuple(pos for i, pos in enumerate(keep_pos) if (l >> (m - 1 - i)) & 1) for l in range(2 ** m)
    ]

    def merge_sign(keep_occ, comp_occ) -> int:
        inversions = sum(1 for k in keep_occ for c in comp_occ if k > c)
        return -1 if inversions % 2 else 1

    def global_index(keep_occ, comp_occ) -> int:
        occupied = set(keep_occ) | set(comp_occ)
        return sum(1 << (n - 1 - pos) for pos in occupied)

    out = np.zeros((2 ** m, 2 ** m), dtype=complex)
    for l in range(2 ** m):
        for p in range(2 ** m):
            acc = 0.0 + 0.0j
            for u in range(2 ** s):
                sign = merge_sign(keep_patterns[l], comp_patterns[u]) * merge_sign(
                    keep_patterns[p], comp_patterns[u]
                )
                acc += sign * state.matrix[
                    global_index(keep_patterns[l], comp_patterns[u]),
                    global_index(keep_patterns[p], comp_patterns[u]),
                ]
            out[l, p] = acc
    return out


def _signed_zero_state(n_modes: int) -> states.PhenomenalState:
    """A unit-trace matrix whose other entries are mostly +0.0 or -0.0 in each part.

    A sum of zeros started from +0.0 is +0.0 however its terms are signed.
    """
    rng = np.random.default_rng(70 + n_modes)
    dim = 2 ** n_modes
    parts = [np.where(rng.random((dim, dim)) < 0.5, -0.0, 0.0) for _ in range(2)]
    m = parts[0] + 1j * parts[1]
    m[rng.random((dim, dim)) < 0.3] = -1.0 + 0.5j
    np.fill_diagonal(m, 1.0 / dim)
    return states.PhenomenalState._trusted(ModeSet.full(n_modes), m)


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_partial_trace_matches_loop_bitwise(n_modes):
    for rho in (random_phenomenal(n_modes, 40 + n_modes), _signed_zero_state(n_modes)):
        for size in range(1, n_modes):
            for keep in itertools.combinations(range(n_modes), size):
                reduced = states.partial_trace(rho, ModeSet(keep, n_modes)).matrix
                looped = looped_partial_trace(rho, ModeSet(keep, n_modes))
                assert reduced.tobytes() == looped.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_partial_trace_routes_agree(seed):
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(2, 5))
    rho = random_phenomenal(n_modes, seed + 100)
    size = int(rng.integers(1, n_modes))
    keep = ModeSet(tuple(sorted(rng.choice(n_modes, size=size, replace=False))), n_modes)
    a = states.partial_trace(rho, keep)
    b = states.partial_trace_jw(rho, keep)
    c = brute_force_partial_trace(rho, keep)
    assert fock.frobenius(a.matrix - b.matrix) < 1e-12
    assert fock.frobenius(a.matrix - c) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_partial_trace_defining_property(seed):
    # reduced-state expectations match embedded-observable expectations
    rng = np.random.default_rng(seed)
    n_modes = 4
    rho = random_phenomenal(n_modes, seed + 50)
    size = int(rng.integers(1, n_modes))
    keep = ModeSet(tuple(sorted(rng.choice(n_modes, size=size, replace=False))), n_modes)
    reduced = states.partial_trace(rho, keep)

    # a random Hermitian parity-even observable on the kept modes; the small
    # matrix's entries double as its monomial coefficients under embedding
    basis = MonomialBasis.of(keep)
    dim_small = 2 ** len(keep)
    small = np.zeros((dim_small, dim_small), dtype=complex)
    for k, (l_pat, p_pat) in enumerate(basis.labels):
        if (sum(l_pat) + sum(p_pat)) % 2 == 0:
            small[k // dim_small, k % dim_small] = rng.standard_normal()
    small = (small + small.conj().T) / 2
    observable_small = fock.FockOperator(len(keep), small)
    embedded = algebra.embed_local_operator(small, keep)

    lhs = states.expectation(reduced, observable_small)
    rhs = states.expectation(rho, embedded)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_trace_monotone_and_preserving(seed):
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(3, 6))
    rho = random_phenomenal(n_modes, seed)
    big = int(rng.integers(2, n_modes))
    j_set = ModeSet(tuple(sorted(rng.choice(n_modes, size=big, replace=False))), n_modes)
    small = int(rng.integers(1, big))
    k_set = ModeSet(tuple(sorted(rng.choice(j_set.indices, size=small, replace=False))), n_modes)

    via_j = states.partial_trace(states.partial_trace(rho, j_set), k_set)
    direct = states.partial_trace(rho, k_set)
    assert fock.frobenius(via_j.matrix - direct.matrix) < 1e-10
    assert abs(np.trace(direct.matrix) - 1.0) < 1e-10


def test_product_state_examples():
    vac0 = states.PhenomenalState(ModeSet((0,), 2), np.diag([1.0, 0.0]).astype(complex))
    vac1 = states.PhenomenalState(ModeSet((1,), 2), np.diag([1.0, 0.0]).astype(complex))
    both = states.product_state(vac0, vac1)
    assert np.allclose(both.matrix, fock.vacuum_state(2).projector().matrix, atol=1e-12)

    mixed = states.PhenomenalState(ModeSet((0,), 2), np.diag([0.5, 0.5]).astype(complex))
    occ = states.PhenomenalState(ModeSet((1,), 2), np.diag([0.0, 1.0]).astype(complex))
    prod = states.product_state(mixed, occ)
    assert np.allclose(np.diag(prod.matrix).real, [0.0, 0.5, 0.0, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_product_state_marginals_round_trip(seed):
    rng = np.random.default_rng(seed)
    n_modes = 4
    all_modes = list(range(n_modes))
    rng.shuffle(all_modes)
    split = int(rng.integers(1, n_modes))
    sub_a = ModeSet.of(all_modes[:split], n_modes)
    sub_b = ModeSet.of(all_modes[split:], n_modes)

    def random_state_on(subset, s):
        inner = random_phenomenal(len(subset), s)
        return states.PhenomenalState(subset, inner.matrix)

    a = random_state_on(sub_a, seed * 2 + 11)
    b = random_state_on(sub_b, seed * 2 + 12)
    prod = states.product_state(a, b)
    back_a = states.partial_trace(prod, sub_a)
    back_b = states.partial_trace(prod, sub_b)
    assert fock.frobenius(back_a.matrix - a.matrix) < 1e-10
    assert fock.frobenius(back_b.matrix - b.matrix) < 1e-10


def ambient_product_oracle(a: states.PhenomenalState, b: states.PhenomenalState) -> np.ndarray:
    """The ambient construction: lift both states, wedge them, compress onto the union."""
    lift_a = algebra.embed_local_operator(a.matrix, a.subsystem)
    lift_b = algebra.embed_local_operator(b.matrix, b.subsystem)
    joint = algebra.wedge(lift_a, a.subsystem, lift_b, b.subsystem)
    return algebra.compress_local_operator(joint, a.subsystem.union(b.subsystem))


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_product_state_matches_ambient_construction(n_modes):
    subsets = [
        ModeSet(s, n_modes)
        for size in range(1, n_modes)
        for s in itertools.combinations(range(n_modes), size)
    ]
    pairs = [(x, y) for x in subsets for y in subsets if x.is_disjoint(y)]
    for k, (sub_a, sub_b) in enumerate(pairs):
        a = states.PhenomenalState(sub_a, random_phenomenal(len(sub_a), 2 * k).matrix)
        b = states.PhenomenalState(sub_b, random_phenomenal(len(sub_b), 2 * k + 1).matrix)
        prod = states.product_state(a, b)
        assert prod.subsystem == sub_a.union(sub_b)
        assert np.abs(prod.matrix - ambient_product_oracle(a, b)).max() <= 1e-14


def test_product_state_rejects_overlap():
    a = states.PhenomenalState(ModeSet((0,), 2), np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError) as err:
        states.product_state(a, a)
    assert err.value.code == "overlapping_subsystems"


def test_expectation_examples():
    vac = states.PhenomenalState(ModeSet.full(1), np.diag([1.0, 0.0]).astype(complex))
    occ = states.PhenomenalState(ModeSet.full(1), np.diag([0.0, 1.0]).astype(complex))
    number = fock.creator(1, 0) @ fock.annihilator(1, 0)
    assert states.expectation(vac, number) == pytest.approx(0.0)
    assert states.expectation(occ, number) == pytest.approx(1.0)
    with pytest.raises(ValidationError) as err:
        states.expectation(vac, fock.annihilator(1, 0) + fock.creator(1, 0))
    assert err.value.code == "ssr_violation"


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_partial_trace_preserves_ssr_and_trace(n_modes):
    # the library trusts these outputs, so each is validated in full here
    for seed in range(4):
        rho = random_phenomenal(n_modes, seed)
        states.PhenomenalState(rho.subsystem, rho.matrix)
        for size in range(1, n_modes):
            keep = ModeSet(tuple(range(size)), n_modes)
            for reduce in (states.partial_trace, states.partial_trace_jw):
                kept, rest = reduce(rho, keep), reduce(rho, keep.complement())
                for out in (kept, rest, states.product_state(kept, rest)):
                    states.PhenomenalState(out.subsystem, out.matrix)
                    assert abs(np.trace(out.matrix) - 1.0) < 1e-10


def test_derived_states_are_not_validated_again(monkeypatch):
    n_modes = 4
    u = random_ps_unitary(n_modes, 3)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 2))
    keep, full = ModeSet((0, 2), n_modes), ModeSet.full(n_modes)
    spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    rho = random_phenomenal(n_modes, 4)
    derived = [rho, dsc.phenomenal_of(d), dsc.phenomenal_of(dsc.ontic_project(d, keep))]
    for reduce in (states.partial_trace, states.partial_trace_jw):
        derived += [reduce(rho, keep), reduce(rho, full)]
    derived.append(states.product_state(derived[-2], states.partial_trace(rho, keep.complement())))
    assert spectra == [] and grades == []
    for out in derived:
        states.PhenomenalState(out.subsystem, out.matrix)


def test_conjugated_states_stay_valid():
    # evolving by a superselected unitary preserves every invariant
    rho = random_phenomenal(3, 9)
    u = random_ps_unitary(3, 10)
    evolved = u.matrix @ rho.matrix @ u.matrix.conj().T
    states.PhenomenalState(ModeSet.full(3), evolved)


def test_trusted_state_checks_only_the_trace(monkeypatch):
    rho = random_phenomenal(3, 9)
    u = random_ps_unitary(3, 10)
    evolved = u.matrix @ rho.matrix @ u.matrix.conj().T
    spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    trusted = states.PhenomenalState._trusted(ModeSet.full(3), evolved.copy())
    assert spectra == [] and grades == []
    assert np.array_equal(trusted.matrix, states.PhenomenalState(ModeSet.full(3), evolved).matrix)
    assert not trusted.matrix.flags.writeable
    with pytest.raises(ValidationError) as err:
        states.PhenomenalState._trusted(ModeSet.full(3), 0.9 * evolved)
    assert err.value.code == "not_trace_one"
