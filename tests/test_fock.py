"""Fock-space construction: exact anticommutation, sign conventions, basis maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidesc import fock, serialize, states, transformations
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet


def oracle_annihilator(n_modes: int, mode: int) -> np.ndarray:
    """Bit-arithmetic construction, independent of the tensor-product build.

    Acting on a basis state clears the mode's bit and picks up the parity of
    the occupations at lower-indexed modes.
    """
    dim = 2 ** n_modes
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        occ = [(b >> (n_modes - 1 - i)) & 1 for i in range(n_modes)]
        if occ[mode]:
            sign = (-1) ** sum(occ[:mode])
            m[b & ~(1 << (n_modes - 1 - mode)), b] = sign
    return m


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_ladder_matches_bit_arithmetic_oracle(n_modes):
    for mode in range(n_modes):
        built = fock.annihilator(n_modes, mode).matrix
        assert np.array_equal(built, oracle_annihilator(n_modes, mode))
        assert np.array_equal(
            fock.creator(n_modes, mode).matrix, oracle_annihilator(n_modes, mode).conj().T
        )


def string_annihilator(n_modes: int, mode: int) -> np.ndarray:
    """The string construction Z^(mode) (x) lower (x) I^(N-mode-1) as Kronecker products."""
    z, lower = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    out = np.eye(1)
    for factor in [z] * mode + [lower] + [np.eye(2)] * (n_modes - mode - 1):
        out = np.kron(out, factor)
    return out


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_ladder_columns_scatter_to_the_string_construction(n_modes):
    dim = 2 ** n_modes
    for mode in range(n_modes):
        partner, sign = fock.ladder_columns(n_modes, mode)
        scattered = np.zeros((dim, dim), dtype=complex)
        scattered[partner, np.arange(dim)] = sign
        assert np.array_equal(scattered, string_annihilator(n_modes, mode))
        assert np.array_equal(fock._annihilator_matrix(n_modes, mode), scattered)
        assert not partner.flags.writeable and not sign.flags.writeable


@pytest.mark.parametrize(
    "n_modes, mode, code",
    [(3, 3, "mode_out_of_range"), (3, -1, "mode_out_of_range"), (11, 0, "cap_exceeded")],
)
def test_ladder_columns_reject_bad_modes(monkeypatch, n_modes, mode, code):
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    with pytest.raises(ValidationError) as err:
        fock.ladder_columns(n_modes, mode)
    assert err.value.code == code


def test_dense_ladder_cache_is_bounded():
    assert fock._annihilator_matrix.cache_info().maxsize is not None


def test_every_kernel_cache_is_bounded():
    from fermidesc import algebra, descriptors, serialize, states, transformations, verification

    modules = (fock, algebra, states, transformations, descriptors, verification, serialize)
    caches = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert "fermidesc.fock._parity_diagonal" in caches
    assert [name for name, cache in caches.items() if cache.cache_info().maxsize is None] == []


def test_single_mode_annihilator_shape():
    m = fock.annihilator(1, 0).matrix
    assert np.array_equal(m, np.array([[0, 1], [0, 0]], dtype=complex))


def test_two_mode_signs():
    f1 = fock.annihilator(2, 1)
    v01 = fock.fock_basis_state(2, [0, 1]).amplitudes
    v11 = fock.fock_basis_state(2, [1, 1]).amplitudes
    assert np.array_equal(f1.matrix @ v01, fock.fock_basis_state(2, [0, 0]).amplitudes)
    assert np.array_equal(f1.matrix @ v11, -fock.fock_basis_state(2, [1, 0]).amplitudes)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_car_exact_on_construction(n_modes):
    eye = fock.identity(n_modes).matrix
    for i in range(n_modes):
        for j in range(n_modes):
            fi, fj = fock.annihilator(n_modes, i), fock.annihilator(n_modes, j)
            assert fock.frobenius(fock.anticommutator(fi, fj).matrix) == 0.0
            target = eye if i == j else np.zeros_like(eye)
            assert fock.frobenius(fock.anticommutator(fi, fj.dag()).matrix - target) == 0.0


def test_cross_anticommutator_is_zero_exactly():
    f0 = fock.annihilator(3, 0)
    f1d = fock.creator(3, 1)
    assert fock.frobenius(fock.anticommutator(f0, f1d).matrix) == 0.0


@pytest.mark.parametrize(
    "n_modes,expected",
    [(1, [1, -1]), (2, [1, -1, -1, 1])],
)
def test_parity_diagonal_values(n_modes, expected):
    assert np.array_equal(np.diag(fock.parity_operator(n_modes).matrix).real, expected)


def test_parity_is_involution():
    p = fock.parity_operator(4)
    assert np.array_equal((p @ p).matrix, fock.identity(4).matrix)


def test_parity_flips_annihilators():
    p = fock.parity_operator(3)
    for i in range(3):
        f = fock.annihilator(3, i)
        assert fock.frobenius((p @ f @ p + f).matrix) == 0.0


def test_vacuum_is_even_and_annihilated():
    vac = fock.vacuum_state(3)
    p = fock.parity_operator(3)
    assert np.array_equal(p.matrix @ vac.amplitudes, vac.amplitudes)
    for i in range(3):
        assert np.linalg.norm(fock.annihilator(3, i).matrix @ vac.amplitudes) == 0.0


def test_basis_state_from_creator_products():
    # build |occ> by multiplying creator matrices; compare with the direct map
    for n_modes in (2, 3):
        for index in range(2 ** n_modes):
            occ = fock.occupation_of(n_modes, index)
            v = fock.vacuum_state(n_modes).amplitudes
            for mode in reversed([i for i, o in enumerate(occ) if o]):
                v = fock.creator(n_modes, mode).matrix @ v
            assert np.array_equal(v, fock.fock_basis_state(n_modes, occ).amplitudes)


def test_creator_order_gives_sign():
    # f0+ f1+ |vac> = |11>, applying in the opposite order negates it
    v = fock.vacuum_state(2).amplitudes
    forward = fock.creator(2, 0).matrix @ (fock.creator(2, 1).matrix @ v)
    backward = fock.creator(2, 1).matrix @ (fock.creator(2, 0).matrix @ v)
    assert np.array_equal(forward, fock.fock_basis_state(2, [1, 1]).amplitudes)
    assert np.array_equal(backward, -forward)


def test_specific_basis_index():
    assert fock.basis_index(3, [0, 1, 0]) == 2
    assert np.argmax(np.abs(fock.fock_basis_state(3, [0, 1, 0]).amplitudes)) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_basis_index_round_trip(n_modes, data):
    occ = data.draw(st.lists(st.integers(0, 1), min_size=n_modes, max_size=n_modes))
    index = fock.basis_index(n_modes, occ)
    assert fock.occupation_of(n_modes, index) == tuple(occ)


def test_mode_out_of_range():
    with pytest.raises(ValidationError) as err:
        fock.annihilator(2, 2)
    assert err.value.code == "mode_out_of_range"


def test_mode_cap_guard(monkeypatch):
    with pytest.raises(ValidationError) as err:
        fock.annihilator(fock.mode_cap() + 1, 0)
    assert err.value.code == "cap_exceeded"
    monkeypatch.setenv(fock.MODE_CAP_ENV, "12")
    assert fock.mode_cap() == 12


# mode sets and occupations that break the index rules: repeated, unsorted or
# out-of-range modes, and values that are not ints or numpy integers
_BAD_INDEX_CASES = {
    "ModeSet-repeated": (lambda: ModeSet((1, 1), 3), "mode_out_of_range"),
    "ModeSet-decreasing": (lambda: ModeSet((2, 1), 3), "mode_out_of_range"),
    "ModeSet-too-large": (lambda: ModeSet((3,), 3), "mode_out_of_range"),
    "ModeSet-float": (lambda: ModeSet((1.5,), 3), "mode_out_of_range"),
    "ModeSet-str": (lambda: ModeSet(("1",), 3), "mode_out_of_range"),
    "ModeSet-bool": (lambda: ModeSet((True,), 3), "mode_out_of_range"),
    "ModeSet-float-ambient": (lambda: ModeSet((1,), 3.0), "mode_out_of_range"),
    "ModeSet.of-str": (lambda: ModeSet.of(["1", 0], 3), "mode_out_of_range"),
    "named_gate-float": (
        lambda: transformations.named_gate("phase", 3, modes=(1.5,), theta=0.3),
        "mode_out_of_range",
    ),
    "basis_index-float": (lambda: fock.basis_index(2, [1.0, 0]), "bad_occupation"),
    "basis_index-bool": (lambda: fock.basis_index(2, [True, 0]), "bad_occupation"),
    "basis_index-str": (lambda: fock.basis_index(2, ["1", 0]), "bad_occupation"),
    "basis_index-two": (lambda: fock.basis_index(2, [2, 0]), "bad_occupation"),
}


@pytest.mark.parametrize("build, code", _BAD_INDEX_CASES.values(), ids=_BAD_INDEX_CASES.keys())
def test_mode_and_occupation_rules(build, code):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == code


def test_modeset_invariants():
    assert ModeSet((np.int64(1),), np.int64(3)) == ModeSet((1,), 3)
    assert fock.basis_index(2, [np.int64(1), 0]) == 2
    ms = ModeSet.of([2, 0], 4)
    assert ms.indices == (0, 2)
    assert ms.complement().indices == (1, 3)
    assert ms.positions_in(ModeSet((0, 1, 2), 4)) == (0, 2)


def test_modeset_subset_needs_the_same_system():
    for call in (
        lambda: ModeSet((0,), 5).is_subset_of(ModeSet.full(2)),
        lambda: ModeSet((0,), 5).positions_in(ModeSet.full(2)),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == "dimension_mismatch"


def test_empty_modeset_only_from_complement():
    full = ModeSet.full(2)
    assert full.complement().is_empty
    with pytest.raises(ValidationError) as err:
        full.complement().require_nonempty()
    assert err.value.code == "empty_subsystem"


def test_operator_validation():
    with pytest.raises(ValidationError) as err:
        fock.FockOperator(2, np.eye(3))
    assert err.value.code == "dimension_mismatch"


def _with_entry(a, value):
    a = np.array(a, dtype=complex)
    a.flat[0] = value
    return a


# each value class and JSON entry point, given one non-finite entry
_NON_FINITE_CASES = {
    "FockOperator": lambda x: fock.FockOperator(1, _with_entry(np.eye(2), x)),
    "FockVector": lambda x: fock.FockVector(1, _with_entry([1, 0], x)),
    "PSUnitary": lambda x: transformations.PSUnitary(1, _with_entry(np.eye(2), x)),
    "validate_ps_unitary": lambda x: transformations.validate_ps_unitary(
        _with_entry(np.eye(2), x)
    ),
    "PhenomenalState": lambda x: states.PhenomenalState(
        ModeSet.full(1), _with_entry(np.diag([1, 0]), x)
    ),
    "json_to_state": lambda x: serialize.json_to_state(
        {"modes": [0], "ambient_n": 1, "matrix": [[[x, 0], [0, 0]], [[0, 0], [0, 0]]]}
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("build", _NON_FINITE_CASES.values(), ids=_NON_FINITE_CASES.keys())
def test_non_finite_entries_rejected(build, value):
    with pytest.raises(ValidationError) as err:
        build(value)
    assert err.value.code == "not_finite"


def test_parity_sectors_split_the_basis():
    for n in range(1, 6):
        even, odd = fock.parity_sectors(n)
        assert sorted([*even, *odd]) == list(range(2 ** n))
        assert list(even) == sorted(even) and list(odd) == sorted(odd)
        assert all(sum(fock.occupation_of(n, int(i))) % 2 == 0 for i in even)
        assert all(sum(fock.occupation_of(n, int(i))) % 2 == 1 for i in odd)
        # cached and shared, so read-only
        assert fock.parity_sectors(n) is fock.parity_sectors(n)
        assert not even.flags.writeable and not odd.flags.writeable


def test_operators_are_immutable():
    f = fock.annihilator(2, 0)
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 5.0
