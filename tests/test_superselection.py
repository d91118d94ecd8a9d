"""Superselection is load-bearing: what goes wrong without the parity rule.

The paper's abstract claims that "by following the rigorous use of the
parity superselection rule for fermions, we show how this construction
removes the usual difficulties that fermionic systems display in regard to
the definition of local states and local transformations".  The library
refuses every input that breaks the rule (``check_ssr_gatekeeping``), so
these controls build the forbidden objects as raw numpy arrays from the
library's ladders and show one difficulty each:

* local transformations: the parity-odd ``gamma_a = f_a + f_a^dag`` is
  unitary and supported on mode a, yet it maps every other mode's
  descriptor to its negative, so the descriptor model would call it
  non-local although no reduced state of the other modes moves;
* local states: a parity-superposed state's one-mode reduction depends on
  the Jordan-Wigner mode order, while that of a state of one parity is the
  same in every order, so ``partial_trace_jw`` is free of the convention.

Each control asserts the failure without the rule and the agreement with it.
"""

import itertools

import numpy as np
import pytest

from fermidesc import fock, states, transformations as tf
from fermidesc import verification as vf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet

MODE_COUNTS = range(2, 7)


def pure(n_modes: int, v: np.ndarray) -> states.PhenomenalState:
    return states.validate_phenomenal(ModeSet.full(n_modes), np.outer(v, v.conj()))


def other_subsets(n_modes: int, a: int):
    others = [b for b in range(n_modes) if b != a]
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            yield ModeSet(subset, n_modes)


@pytest.mark.parametrize("n_modes", MODE_COUNTS)
def test_an_odd_local_unitary_is_not_local_yet_signals_nothing(n_modes):
    a = n_modes // 2
    f_a = fock.annihilator(n_modes, a).matrix
    gamma = f_a + f_a.conj().T
    assert np.array_equal(gamma.conj().T @ gamma, np.eye(2 ** n_modes))
    with pytest.raises(ValidationError) as err:
        tf.PSUnitary(n_modes, gamma)
    assert err.value.code == "ssr_violation"
    even = tf.named_gate("phase", n_modes, modes=(a,), theta=0.7)
    psi = vf.random_sector_state(n_modes, 2 * n_modes).amplitudes
    before = pure(n_modes, psi)
    after_odd, after_even = pure(n_modes, gamma @ psi), pure(n_modes, even.matrix @ psi)
    for b in range(n_modes):
        if b == a:
            continue
        f_b = fock.annihilator(n_modes, b).matrix
        # without the rule: gamma^dag f_b gamma = -f_b, the largest residual there is
        residual = fock.frobenius(gamma.conj().T @ f_b @ gamma - f_b)
        assert residual == 2 * fock.frobenius(f_b)
        assert residual > vf.CHECK_TOLERANCES["locality_invariance"]
    # with it: an even unitary on mode a leaves every other descriptor alone
    assert vf.check_locality_invariance(even, ModeSet((a,), n_modes)).residual == 0.0
    # and neither moves a reduced state of the other modes
    for subset in other_subsets(n_modes, a):
        reduced = states.partial_trace_jw(before, subset).matrix
        for after in (after_odd, after_even):
            assert np.abs(states.partial_trace_jw(after, subset).matrix - reduced).max() <= 1e-12


def one_mode_reduction(psi: np.ndarray, order: tuple[int, ...], a: int) -> np.ndarray:
    """Mode a's reduced state, the qubit trace of psi written in Jordan-Wigner mode order ``order``."""
    n_modes = len(order)
    src, sign = states.mode_sort_permutation(n_modes, order)
    amplitudes = (sign * psi[src]).reshape((2,) * n_modes)
    rows = np.moveaxis(amplitudes, order.index(a), 0).reshape(2, -1)
    return rows @ rows.conj().T


def orders(n_modes: int, a: int):
    rest = tuple(b for b in range(n_modes) if b != a)
    return [tuple(range(n_modes)), tuple(reversed(range(n_modes))), (a,) + rest, rest + (a,)]


@pytest.mark.parametrize("n_modes", MODE_COUNTS)
def test_a_parity_superposed_state_s_reduction_depends_on_the_mode_order(n_modes):
    a, b = 0, n_modes - 1
    vacuum = fock.vacuum_state(n_modes).amplitudes
    occupied_b = fock.creator(n_modes, b).matrix @ vacuum
    # without the rule: (1 + f_a^dag) f_b^dag |0> / sqrt(2) puts mode a in |+>
    # when a comes before b in the order and in |-> when it comes after
    superposed = (occupied_b + fock.creator(n_modes, a).matrix @ occupied_b) / np.sqrt(2)
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    for order in orders(n_modes, a):
        expected = plus if order.index(a) < order.index(b) else minus
        assert np.abs(one_mode_reduction(superposed, order, a) - expected).max() <= 1e-15
    # with it: every order gives one reduced state of every mode, partial_trace_jw's
    for seed in (2 * n_modes, 2 * n_modes + 1):  # one even and one odd state
        psi = vf.random_sector_state(n_modes, seed).amplitudes
        for mode in range(n_modes):
            reduced = states.partial_trace_jw(pure(n_modes, psi), ModeSet((mode,), n_modes))
            for order in orders(n_modes, mode):
                difference = one_mode_reduction(psi, order, mode) - reduced.matrix
                assert np.abs(difference).max() <= 1e-12
