"""Phenomenal states: parity-superselected density operators on mode subsets.

A state's matrix lives on the subsystem's own 2^m-dimensional Fock space;
the subsystem's ModeSet records where those modes sit in the ambient system.

Two independent reductions to a smaller mode set are provided:

* :func:`partial_trace` keeps, in the ladder-monomial expansion ordered
  (kept modes, complement modes), exactly the components whose complement
  occupation patterns match on both sides, with the reordering signs that
  the anticommutation relations dictate.
* :func:`partial_trace_jw` reorders the modes with a signed permutation so
  the kept modes come first, then takes an ordinary tensor-factor trace.

They implement the same map on parity-superselected states and are cross-
checked against each other in the test suite and the verification sweep.
Both, like every state the library derives, check only the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import ValidationError
from .fock import FockOperator, ModeSet, _check_n_modes, checked_array

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PhenomenalState:
    """Validated parity-superselected density operator on a mode subset.

    The constructor validates its matrix in full.  States derived from
    validated values go through :meth:`_trusted` instead.
    """

    subsystem: ModeSet
    matrix: np.ndarray

    def __post_init__(self):
        self.subsystem.require_nonempty()
        m = checked_array(self.matrix, len(self.subsystem), 2)
        algebra.require_hermitian(m, "density matrix")
        _require_trace_one(m)
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigs.min() < -PSD_TOL:
            raise ValidationError(
                "not_positive", f"minimum eigenvalue {eigs.min():.3e} below tolerance"
            )
        algebra.require_even(m, "density matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, subsystem: ModeSet, matrix: np.ndarray) -> "PhenomenalState":
        """A state the library derived from validated values; only the O(2^N) trace is checked.

        ``matrix`` is a complex array nothing else writes to, the image of
        validated, even states under a trace-preserving positive map, which
        keeps Hermiticity, positivity and the grade: ``U rho U^dag`` (also
        ``random_phenomenal``'s), ``partial_trace``, ``partial_trace_jw``,
        ``product_state``, and ``phenomenal_of`` of a set obeying the
        canonical relations.  The partial traces' cross-check, not this,
        catches a wrong reduction that is still a state.
        """
        _require_trace_one(matrix)
        matrix.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "subsystem", subsystem)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def n_modes(self) -> int:
        return len(self.subsystem)

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def as_operator(self) -> FockOperator:
        """The matrix as an operator on the subsystem's own Fock space."""
        return FockOperator(self.n_modes, self.matrix)


def _require_trace_one(m: np.ndarray) -> None:
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError("not_trace_one", f"trace is {tr:.6g}, expected 1")


def _occupation_bits(count: int) -> np.ndarray:
    """Row ``u`` holds the bits of ``u`` over ``count`` modes, most significant first."""
    return (np.arange(2 ** count)[:, None] >> np.arange(count - 1, -1, -1)) & 1


def partial_trace(state: PhenomenalState, keep: ModeSet) -> PhenomenalState:
    """Fermionic reduction of a state to the kept modes (monomial-matching rule).

    Kept pattern ``l`` and complement pattern ``u`` together occupy global
    basis state ``g[l, u]``.  Reordering the creators (kept modes first) into
    increasing mode order gives the sign ``(-1)^c[l, u]``, where ``c`` counts
    the (kept occupied, lower complement occupied) pairs.  Then
    ``out[l, p] = sum_u s[l, u] s[p, u] rho[g[l, u], g[p, u]]``, summed in
    order of ``u``.
    """
    keep.require_nonempty()
    n = state.n_modes
    positions = keep.positions_in(state.subsystem)
    keep_pos = np.array(positions)
    comp_pos = np.array([i for i in range(n) if i not in positions], dtype=int)
    m, s = len(keep_pos), len(comp_pos)
    if s == 0:
        return PhenomenalState._trusted(keep, state.matrix)

    kept_bits, comp_bits = _occupation_bits(m), _occupation_bits(s)
    g = (kept_bits @ (1 << (n - 1 - keep_pos)))[:, None] + comp_bits @ (1 << (n - 1 - comp_pos))
    pairs = kept_bits @ (keep_pos[:, None] > comp_pos[None, :]) @ comp_bits.T
    sign = 1 - 2 * (pairs & 1)

    rows, signs = np.ascontiguousarray(g.T), np.ascontiguousarray(sign.T)
    terms = state.matrix[rows[:, :, None], rows[:, None, :]]  # every block at once
    terms *= signs[:, :, None] * signs[:, None, :]
    out = np.zeros((2 ** m, 2 ** m), dtype=complex)  # from +0.0 in order of u; a reduce may pair
    for term in terms:
        out += term
    return PhenomenalState._trusted(keep, out)


def mode_sort_permutation(
    state_modes: int, front_positions: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutation moving the given mode positions to the front.

    Basis states map to basis states times the parity of the permutation
    restricted to their occupied modes, which is exactly how a relabelling
    of fermionic modes acts on the Fock basis.  Returned as ``(src, sign)``:
    reordered basis state ``k`` is ``sign[k]`` times original state
    ``src[k]``.
    """
    return algebra._mode_reorder(tuple(int(i) for i in front_positions), state_modes)


def partial_trace_jw(state: PhenomenalState, keep: ModeSet) -> PhenomenalState:
    """Independent reduction: signed mode reordering + tensor-factor trace."""
    keep.require_nonempty()
    n = state.n_modes
    keep_pos = keep.positions_in(state.subsystem)
    m = len(keep_pos)
    if m == n:
        return PhenomenalState._trusted(keep, state.matrix)
    src, sign = mode_sort_permutation(n, keep_pos)
    reordered = sign[:, None] * state.matrix[np.ix_(src, src)] * sign[None, :]
    dk, dc = 2 ** m, 2 ** (n - m)
    reduced = np.trace(reordered.reshape(dk, dc, dk, dc), axis1=1, axis2=3)
    return PhenomenalState._trusted(keep, reduced)


def product_state(a: PhenomenalState, b: PhenomenalState) -> PhenomenalState:
    """Un-entangled composition of states on disjoint subsystems.

    Each state is lifted into the union's own Fock space, at its modes'
    positions in the union, by the one lift kernel: folding both into the
    identity in turn leaves the product of the two lifts, with no dense
    product taken.  Marginals recover the inputs.
    """
    if not a.subsystem.is_disjoint(b.subsystem):
        raise ValidationError(
            "overlapping_subsystems",
            f"subsystems {a.subsystem.indices} and {b.subsystem.indices} overlap",
        )
    union = a.subsystem.union(b.subsystem)
    _check_n_modes(len(union))  # before the identity is allocated
    joint = np.eye(2 ** len(union), dtype=complex)
    for s in (a, b):
        algebra.fold_local(joint, s.matrix, ModeSet(s.subsystem.positions_in(union), len(union)))
    return PhenomenalState._trusted(union, joint)


def expectation(state: PhenomenalState, observable: FockOperator) -> float:
    """tr(observable . rho) for a Hermitian, parity-even observable."""
    if observable.n_modes != state.n_modes:
        raise ValidationError(
            "dimension_mismatch",
            f"observable acts on {observable.n_modes} modes, state has {state.n_modes}",
        )
    algebra.require_hermitian(observable.matrix, "observable")
    algebra.require_even(observable, "observable")
    value = complex(np.trace(observable.matrix @ state.matrix))
    if abs(value.imag) > 1e-10:
        raise ValidationError(
            "internal_inconsistency",
            f"expectation of a Hermitian observable came out complex ({value:.3e})",
        )
    return float(value.real)
