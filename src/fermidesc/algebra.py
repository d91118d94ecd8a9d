"""Locality, superselection grading and the monomial operator basis.

A subsystem's local operators are the algebra generated by its own ladder
operators.  Relabelling the modes so the subsystem's come first acts on the
Fock basis as a signed permutation: each basis state goes to the state with
the relabelled occupations, times the parity of the sort that restores
increasing mode order.  In that reordered Jordan-Wigner frame every local
operator is exactly ``A (x) I`` with ``A`` on the subsystem's own Fock space
(Bravyi and Kitaev, quant-ph/0003137).  The reorder is one index array and
one sign vector of length 2^N.  The one lift kernel, :func:`fold_local`,
multiplies rows by ``A (x) I`` by gathering them through the reorder and
scattering them back; compression and the locality test gather the
reordered operator ``X``, take ``c = tr_rest(X) / 2^(N-m)`` and measure
``||X - c (x) I||``.  Memory stays O(4^N).

The monomial basis of a subsystem is the paper's own definition, the 4^m
operators

    E(l, p) = (prod of creators over l) . (subsystem vacuum projector)
              . (prod of annihilators over p, reversed)

for occupation patterns l, p over the subsystem, built from the ambient
string-realized ladder operators.  The subsystem vacuum projector is the
product of f_j f_j^dag over the subsystem's modes.  Each element maps to
the matrix unit ``|l><p| (x) I`` under the reorder.  The dense
``4^m x 2^N x 2^N`` stack of :func:`monomial_basis` is kept only as the
reference that the tests' monomial oracle checks the reorder against.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .fock import (
    FockOperator,
    ModeSet,
    _annihilator_matrix,
    _check_n_modes,
    _parity_diagonal,
    frobenius,
    ladder_columns,
)

LOCALITY_TOL = 1e-10

GRADE_EVEN = "even"
GRADE_ODD = "odd"
GRADE_MIXED = "mixed"


@lru_cache(maxsize=2)
def _basis_arrays(indices: tuple[int, ...], ambient_n: int):
    n = ambient_n
    dim = 2 ** n
    vac = np.eye(dim, dtype=complex)
    for j in indices:
        f = _annihilator_matrix(n, j)
        vac = vac @ (f @ f.conj().T)

    # left[S] = creators(S, increasing) @ vac; built by prepending the
    # smallest mode so each subset costs one product.
    left: dict[tuple[int, ...], np.ndarray] = {(): vac}

    def left_of(occupied: tuple[int, ...]) -> np.ndarray:
        if occupied in left:
            return left[occupied]
        head, rest = occupied[0], occupied[1:]
        out = _annihilator_matrix(n, head).conj().T @ left_of(rest)
        left[occupied] = out
        return out

    # occupation patterns in subsystem-Fock-index order, most significant mode first
    patterns = list(itertools.product((0, 1), repeat=len(indices)))
    labels = tuple(itertools.product(patterns, repeat=2))
    stacked = np.empty((len(labels), dim, dim), dtype=complex)
    for k, (l_pat, p_pat) in enumerate(labels):
        l_occ = tuple(itertools.compress(indices, l_pat))
        p_occ = tuple(itertools.compress(indices, p_pat))
        # annihilators reversed == adjoint of the creator string
        stacked[k] = left_of(l_occ) @ left_of(p_occ).conj().T if p_occ else left_of(l_occ)
    stacked.setflags(write=False)
    return stacked, labels


def monomial_basis(subsystem: ModeSet) -> tuple[np.ndarray, tuple]:
    """The 4^m ladder monomials of a non-empty subsystem, embedded in the ambient space.

    Returns the read-only ``(4^m, 2^N, 2^N)`` stack and its labels:
    ``labels[k]`` is the pair of occupation patterns ``(l, p)`` of element
    k, each a tuple over the subsystem's modes in increasing order.  The
    elements are pairwise HS-orthogonal with squared norm 2^(N - m).
    """
    subsystem.require_nonempty()
    _check_n_modes(subsystem.ambient_n)
    return _basis_arrays(subsystem.indices, subsystem.ambient_n)


@lru_cache(maxsize=256)
def _mode_reorder(front: tuple[int, ...], n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutation moving the modes ``front`` (in that order) to the front.

    Returns ``(src, sign)``, each of length 2^N: reordered basis state ``k``
    is ``sign[k]`` times original basis state ``src[k]``, so an operator
    ``o`` becomes ``sign[:, None] * o[src][:, src] * sign[None, :]``.  The
    sign is the parity of the sort that puts a state's relabelled occupied
    modes back in increasing order.
    """
    order = np.array(front + tuple(i for i in range(n_modes) if i not in front))
    new_label = np.empty(n_modes, dtype=np.int64)
    new_label[order] = np.arange(n_modes)
    index = np.arange(2 ** n_modes)
    occ = (index[:, None] >> (n_modes - 1 - np.arange(n_modes))[None, :]) & 1
    new_index = occ @ (1 << (n_modes - 1 - new_label))
    # occupied pairs (i < j) whose relabelled order is inverted
    inverted = np.triu(new_label[:, None] > new_label[None, :], k=1).astype(np.int64)
    inversions = np.einsum("bi,ij,bj->b", occ, inverted, occ)
    src = np.argsort(new_index)
    sign = np.where(inversions % 2, -1.0, 1.0)[src]
    src.setflags(write=False)
    sign.setflags(write=False)
    return src, sign


def _reorder_to_front(subsystem: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """The reorder for rows that already exist, so the mode count needs no cap check."""
    subsystem.require_nonempty()
    return _mode_reorder(subsystem.indices, subsystem.ambient_n)


def _split_local(o: FockOperator, subsystem: ModeSet) -> tuple[np.ndarray, float]:
    """Coefficients ``c`` of the nearest local operator and the distance to it.

    In the reordered frame ``c = tr_rest(X) / 2^(N-m)``, the HS projection
    onto ``{A (x) I}``, and the residual is ``||X - c (x) I||_F``.
    """
    if o.n_modes != subsystem.ambient_n:
        raise ValidationError("dimension_mismatch", "operator lives in a different ambient space")
    src, sign = _reorder_to_front(subsystem)
    dk = 2 ** len(subsystem)
    dc = o.dim // dk
    x = sign[:, None] * o.matrix[np.ix_(src, src)] * sign[None, :]
    x4 = x.reshape(dk, dc, dk, dc)
    diag = np.diagonal(x4, axis1=1, axis2=3)
    while diag.shape[-1] > 1:  # pairwise sums: exact when the 2^(N-m) terms are equal
        diag = diag[..., 0::2] + diag[..., 1::2]
    coeffs = diag[..., 0] / dc
    rest = np.arange(dc)
    x4[:, rest, :, rest] -= coeffs
    return coeffs, frobenius(x)


def parity_grade(o: FockOperator | np.ndarray) -> str:
    """Classify an operator, matrix or vector as even, odd, or mixed under parity.

    The one superselection test: a matrix is conjugated by the parity
    operator, a vector multiplied by it, and the image is compared with
    plus and minus the input at ``LOCALITY_TOL * max(1, |input|)``.
    """
    m = o.matrix if isinstance(o, FockOperator) else o
    # the array exists, so its size needs no mode-cap check
    diag = _parity_diagonal(m.shape[0].bit_length() - 1)
    conj = diag * m if m.ndim == 1 else diag[:, None] * m * diag[None, :]
    bound = LOCALITY_TOL * max(1.0, frobenius(m))
    if frobenius(conj - m) <= bound:
        return GRADE_EVEN
    if frobenius(conj + m) <= bound:
        return GRADE_ODD
    return GRADE_MIXED


def require_even(o: FockOperator | np.ndarray, what: str) -> None:
    """Superselection of a state or transformation; ``ssr_violation`` otherwise."""
    if parity_grade(o) != GRADE_EVEN:
        raise ValidationError("ssr_violation", f"{what} must commute with the parity operator")


def scaled_to_unit(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(g, e)`` with ``m = g * 2**e`` exactly, ``e >= 0`` and every part of ``g`` below 2.

    Dividing by a power of two moves no bit (short of underflow), so a test
    on ``g`` decides as the same test on ``m`` would, but no norm of ``g``
    can overflow, whatever the finite scale of ``m``.  The scale is set by
    the real and imaginary parts, not the moduli: an entry such as
    ``1.7e308 + 1.7e308j`` has finite parts but no finite modulus.  ``g`` is ``m`` itself when every
    part is below 2, as for states and unitaries.
    """
    peak = max(np.abs(m.real).max(initial=0.0), np.abs(m.imag).max(initial=0.0))
    e = max(0, math.frexp(float(peak))[1] - 1)
    return (m * math.ldexp(1.0, -e) if e else m), e


def require_hermitian(m: np.ndarray, what: str) -> None:
    """The one Hermiticity test, relative to ``max(1, |m|)``; ``not_hermitian`` otherwise."""
    g, e = scaled_to_unit(m)
    if frobenius(g - g.conj().T) > LOCALITY_TOL * max(math.ldexp(1.0, -e), frobenius(g)):
        raise ValidationError("not_hermitian", f"{what} must be Hermitian")


def locality_residual(o: FockOperator, subsystem: ModeSet) -> float:
    """Frobenius distance from ``o`` to the span of the subsystem's monomials."""
    return _split_local(o, subsystem)[1]


def is_local_to(o: FockOperator, subsystem: ModeSet, tol: float = LOCALITY_TOL) -> bool:
    """True iff ``o`` lies in the span of the subsystem's ladder monomials."""
    scale = max(1.0, frobenius(o.matrix))
    return locality_residual(o, subsystem) <= tol * scale


def fold_local(target: np.ndarray, small: np.ndarray, subsystem: ModeSet) -> None:
    """Left-multiply a 2^N-row ``target``, in place, by the lift of ``small`` on ``subsystem``.

    The one lift kernel: in the frame that puts the subsystem's modes first
    the lift is ``small (x) I``, so the rows are gathered through the signed
    reorder, ``small`` acts on their leading index and they are scattered
    back, in 2^m 4^N operations with no lift formed.
    """
    if len(target) != 2 ** subsystem.ambient_n:
        raise ValidationError(
            "dimension_mismatch", f"target needs {2 ** subsystem.ambient_n} rows, not {len(target)}"
        )
    src, sign = _reorder_to_front(subsystem)
    dk = 2 ** len(subsystem)
    small = np.asarray(small, dtype=complex)
    if small.shape != (dk, dk):
        raise ValidationError(
            "dimension_mismatch", f"expected a {dk} x {dk} matrix for subsystem {subsystem.indices}"
        )
    rows = target[src]
    rows *= sign[:, None]
    rows = (small @ rows.reshape(dk, -1)).reshape(target.shape)
    rows *= sign[:, None]
    rows += 0.0  # -0.0 entries of the signed scatter become +0.0
    target[src] = rows


def embed_local_operator(small: np.ndarray, subsystem: ModeSet) -> FockOperator:
    """Lift a 2^m x 2^m matrix on a subsystem's own Fock space to the ambient space.

    The lift substitutes the subsystem's ambient ladder monomials for the
    small-space matrix units, so it is a *-isomorphism onto the subsystem's
    local operator algebra.  It is :func:`fold_local` applied to the identity.
    """
    _check_n_modes(subsystem.ambient_n)  # before the identity is allocated
    matrix = np.eye(2 ** subsystem.ambient_n, dtype=complex)
    fold_local(matrix, small, subsystem)
    return FockOperator(subsystem.ambient_n, matrix)


def compress_local_operator(o: FockOperator, subsystem: ModeSet) -> np.ndarray:
    """Inverse of :func:`embed_local_operator`; rejects non-local input."""
    coeffs, residual = _split_local(o, subsystem)
    if residual > LOCALITY_TOL * max(1.0, frobenius(o.matrix)):
        raise ValidationError(
            "not_local",
            f"operator is not local to modes {subsystem.indices} (residual {residual:.3e})",
        )
    return coeffs


def wedge(a: FockOperator, sub_a: ModeSet, b: FockOperator, sub_b: ModeSet) -> FockOperator:
    """Product-state composition of operators local to disjoint subsystems.

    Returns the plain ambient product a . b.  At least one operand must be
    parity-even; the odd/odd case has no convention-free sign and is refused.
    """
    sub_a.require_nonempty()
    sub_b.require_nonempty()
    sub_a._check_same_ambient(sub_b)
    if not sub_a.is_disjoint(sub_b):
        raise ValidationError(
            "overlapping_subsystems",
            f"subsystems {sub_a.indices} and {sub_b.indices} overlap",
        )
    if not is_local_to(a, sub_a):
        raise ValidationError("not_local", f"first operand is not local to {sub_a.indices}")
    if not is_local_to(b, sub_b):
        raise ValidationError("not_local", f"second operand is not local to {sub_b.indices}")
    if parity_grade(a) != GRADE_EVEN and parity_grade(b) != GRADE_EVEN:
        raise ValidationError(
            "parity_ambiguous",
            "wedge requires at least one parity-even operand (odd/odd has no fixed sign)",
        )
    return a @ b


def qubit_ladder(n_qubits: int, j: int) -> FockOperator:
    """Stringless lowering operator (sigma_x + i sigma_y)/2 on qubit j.

    Unlike the fermionic annihilators these commute across sites; the
    single-site relations q^2 = 0 and {q, q^dag} = I still hold exactly.
    It is the annihilator's column map with the string signs dropped.
    """
    partner, sign = ladder_columns(n_qubits, j)
    q = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
    q[partner, np.arange(2 ** n_qubits)] = np.abs(sign)
    return FockOperator(n_qubits, q)
