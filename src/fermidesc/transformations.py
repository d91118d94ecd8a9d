"""The group of physical transformations: parity-superselected unitaries.

Superselection means every unitary here commutes with the parity operator:
a ``PSUnitary``'s entries between the even and odd occupation sectors are
exact zeros, so its products, adjoint and Heisenberg images are even or odd
by construction and are not graded.  Random and exponential unitaries are
assembled from their two sector blocks (``_from_blocks``); the storage stays
dense, and the kernels that would multiply the zero blocks (the Heisenberg
image, the unitarity defect) read the two sector blocks instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# Nothing here calls scipy.  The bare package stays imported only because
# perfbench/child.py records sys.modules["scipy"].__version__ and fails
# without it; it goes when that runner tolerates a scipy-free fermidesc.
import scipy  # noqa: F401

from . import algebra
from .errors import ValidationError
from .fock import (
    FockOperator,
    ModeSet,
    _check_n_modes,
    _ladder_columns,
    _sector_ladder,
    _sector_pairs,
    annihilator,
    checked_array,
    creator,
    frobenius,
    parity_sectors,
)

UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PSUnitary:
    """Unitary on the N-mode Fock space commuting with the parity operator.

    Its entries between the parity sectors are exact zeros.  The constructor
    applies the array rule and the parity grade, then stores the even part
    (the input itself when it is exactly even) and its defect ``|M^dag M - I|``,
    measured on the two sector blocks.  Unitaries built from such parts go
    through :meth:`_trusted`, carrying their defect; ``@`` measures its
    product's defect, which a bound from the factors would leave out, and
    grades nothing.
    """

    n_modes: int
    matrix: np.ndarray
    # |M^dag M - I| in the Frobenius norm, kept for the canonical-relation gate
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_n_modes(self.n_modes)
        m = checked_array(self.matrix, self.n_modes, 2)
        algebra.require_even(m, "unitary")
        _, _, even_odd, odd_even = _sector_pairs(self.n_modes)
        if m[even_odd].any() or m[odd_even].any():
            m = m.copy()
            m[even_odd] = m[odd_even] = 0.0
            m.setflags(write=False)
        blocks = _sector_blocks_of(m, self.n_modes)
        defect = _sectors_defect(blocks)
        _require_unitary(defect, self.dim)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "_sector_blocks", blocks)

    @classmethod
    def _trusted(
        cls, n_modes: int, matrix: np.ndarray, defect: float, blocks: tuple | None = None
    ) -> "PSUnitary":
        """A unitary the library built from validated parts, with its defect carried.

        ``matrix`` is a fresh complex 2^N x 2^N array, exactly even,
        and ``defect`` its exact or measured ``|M^dag M - I|``; no
        array rule, dense ``M^dag M`` or parity grade runs, but a defect
        above the tolerance is still refused.  ``blocks``, when given, are
        the matrix's (even, odd) sector blocks, kept for the block kernels.
        """
        _require_unitary(defect, 2 ** n_modes)
        matrix.setflags(write=False)
        u = object.__new__(cls)
        object.__setattr__(u, "n_modes", n_modes)
        object.__setattr__(u, "matrix", matrix)
        object.__setattr__(u, "defect", defect)
        if blocks is not None:
            for block in blocks:
                block.setflags(write=False)
            object.__setattr__(u, "_sector_blocks", blocks)
        return u

    @cached_property
    def _sector_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (even, even) and (odd, odd) blocks of the matrix, gathered once per unitary."""
        return _sector_blocks_of(self.matrix, self.n_modes)

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def dag(self) -> "PSUnitary":
        """The adjoint: as even and finite as U, and |U U^dag - I| = |U^dag U - I|."""
        return PSUnitary._trusted(self.n_modes, self.matrix.conj().T.copy(), self.defect)

    def __matmul__(self, other: "PSUnitary") -> "PSUnitary":
        if not isinstance(other, PSUnitary):
            return NotImplemented
        if other.n_modes != self.n_modes:
            raise ValidationError(
                "dimension_mismatch",
                f"unitaries act on different systems ({self.n_modes} vs {other.n_modes} modes)",
            )
        product = self.matrix @ other.matrix  # exactly even, as both factors are
        blocks = _sector_blocks_of(product, self.n_modes)
        return PSUnitary._trusted(self.n_modes, product, _sectors_defect(blocks), blocks)

    def heisenberg(self, mode: int) -> np.ndarray:
        """Heisenberg image U^dag f_mode U, computed from the two sector blocks of U."""
        return _sector_image(self.n_modes, mode, *self._sector_blocks)

    def as_operator(self) -> FockOperator:
        return FockOperator(self.n_modes, self.matrix)


def _require_unitary(defect: float, dim: int) -> None:
    if defect > UNITARY_TOL * dim:
        raise ValidationError("not_unitary", "matrix is not unitary within tolerance")


def _block_defect(block: np.ndarray) -> float:
    return frobenius(block.conj().T @ block - np.eye(len(block)))


def _sectors_defect(blocks) -> float:
    """|M^dag M - I| of a block-diagonal M: its blocks' squared defects add up."""
    return math.hypot(*(_block_defect(block) for block in blocks))


def _sector_blocks_of(matrix: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    even_even, odd_odd, _, _ = _sector_pairs(n_modes)
    blocks = matrix[even_even], matrix[odd_odd]
    for block in blocks:
        block.setflags(write=False)
    return blocks


def _sector_image(n_modes: int, mode: int, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """U^dag f_mode U of the unitary with sector blocks ``even`` and ``odd``.

    The image maps each sector into the other.  Its block into the even
    rows is sum_k conj(U_e[rows_k, :])^T sign_k U_o[cols_k, :] over the
    odd columns in which the mode is occupied (``fock._sector_ladder``), one
    product of half the rows of U_o, and likewise into the odd rows.  The
    two blocks are scattered into zeros, so the entries between states of
    the same parity are exact +0.0.
    """
    into_even, into_odd = _sector_ladder(n_modes, mode)
    _, _, even_odd, odd_even = _sector_pairs(n_modes)
    image = np.zeros((2 ** n_modes,) * 2, dtype=complex)
    image[even_odd] = _half_image(even, odd, *into_even)
    image[odd_even] = _half_image(odd, even, *into_odd)
    return image


def _half_image(target: np.ndarray, source: np.ndarray, cols, rows, sign) -> np.ndarray:
    left = target[rows].conj()
    left *= sign[:, None]
    return left.T @ source[cols]


def validate_ps_unitary(matrix: np.ndarray) -> PSUnitary:
    """Validate a candidate matrix; distinct codes for non-unitarity and SSR."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("dimension_mismatch", f"expected a square matrix, got {m.shape}")
    dim = m.shape[0]
    if not (dim > 0 and dim & (dim - 1) == 0):
        raise ValidationError("dimension_mismatch", f"dimension {dim} is not a power of two")
    n = dim.bit_length() - 1
    return PSUnitary(n, m)


def exp_hamiltonian(h: FockOperator) -> PSUnitary:
    """exp(i h) for a Hermitian, parity-even generator.

    Taken as V e^{i lambda} V^dag from ``eigh`` of each parity block of
    ``h / 2^e`` (``algebra.scaled_to_unit``), with the eigenvalues scaled
    back by ``2^e``, and assembled by ``_from_blocks``; the result is
    unitary to rounding at any finite scale of ``h``.
    """
    g, e = algebra.scaled_to_unit(h.matrix)
    algebra.require_hermitian(g, "generator")
    algebra.require_even(g, "generator")
    eighs = (np.linalg.eigh(g[np.ix_(idx, idx)]) for idx in parity_sectors(h.n_modes))
    blocks = ((v * np.exp(1j * np.ldexp(lam, e))) @ v.conj().T for lam, v in eighs)
    return _from_blocks(h.n_modes, blocks)


def _from_blocks(n_modes: int, blocks) -> PSUnitary:
    """The unitary with these (even, odd) sector blocks; the blocks' squared defects add up."""
    u = np.zeros((2 ** n_modes,) * 2, dtype=complex)
    blocks = tuple(blocks)
    for pair, block in zip(_sector_pairs(n_modes), blocks):
        u[pair] = block
    return PSUnitary._trusted(n_modes, u, _sectors_defect(blocks), blocks)


_GATE_ARITY = {"phase": 1, "tunneling": 2, "interaction": 2}


def named_gate(kind: str, n_modes: int, *, modes: tuple[int, ...], theta: float) -> PSUnitary:
    """Convenience gates with the sign conventions fixed once and for all.

    tunneling(i,j):   exp(theta G),       G = f_i^dag f_j - f_j^dag f_i
    phase(i):         exp(i theta P),     P = f_i^dag f_i
    interaction(i,j): exp(i theta P),     P = f_i^dag f_i f_j^dag f_j

    Each exponential is taken in closed form on the gate's own modes
    (``_gate_small``) and lifted to the ambient space by the one lift
    kernel, ``algebra.fold_local`` applied to the identity; the lift carries
    the small matrix's defect, and nothing is graded: the closed forms
    conserve the particle number, so they are exactly even.
    ``cli.run_scenario`` folds the small matrix into its running product
    with the same kernel and never builds this lift.
    """
    small, sub = _gate_small(kind, n_modes, modes=modes, theta=theta)
    return _lifted(small, _block_defect(small), sub)


def _gate_small(
    kind: str, n_modes: int, *, modes: tuple[int, ...], theta: float
) -> tuple[np.ndarray, ModeSet]:
    """A named gate as a 2^m x 2^m matrix on its own modes, and those modes.

    P is a projector (P^2 = P), so exp(i theta P) = (I - P) + e^{i theta} P;
    G satisfies G^3 = -G, so exp(theta G) = (I + G^2) - cos(theta) G^2 +
    sin(theta) G.  Both are exact polynomials in integer matrices, unitary
    at any finite theta.  The matrix acts on the modes in increasing order,
    as the returned ModeSet lists them.
    """
    arity = _GATE_ARITY.get(kind) if isinstance(kind, str) else None
    if arity is None:
        raise ValidationError(
            "bad_kind", f"unknown gate kind {kind!r} (expected tunneling, phase, or interaction)"
        )
    if len(modes) != arity:
        raise ValidationError(
            "bad_schema", f"a {kind} gate takes {arity} mode(s), got {len(modes)}"
        )
    sub = ModeSet.of(modes, n_modes)
    if len(sub) != arity:
        raise ValidationError("mode_out_of_range", f"{kind} needs two distinct modes")
    c = {m: creator(arity, p).matrix for p, m in enumerate(sub)}
    a = {m: annihilator(arity, p).matrix for p, m in enumerate(sub)}
    i, j = modes[0], modes[-1]
    eye = np.eye(2 ** arity)
    if kind == "tunneling":
        g = c[i] @ a[j] - c[j] @ a[i]
        g2 = g @ g
        small = (eye + g2) - np.cos(theta) * g2 + np.sin(theta) * g
    else:
        p = c[i] @ a[i] if kind == "phase" else c[i] @ a[i] @ c[j] @ a[j]
        small = (eye - p) + np.exp(1j * theta) * p
    return small, sub


def _lifted(small: np.ndarray, defect: float, sub: ModeSet) -> PSUnitary:
    """The lift of an exactly even unitary on a subsystem's own modes, its defect carried.

    The lift copies entries with exact signs into ``small (x) I`` in the
    reordered frame, so its ``U^dag U - I`` is ``(small^dag small - I) (x) I``
    reordered, of norm ``defect * 2^((N - m) / 2)``, and it is exactly even
    as ``small`` is; both callers build ``small`` so, and nothing is graded.
    """
    lift = algebra.embed_local_operator(small, sub).matrix
    scale = math.sqrt(2 ** (sub.ambient_n - len(sub)))
    return PSUnitary._trusted(sub.ambient_n, lift, defect * scale)


def is_local_unitary(u: PSUnitary, subsystem: ModeSet, tol: float = 1e-10) -> bool:
    """True iff the unitary lies in the span of the subsystem's ladder monomials."""
    return algebra.is_local_to(u.as_operator(), subsystem, tol)


def invariance_support(u: PSUnitary) -> ModeSet:
    """Modes whose annihilators the unitary fails to leave invariant.

    A parity-even unitary commutes with every annihilator outside a mode set
    exactly when it is local to that set, so this is its locality support
    (empty for a global phase): the modes j with |U f_j - f_j U| above
    LOCALITY_TOL max(1, |U|), each product a signed gather reversing U's mode-j axis.
    """
    bound = algebra.LOCALITY_TOL * max(1.0, frobenius(u.matrix))
    moved = []
    for j in range(u.n_modes):
        sign = _ladder_columns(u.n_modes, j)[1].reshape(2 ** j, 2, -1)
        x = u.matrix.reshape(sign.shape * 2)
        if frobenius(x[..., ::-1, :] * sign - (sign[..., None, None, None] * x)[:, ::-1]) > bound:
            moved.append(j)
    return ModeSet(tuple(moved), u.n_modes)


def random_ps_unitary(n_modes: int, seed: int) -> PSUnitary:
    """Haar-random unitary on each parity sector, deterministic per seed."""
    _check_n_modes(n_modes)
    rng = np.random.default_rng(seed)
    return _from_blocks(n_modes, (_haar(len(idx), rng) for idx in parity_sectors(n_modes)))


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]


def local_random_ps_unitary(subsystem: ModeSet, seed: int) -> PSUnitary:
    """Random parity-superselected unitary supported on the given modes.

    Sampled on the subsystem's own Fock space, then lifted through the
    monomial substitution embedding, so it commutes with every ladder
    operator outside the subsystem.  The lift carries the small unitary's
    defect; the small unitary's sector blocks are placed into zeros, so it
    is exactly even and nothing is graded.
    """
    subsystem.require_nonempty()
    small = random_ps_unitary(len(subsystem), seed)
    if subsystem.is_full:
        return small
    return _lifted(small.matrix, small.defect, subsystem)


def canonical_phase(matrix: np.ndarray, n_modes: int) -> np.ndarray:
    """Rotate a global phase so the first sizeable parity-block entry is real positive."""
    for idx in parity_sectors(n_modes):
        block = matrix[np.ix_(idx, idx)]
        flat = block.reshape(-1)
        nonzero = np.where(np.abs(flat) > 1e-12)[0]
        if len(nonzero):
            pivot = flat[nonzero[0]]
            return matrix * (abs(pivot) / pivot)
    return matrix


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance minimized over a global phase.

    Aligns the phase explicitly and subtracts; the closed-form
    sqrt(|a|^2+|b|^2-2|tr|) loses half the significant digits to
    cancellation when the operands are close.
    """
    overlap = complex(np.trace(b.conj().T @ a))
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - (overlap / abs(overlap)) * b))
