"""Fock space for a finite set of fermionic modes.

Everything downstream rests on the conventions fixed here:

* Mode labels are 0-based.
* Per-mode basis order is (vacuum, occupied); the lowering matrix maps
  occupied -> vacuum.
* The annihilator of mode ``i`` on ``N`` modes is the string construction
  ``Z^(i) (x) lower (x) I^(N-i-1)`` with ``Z = diag(+1, -1)``.  All entries
  are integers, so the anticommutation relations hold exactly in floating
  point, not merely to rounding.
* The Fock basis index of an occupation list is ``sum_i occ[i] * 2^(N-1-i)``
  (mode 0 is the most significant bit).

Matrices are dense; the default mode cap of 10 keeps them at 1024 x 1024.
The cap can be raised through the ``FERMIDESC_MODE_CAP`` environment
variable.  It is read where a caller's mode count becomes memory, before
anything is allocated; functions of values that exist or of counts already
validated, such as ``_ladder_columns`` and ``parity_sectors``, do not read it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

MODE_CAP_ENV = "FERMIDESC_MODE_CAP"
DEFAULT_MODE_CAP = 10


def mode_cap() -> int:
    """Largest allowed mode count (resource guard, env-overridable)."""
    raw = os.environ.get(MODE_CAP_ENV)
    if raw is None:
        return DEFAULT_MODE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            "cap_invalid", f"{MODE_CAP_ENV} must be an integer, got {raw!r}"
        )
    if value < 1:
        raise ValidationError("cap_invalid", f"{MODE_CAP_ENV} must be >= 1")
    return value


def _check_n_modes(n_modes: int) -> None:
    if n_modes < 1:
        raise ValidationError("mode_out_of_range", f"n_modes must be >= 1, got {n_modes}")
    cap = mode_cap()
    if n_modes > cap:
        raise ValidationError(
            "cap_exceeded",
            f"n_modes={n_modes} exceeds the configured cap of {cap} "
            f"(override with {MODE_CAP_ENV})",
        )


def _is_int(x) -> bool:
    """The one integer rule of modes and occupations: ints and numpy integers, no bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _mode_index(i) -> int:
    if not _is_int(i):
        raise ValidationError("mode_out_of_range", f"modes must be integers, got {i!r}")
    return int(i)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def checked_array(a, n_modes: int, ndim: int) -> np.ndarray:
    """The array rule of every value class, returning a read-only complex array.

    ``a`` must be a vector (``ndim=1``) or a square matrix (``ndim=2``) on
    the Fock space of ``n_modes`` modes, with finite entries.
    """
    m = np.asarray(a, dtype=complex)
    shape = (2 ** n_modes,) * ndim
    if m.shape != shape:
        raise ValidationError(
            "dimension_mismatch",
            f"expected shape {shape} for {n_modes} modes, got {m.shape}",
        )
    if not np.isfinite(m).all():
        raise ValidationError("not_finite", "entries must be finite")
    return _freeze(m)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class ModeSet:
    """An ordered subset of the modes of an N-mode system.

    ``indices`` must be strictly increasing and each less than ``ambient_n``;
    both take ints and numpy integers only.
    The empty set is constructible (it arises from complements) but is
    rejected wherever a subsystem argument is required.
    """

    indices: tuple[int, ...]
    ambient_n: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(_mode_index(i) for i in self.indices))
        object.__setattr__(self, "ambient_n", _mode_index(self.ambient_n))
        if self.ambient_n < 1:
            raise ValidationError("mode_out_of_range", "ambient_n must be >= 1")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValidationError(
                    "mode_out_of_range",
                    f"mode indices must be strictly increasing and distinct, got {self.indices}",
                )
            if not 0 <= i < self.ambient_n:
                raise ValidationError(
                    "mode_out_of_range",
                    f"mode {i} out of range for ambient_n={self.ambient_n}",
                )
            prev = i

    @classmethod
    def of(cls, indices: Iterable[int], ambient_n: int) -> "ModeSet":
        return cls(tuple(sorted(set(_mode_index(i) for i in indices))), ambient_n)

    @classmethod
    def full(cls, n_modes: int) -> "ModeSet":
        return cls(tuple(range(n_modes)), n_modes)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, mode: int) -> bool:
        return mode in self.indices

    @property
    def is_empty(self) -> bool:
        return not self.indices

    @property
    def is_full(self) -> bool:
        return len(self.indices) == self.ambient_n

    def complement(self) -> "ModeSet":
        rest = tuple(i for i in range(self.ambient_n) if i not in self.indices)
        return ModeSet(rest, self.ambient_n)

    def union(self, other: "ModeSet") -> "ModeSet":
        self._check_same_ambient(other)
        return ModeSet.of(self.indices + other.indices, self.ambient_n)

    def is_disjoint(self, other: "ModeSet") -> bool:
        return not set(self.indices) & set(other.indices)

    def is_subset_of(self, other: "ModeSet") -> bool:
        self._check_same_ambient(other)
        return set(self.indices) <= set(other.indices)

    def positions_in(self, superset: "ModeSet") -> tuple[int, ...]:
        """Positions of our modes inside ``superset.indices``."""
        if not self.is_subset_of(superset):
            raise ValidationError(
                "not_subset", f"{self.indices} is not a subset of {superset.indices}"
            )
        return tuple(superset.indices.index(i) for i in self.indices)

    def require_nonempty(self) -> "ModeSet":
        if self.is_empty:
            raise ValidationError("empty_subsystem", "subsystem must be non-empty")
        return self

    def _check_same_ambient(self, other: "ModeSet") -> None:
        if self.ambient_n != other.ambient_n:
            raise ValidationError(
                "dimension_mismatch",
                f"mode sets live in different systems ({self.ambient_n} vs {other.ambient_n} modes)",
            )


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense complex operator on the 2^N-dimensional Fock space of N modes."""

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_n_modes(self.n_modes)
        object.__setattr__(self, "matrix", checked_array(self.matrix, self.n_modes, 2))

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def dag(self) -> "FockOperator":
        return FockOperator(self.n_modes, self.matrix.conj().T)

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, FockOperator):
            if other.n_modes != self.n_modes:
                raise ValidationError(
                    "dimension_mismatch",
                    f"operators act on different systems ({self.n_modes} vs {other.n_modes} modes)",
                )
            return other.matrix
        return np.asarray(other, dtype=complex)

    def __matmul__(self, other) -> "FockOperator":
        return FockOperator(self.n_modes, self.matrix @ self._coerce(other))

    def __add__(self, other) -> "FockOperator":
        return FockOperator(self.n_modes, self.matrix + self._coerce(other))

    def __sub__(self, other) -> "FockOperator":
        return FockOperator(self.n_modes, self.matrix - self._coerce(other))

    def __mul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.n_modes, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return self * (-1.0)


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex vector on the Fock space; unit norm is required of states."""

    n_modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_n_modes(self.n_modes)
        object.__setattr__(self, "amplitudes", checked_array(self.amplitudes, self.n_modes, 1))

    @property
    def dim(self) -> int:
        return 2 ** self.n_modes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self) -> "FockVector":
        if abs(self.norm() - 1.0) > 1e-10:
            raise ValidationError(
                "not_normalized", f"state norm is {self.norm():.3e}, expected 1"
            )
        return self

    def projector(self) -> FockOperator:
        v = self.amplitudes
        return FockOperator(self.n_modes, np.outer(v, v.conj()))


def ladder_columns(n_modes: int, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The annihilator of one mode as a signed column map ``(partner, sign)``.

    Column ``j`` holds ``sign[j]`` in row ``partner[j] = j ^ bit`` and nothing
    else; ``sign[j]`` is the string parity of the modes before ``mode``, or 0
    when ``mode`` is empty in ``j``.  So ``A @ f`` is ``A[:, partner] * sign``.
    """
    _check_n_modes(n_modes)
    return _ladder_columns(n_modes, mode)


@lru_cache(maxsize=64)
def _ladder_columns(n_modes: int, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ladder_columns` of a validated mode count; the mode is checked on a cache miss."""
    if not 0 <= mode < n_modes:
        raise ValidationError("mode_out_of_range", f"mode {mode} out of range for {n_modes} modes")
    j = np.arange(2 ** n_modes)
    bit = 1 << (n_modes - 1 - mode)
    before = sum((j >> (n_modes - 1 - b)) & 1 for b in range(mode))
    partner, sign = j ^ bit, np.where(j & bit, (-1.0) ** before, 0.0)
    for a in (partner, sign):
        a.setflags(write=False)
    return partner, sign


# one workload touches about ten (n_modes, mode) keys; an entry is 16 MB at N=10
@lru_cache(maxsize=16)
def _annihilator_matrix(n_modes: int, mode: int) -> np.ndarray:
    """The dense annihilator: the scatter of :func:`ladder_columns`."""
    partner, sign = _ladder_columns(n_modes, mode)
    out = np.zeros((2 ** n_modes, 2 ** n_modes), dtype=complex)
    out[partner, np.arange(2 ** n_modes)] = sign
    return _freeze(out)


def build_ladder(n_modes: int, mode: int, kind: str) -> FockOperator:
    """Annihilation or creation operator of one mode on the full Fock space.

    ``kind`` is ``"annihilator"`` or ``"creator"``.  The family returned for
    all modes of a system satisfies the canonical anticommutation relations
    with exactly zero residual.
    """
    _check_n_modes(n_modes)
    m = _annihilator_matrix(n_modes, mode)
    if kind == "annihilator":
        return FockOperator(n_modes, m)
    if kind == "creator":
        return FockOperator(n_modes, m.conj().T)
    raise ValidationError("bad_kind", f"kind must be 'annihilator' or 'creator', got {kind!r}")


def annihilator(n_modes: int, mode: int) -> FockOperator:
    return build_ladder(n_modes, mode, "annihilator")


def creator(n_modes: int, mode: int) -> FockOperator:
    return build_ladder(n_modes, mode, "creator")


@lru_cache(maxsize=32)
def _parity_diagonal(n_modes: int) -> np.ndarray:
    occ_counts = np.array([bin(b).count("1") for b in range(2 ** n_modes)])
    diag = np.where(occ_counts % 2 == 0, 1.0, -1.0).astype(complex)
    diag.setflags(write=False)
    return diag


@lru_cache(maxsize=32)
def parity_sectors(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Increasing Fock basis indices of the even and of the odd sector of a validated count.

    The two arrays are cached and read-only.
    """
    diag = _parity_diagonal(n_modes).real
    sectors = np.flatnonzero(diag == 1.0), np.flatnonzero(diag == -1.0)
    for idx in sectors:
        idx.setflags(write=False)
    return sectors


@lru_cache(maxsize=32)
def _sector_pairs(n_modes: int) -> tuple[tuple, tuple, tuple, tuple]:
    """``np.ix_`` pairs of the (even, even), (odd, odd), (even, odd) and (odd, even) blocks."""
    even, odd = parity_sectors(n_modes)
    return np.ix_(even, even), np.ix_(odd, odd), np.ix_(even, odd), np.ix_(odd, even)


@lru_cache(maxsize=64)
def _sector_ladder(n_modes: int, mode: int) -> tuple[tuple, tuple]:
    """The annihilator of one mode as two in-sector signed gathers.

    A gather ``(cols, rows, sign)`` lists the columns of one sector in
    which ``mode`` is occupied, by their positions within that sector, the
    positions of their ``partner`` states within the other sector and their
    signs: the block of ``f`` from that sector into the other one holds
    ``sign[k]`` at ``(rows[k], cols[k])`` and zeros elsewhere.  The first
    gather maps the odd columns into the even rows, the second the even
    columns into the odd rows; both derive from :func:`_ladder_columns`,
    which checks the mode on a cache miss.
    """
    partner, sign = _ladder_columns(n_modes, mode)
    even, odd = parity_sectors(n_modes)
    position = np.empty(2 ** n_modes, dtype=np.intp)
    position[even] = position[odd] = np.arange(len(even))
    gathers = []
    for sector in (odd, even):
        cols = np.flatnonzero(sign[sector])
        gather = cols, position[partner[sector[cols]]], sign[sector[cols]]
        for a in gather:
            a.setflags(write=False)
        gathers.append(gather)
    return tuple(gathers)


def parity_operator(n_modes: int) -> FockOperator:
    """Diagonal operator with +1 on even-occupation basis states, -1 on odd."""
    _check_n_modes(n_modes)
    return FockOperator(n_modes, np.diag(_parity_diagonal(n_modes)))


def identity(n_modes: int) -> FockOperator:
    _check_n_modes(n_modes)
    return FockOperator(n_modes, np.eye(2 ** n_modes, dtype=complex))


def basis_index(n_modes: int, occupation: Sequence[int]) -> int:
    """Fock basis index of an occupation list (mode 0 most significant)."""
    if len(occupation) != n_modes:
        raise ValidationError(
            "dimension_mismatch",
            f"occupation list has length {len(occupation)}, expected {n_modes}",
        )
    index = 0
    for occ in occupation:
        if not _is_int(occ) or occ not in (0, 1):
            raise ValidationError("bad_occupation", f"occupation entries must be 0 or 1, got {occ!r}")
        index = (index << 1) | int(occ)
    return index


def occupation_of(n_modes: int, index: int) -> tuple[int, ...]:
    """Inverse of :func:`basis_index`."""
    if not 0 <= index < 2 ** n_modes:
        raise ValidationError("mode_out_of_range", f"basis index {index} out of range")
    return tuple((index >> (n_modes - 1 - i)) & 1 for i in range(n_modes))


def fock_basis_state(n_modes: int, occupation: Sequence[int]) -> FockVector:
    """Occupation-number basis state, creators applied in increasing mode order.

    With the string convention used here the resulting vector is exactly the
    standard basis vector at :func:`basis_index` with coefficient +1.
    """
    _check_n_modes(n_modes)
    index = basis_index(n_modes, occupation)
    v = np.zeros(2 ** n_modes, dtype=complex)
    v[index] = 1.0
    return FockVector(n_modes, v)


def vacuum_state(n_modes: int) -> FockVector:
    return fock_basis_state(n_modes, [0] * n_modes)


def anticommutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b + b @ a


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a
