"""Reference implementations shared by the test modules.

The library's locality kernels work in the signed-reorder frame and never
form the paper's ladder monomials.  ``algebra.monomial_basis`` keeps the
dense ``4^m x 2^N x 2^N`` stack of them as a reference; ``MonomialBasis``
expands operators on it and synthesizes them from coefficients, by
Hilbert-Schmidt inner products, so tests can check the reorder against the
definition.  ``haar_sector_blocks`` is the sampler's per-sector loop, one
draw and one QR per parity sector, against which the stacked draw is
checked bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fermidesc import algebra
from fermidesc.fock import FockOperator, ModeSet, parity_sectors


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """The 4^m ladder monomials of a subsystem, embedded in the ambient space.

    ``labels[k]`` is the pair of occupation patterns ``(l, p)`` of element k,
    each a tuple over the subsystem's modes in increasing order.  Elements
    are pairwise HS-orthogonal with squared norm ``norm_sq = 2^(N - m)``.
    """

    subsystem: ModeSet
    _stacked: np.ndarray
    labels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @classmethod
    def of(cls, subsystem: ModeSet) -> "MonomialBasis":
        return cls(subsystem, *algebra.monomial_basis(subsystem))

    @property
    def norm_sq(self) -> float:
        return float(2 ** (self.subsystem.ambient_n - len(self.subsystem)))

    @property
    def elements(self) -> tuple[FockOperator, ...]:
        return tuple(FockOperator(self.subsystem.ambient_n, e) for e in self._stacked)

    @property
    def size(self) -> int:
        return len(self.labels)

    def stacked(self) -> np.ndarray:
        return self._stacked

    def expand(self, op: FockOperator) -> np.ndarray:
        """Coefficients of ``op`` on this basis, as a (2^m, 2^m) array.

        Entry [l, p] multiplies the element with labels (l, p); indices use
        the same bit order as the subsystem's own Fock basis.
        """
        assert op.n_modes == self.subsystem.ambient_n
        m = len(self.subsystem)
        flat = self._stacked.reshape(4 ** m, -1)
        # conj(E . conj(o)) == conj(E) . o, without copying the stack
        coeffs = (flat @ op.matrix.reshape(-1).conj()).conj() / self.norm_sq
        return coeffs.reshape(2 ** m, 2 ** m)

    def synthesize(self, coeffs: np.ndarray) -> FockOperator:
        """Ambient operator with the given coefficient array (inverse of expand)."""
        m = len(self.subsystem)
        flat = np.asarray(coeffs, dtype=complex).reshape(4 ** m)
        matrix = np.tensordot(flat, self._stacked, axes=(0, 0))
        return FockOperator(self.subsystem.ambient_n, matrix)


def haar_sector_blocks(n_modes: int, seed: int) -> list[np.ndarray]:
    """The (even, odd) blocks of ``random_ps_unitary(n_modes, seed)``, one sector at a time."""
    rng = np.random.default_rng(seed)
    blocks = []
    for idx in parity_sectors(n_modes):
        dim = len(idx)
        z = (rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        blocks.append(q * phases[None, :])
    return blocks
