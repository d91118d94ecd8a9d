"""Heisenberg-picture descriptors as the representation of ontic states.

A descriptor set carries, for each mode of a subsystem, the evolved
annihilator U^dag f_a U, together with the fixed pure Heisenberg state.
Everything an observer could ever measure on that subsystem is a function
of these objects, and two unitaries produce the same descriptor on a mode
exactly when they differ by a transformation local to the other modes.

Join, compatibility, reconstruction and the group action all rest on one
construction, the constructive half of the uniqueness theorem.  Descriptors
d_a of a mode set satisfying the canonical relations have a joint vacuum
V_d (the range of the product of d_a d_a^dag), and the vectors d^dag_S v,
for v in V_d and S a subset of the modes, span the Fock space.  Any
parity-preserving isometry J from V_d onto the canonical joint vacuum V_f
therefore extends to the unitary witness

    W = sum_S f^dag_S J (d^dag_S)^dag,   with   W^dag f_a W = d_a,

which exists exactly when the two vacua have equal dimensions in each
parity sector.  For the full mode set V_d is one even vector and W is the
reconstructed unitary up to phase; for a proper subset W is one of the
global unitaries the descriptors could have come from.

Every set, proper or full, is made of images U^dag f_a U of a
parity-preserving U, and that U is a witness; a set holds one, or is not
built.  A witness of a set's descriptors is one of every subset of them, so
it belongs to the ontic state: an evolved set carries the unitary that made
it, restrictions keep their parent's, the group action and a join hand
theirs on, and every set's gate checks the one it is handed or builds one.

Because conjugation by W maps every polynomial in the f_a to the same
polynomial in the d_a, the group action ("ontic_apply") is the paper's
substitution: applying w replaces each moved mode's descriptor by
W^dag (w^dag f_a w) W.  This yields the descriptors of the composite w . u;
naive two-sided conjugation of the stored matrices would compose in the
wrong order and is deliberately not what this module does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import algebra
from .errors import ValidationError
from .fock import (
    FockOperator,
    FockVector,
    ModeSet,
    _ladder_columns,
    annihilator,
    frobenius,
    parity_sectors,
)
from .states import PhenomenalState
from .transformations import (
    PSUnitary,
    _commutator_norms,
    canonical_phase,
    invariance_support,
    validate_ps_unitary,
)

CAR_TOL = 1e-10
RECONSTRUCT_TOL = 1e-8
EQUIV_TOL = 1e-10
_UNIT_ROUNDOFF = 2.0**-53


def descriptor_algebra_residual(descriptors: Sequence[np.ndarray], dim: int) -> float:
    """Worst-case deviation of a descriptor family from the canonical relations."""
    eye = np.eye(dim)
    worst = 0.0
    for i, di in enumerate(descriptors):
        for j, dj in enumerate(descriptors):
            worst = max(worst, frobenius(di @ dj + dj @ di))
            anti = di @ dj.conj().T + dj.conj().T @ di
            target = eye if i == j else 0.0
            worst = max(worst, frobenius(anti - target))
    return worst


def _require_heisenberg_state(psi0: FockVector, n_modes: int) -> None:
    """A unit vector of the ambient space in one parity sector; each vector is graded once."""
    if psi0.n_modes != n_modes:
        raise ValidationError("dimension_mismatch", "Heisenberg state must live in the ambient space")
    psi0.require_normalized()
    if psi0._grade == algebra.GRADE_MIXED:
        raise ValidationError("ssr_violation", "Heisenberg state must live in a single parity sector")


@dataclass(frozen=True, eq=False)
class DescriptorSet:
    """Evolved annihilators of a subsystem plus the fixed Heisenberg state."""

    subsystem: ModeSet
    descriptors: tuple[FockOperator, ...]
    heisenberg_state: FockVector
    # witness W and a bound on its round-trip residual, handed over or built by the gate,
    # which refuses a set that has none
    _witness: tuple[PSUnitary, float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.subsystem.require_nonempty()
        n = self.subsystem.ambient_n
        if len(self.descriptors) != len(self.subsystem):
            raise ValidationError(
                "dimension_mismatch",
                f"{len(self.descriptors)} descriptors for {len(self.subsystem)} modes",
            )
        for d in self.descriptors:
            if d.n_modes != n:
                raise ValidationError(
                    "dimension_mismatch", "descriptors must act on the ambient space"
                )
            if algebra.parity_grade(d) != algebra.GRADE_ODD:
                raise ValidationError("not_odd", "descriptors must be parity-odd operators")
        _require_heisenberg_state(self.heisenberg_state, n)
        self._require_canonical_relations()

    def _require_canonical_relations(self) -> None:
        """The canonical-relation gate of every set, witness first.

        With a witness W, its unitarity defect delta = |W^dag W - I| and
        eps >= max_a |d_a - W^dag f_a W|, every anticommutator residual is
        at most 3 delta + 2 delta^2 + 4 (1 + delta) eps + 2 eps^2, so
        3 delta + 2 delta^2 for an evolved set's (u, 0).  W is the one the
        set was handed, else one built from its matrices and stored (the one
        place a set's witness is built); a set with none is refused.  The set
        passes when the bound is within CAR_TOL, else the exact O(m^2)
        residual decides.
        """
        try:
            witness = self._witness or _intertwiner(self.matrices(), self.n_modes)
        except (ValidationError, np.linalg.LinAlgError) as exc:
            raise ValidationError(
                "descriptor_algebra", f"descriptor set has no parity-preserving witness ({exc})"
            ) from exc
        object.__setattr__(self, "_witness", witness)
        delta, eps = witness[0].defect, witness[1]
        if 3 * delta + 2 * delta**2 + 4 * (1 + delta) * eps + 2 * eps**2 <= CAR_TOL:
            return
        residual = descriptor_algebra_residual(
            [d.matrix for d in self.descriptors], 2 ** self.n_modes
        )
        if residual > CAR_TOL:
            raise ValidationError(
                "descriptor_algebra",
                f"descriptor set violates the canonical relations ({residual:.3e})",
            )

    @property
    def n_modes(self) -> int:
        return self.subsystem.ambient_n

    def matrices(self) -> dict[int, np.ndarray]:
        return {m: d.matrix for m, d in zip(self.subsystem.indices, self.descriptors)}


def evolve_descriptors(u: PSUnitary, subsystem: ModeSet, psi0: FockVector) -> DescriptorSet:
    """Descriptor set of the subsystem after u (Heisenberg picture), with u as its witness.

    The images U^dag f_a U of the exactly even u are exactly odd and are not graded.
    """
    if subsystem.ambient_n != u.n_modes:
        raise ValidationError("dimension_mismatch", "subsystem/unitary mode counts differ")
    subsystem.require_nonempty()
    _require_heisenberg_state(psi0, u.n_modes)
    descriptors = tuple(FockOperator._trusted(u.n_modes, u.heisenberg(a)) for a in subsystem)
    return _assembled(subsystem, descriptors, psi0, (u, 0.0))


def canonical_descriptors(subsystem: ModeSet, psi0: FockVector) -> DescriptorSet:
    descriptors = tuple(annihilator(subsystem.ambient_n, a) for a in subsystem.indices)
    return DescriptorSet(subsystem, descriptors, psi0)


def equivalent_at(
    u: PSUnitary, v: PSUnitary, subsystem: ModeSet, tol: float = EQUIV_TOL
) -> bool:
    """Whether u and v define the same ontic state on the subsystem.

    Per-mode descriptor equality; at a single mode this is exactly the
    equivalence "u = (something local off-mode) . v".
    """
    subsystem.require_nonempty()
    if u.n_modes != v.n_modes or subsystem.ambient_n != u.n_modes:
        raise ValidationError("dimension_mismatch", "mode counts differ")
    return all(same_image(u.heisenberg(a), v.heisenberg(a), tol) for a in subsystem.indices)


def same_image(da: np.ndarray, db: np.ndarray, tol: float = EQUIV_TOL) -> bool:
    """Whether two Heisenberg images agree, relative to the first one's norm."""
    return frobenius(da - db) <= tol * max(1.0, frobenius(da))


def _intertwiner(desc: dict[int, np.ndarray], n_modes: int) -> tuple[PSUnitary, float]:
    """Witness W with W^dag f_a W = desc[a] for every mode a in ``desc``.

    Returns W, fixed in phase by ``canonical_phase``, and its residual
    max_a |W^dag f_a W - desc[a]|.  Raises ``degenerate_reconstruction``
    when the descriptors admit no parity-preserving witness within RECONSTRUCT_TOL.
    The joint vacuum V_d of every family, proper or full, comes from one
    routine, ``_joint_vacuum``; a full family's is one even vector.
    """
    dim = 2 ** n_modes
    modes = sorted(desc)
    mask = sum(1 << (n_modes - 1 - a) for a in modes)
    empty = (np.arange(dim) & mask) == 0
    # J sends an orthonormal basis of V_d onto the Fock states with every
    # mode of the family empty, in increasing index order
    x_d = _joint_vacuum(desc, n_modes, empty)

    # columns d^dag_S J^dag e and f^dag_S e over every subset S of the modes,
    # creators in increasing mode order; W maps the first set onto the second.
    # Each f^dag_S e is signs[c] times basis state rows[c] and the rows cover
    # every state once, so W is a signed row scatter of the first set's
    # adjoint; + 0.0 leaves no -0.0 entry, which the printed witness would show.
    rows = np.flatnonzero(empty)
    signs = np.ones(len(rows))
    for a in reversed(modes):
        partner, sign = _ladder_columns(n_modes, a)
        x_d = np.hstack([x_d, desc[a].conj().T @ x_d])
        signs = np.hstack([signs, signs * sign[partner[rows]]])
        rows = np.hstack([rows, partner[rows]])
    w = np.empty((dim, dim), dtype=complex)
    w[rows] = signs[:, None] * x_d.conj().T + 0.0
    w = canonical_phase(w, n_modes)
    try:
        witness = validate_ps_unitary(w)
    except ValidationError as exc:
        raise ValidationError(
            "degenerate_reconstruction", f"assembled witness failed validation ({exc})"
        ) from exc
    residual = _witness_residual(witness, desc)
    if residual > RECONSTRUCT_TOL:
        raise ValidationError(
            "degenerate_reconstruction",
            f"assembled witness fails the round trip (residual {residual:.3e})",
        )
    return witness, residual


def _joint_vacuum(desc: dict[int, np.ndarray], n_modes: int, empty: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the descriptors' joint vacuum V_d, sector by sector.

    Column k spans the part of V_d that J sends onto the k-th family-empty
    state.  For CAR descriptors the product of the d_a d_a^dag is the
    projector onto V_d.  In each parity sector it is applied to a seeded
    Gaussian block with one column per family-empty state of that parity,
    the block's sector rows are orthonormalised (QR), and both steps run
    once more (subspace iteration); the second Q is the basis.  Raises
    ``degenerate_reconstruction`` when a diagonal entry of the second R is
    not above one half, the projector's eigenvalue threshold, that is when
    a sector of V_d is smaller than the canonical vacuum's.
    """
    factors = [desc[a] for a in sorted(desc)]
    rng = np.random.default_rng(n_modes)
    column = np.cumsum(empty) - 1  # column of each family-empty state in x_d
    x_d = np.zeros((len(empty), np.count_nonzero(empty)), dtype=complex)
    for idx, name in zip(parity_sectors(n_modes), ("even", "odd")):
        slots = column[idx[empty[idx]]]
        if not len(slots):  # a full family's odd sector: nothing to find
            continue
        block = np.zeros((len(empty), len(slots)), dtype=complex)
        shape = (len(idx), len(slots))
        block[idx] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(2):
            block[idx], r = np.linalg.qr(_vacuum_factors(factors, block)[idx])
        kept = np.count_nonzero(np.abs(np.diagonal(r)) > 0.5)
        if kept != len(slots):
            raise ValidationError(
                "degenerate_reconstruction",
                f"the descriptors' joint vacuum has {kept} {name} states, "
                f"the canonical one {len(slots)}",
            )
        x_d[:, slots] = block
    return x_d


def _vacuum_factors(desc: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
    """The product of the d_a d_a^dag applied to the columns of y; d^dag y is (y^dag d)^dag."""
    for d in reversed(desc):
        y = d @ (y.conj().T @ d).conj().T
    return y


def _assembled(subsystem: ModeSet, descriptors: tuple, psi0: FockVector, witness) -> DescriptorSet:
    """A set of validated parts and the witness it is handed; only the relation gate runs."""
    out = object.__new__(DescriptorSet)
    object.__setattr__(out, "subsystem", subsystem)
    object.__setattr__(out, "descriptors", descriptors)
    object.__setattr__(out, "heisenberg_state", psi0)
    object.__setattr__(out, "_witness", witness)
    out._require_canonical_relations()
    return out


def ontic_apply(w: PSUnitary, d: DescriptorSet) -> DescriptorSet:
    """Group action of a transformation on an ontic state.

    The result represents the composite (w after whatever produced d): for a
    set obtained from u it equals the descriptor set of w . u.  Each moved
    mode a gets d'_a = W^dag (w^dag f_a w) W, with W the witness ``d``
    holds, one of the moved modes too.  This is the paper's
    substitution: w^dag f_a w is a polynomial in the moved modes' ladders,
    and conjugation by W is the algebra map that replaces every f_b by
    W^dag f_b W = d_b.  The frame w W is then a witness of the result,
    exact on the moved modes, which the result carries with a bound on its
    residual over the unmoved ones.  Naive two-sided conjugation of the
    stored matrices by w would compose in the wrong order and is
    deliberately not what this does.

    A lift (``transformations._lifted``) acts through the local factor it
    carries: its moved modes come from the factor, and the frame is
    ``algebra.fold_local(W.matrix.copy(), small, subsystem)``, with no dense
    product, and only the moved modes get Heisenberg images.  The frame's
    defect and its unmoved residual are bounded, not measured:
    delta_F <= delta_W + (1 + delta_W) delta_L + 2 s rho + rho^2 and
    eps_F <= eps_W + (1 + delta_W)(delta_L + c) + 2 s rho + rho^2, with the
    terms of :func:`_folded_frame`.  A bare ``w`` (JSON, a product) takes the
    dense path: the frame is ``w @ W``, its defect and residual measured.

    The moved modes must be tracked, otherwise the partial set cannot
    determine the result and a coverage error is raised.  The result is
    derived from ``d`` and grades nothing (the new images are exactly odd);
    it passes the canonical-relation gate.
    """
    if w.n_modes != d.n_modes:
        raise ValidationError("dimension_mismatch", "transformation/descriptor mode counts differ")
    moved = invariance_support(w)
    if moved.is_disjoint(d.subsystem):
        return d
    if not moved.is_subset_of(d.subsystem):
        raise ValidationError(
            "insufficient_coverage",
            f"transformation moves modes {moved.indices} but the descriptor set "
            f"only tracks {d.subsystem.indices}",
        )
    unmoved = {a: m for a, m in d.matrices().items() if a not in moved}
    if w._local is None:
        frame = w @ d._witness[0]
        witness = (frame, _witness_residual(frame, unmoved))
    else:
        witness = _folded_frame(w, d._witness, unmoved)
    images = {a: FockOperator._trusted(d.n_modes, witness[0].heisenberg(a)) for a in moved}
    new_descriptors = tuple(images.get(a, old) for a, old in zip(d.subsystem, d.descriptors))
    return _assembled(d.subsystem, new_descriptors, d.heisenberg_state, witness)


def _folded_frame(
    lift: PSUnitary, witness: tuple[PSUnitary, float], unmoved: dict[int, np.ndarray]
) -> tuple[PSUnitary, float]:
    """The frame ``lift @ W`` of a lift, folded from its factor, and a bound on its residual.

    With delta_L the lift's carried defect, (W, eps_W) the witness and
    delta_W its defect, s = sqrt((1 + delta_L)(1 + delta_W)) bounds the
    spectral norm of the exact product L W.  The fold is one product of
    ``small`` with the gathered rows of W, so its rounding E has
    |E| <= rho = sqrt(2) gamma_(2^m + 2) |small| |W| (Higham's complex
    matrix-product bound, gamma_k = k u / (1 - k u), u = 2^-53).  Then

        |F^dag F - I| <= delta_W + (1 + delta_W) delta_L + 2 s rho + rho^2,
        max_b |F^dag f_b F - d_b| <= eps_W + (1 + delta_W)(delta_L + c) + 2 s rho + rho^2,

    the latter over the unmoved modes b, where c = sqrt(1 + delta_L) max_b
    |L f_b - f_b L|, which is exactly 0 for every b off the lift's
    subsystem: there L^dag f_b L - f_b = (L^dag L - I) f_b.
    """
    small, sub = lift._local
    w_frame, eps_w = witness
    delta_l, delta_w = lift.defect, w_frame.defect
    matrix = w_frame.matrix.copy()
    algebra.fold_local(matrix, small, sub)
    k = 2 ** len(sub) + 2
    gamma = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    rho = math.sqrt(2) * gamma * frobenius(small) * frobenius(w_frame.matrix)
    rounding = 2 * math.sqrt((1 + delta_l) * (1 + delta_w)) * rho + rho**2
    norms = _commutator_norms(lift)[0]
    c = math.sqrt(1 + delta_l) * max((norms.get(b, 0.0) for b in unmoved), default=0.0)
    frame = PSUnitary._trusted(
        lift.n_modes, matrix, delta_w + (1 + delta_w) * delta_l + rounding
    )
    return frame, eps_w + (1 + delta_w) * (delta_l + c) + rounding


def ontic_project(d: DescriptorSet, subsystem: ModeSet) -> DescriptorSet:
    """Restriction of an ontic state to a subsystem: the same state seen from fewer modes.

    Keeps those modes' descriptors and the set's witness, a witness of each
    kept descriptor too, and grades nothing again; the gate reads the kept
    witness's bound, and the set's own subsystem gives back ``d`` itself.
    """
    if subsystem == d.subsystem:
        return d
    subsystem.require_nonempty()
    kept = tuple(d.descriptors[i] for i in subsystem.positions_in(d.subsystem))
    return _assembled(subsystem, kept, d.heisenberg_state, d._witness)


def phenomenal_of(d: DescriptorSet) -> PhenomenalState:
    """Phenomenal state of the subsystem determined by its descriptors.

    Expands the identity tr(E(l,p) rho_now) = <psi0| Ebar(l,p) |psi0> where
    Ebar substitutes descriptors into the monomial E(l,p); the adjoint
    pairing makes tr(E(l,p) .) the (p, l) entry of the assembled matrix.
    By the canonical relations the d_a d_a^dag are commuting projectors, so
    the result is a Gram matrix of trace 1, even as psi0 has one parity.
    """
    desc = [x.matrix for x in d.descriptors]  # in increasing mode order
    # ys[p] = (annihilators of pattern p, decreasing order) |psi0>, built by
    # doubling over the modes, the first mode the highest bit of p; it
    # doubles as the adjoint of the creator string applied to |psi0>
    ys = d.heisenberg_state.amplitudes[None, :]
    for da in desc:
        ys = np.stack([ys, ys @ da.T], axis=1).reshape(-1, ys.shape[1])
    if d.subsystem.is_full:
        # the joint vacuum of a full set is one even vector v, so its vacuum
        # projector is |v><v| and gamma is the pure state c c^dag with
        # c[p] = <v| ann_d(p) |psi0>
        vacuum = _joint_vacuum(d.matrices(), d.n_modes, np.arange(2 ** d.n_modes) == 0)
        c = ys @ vacuum[:, 0].conj()
        return PhenomenalState._trusted(d.subsystem, np.outer(c, c.conj()))
    # gamma[l, p] = <psi0| cre_d(l) vac_d ann_d(p) |psi0>, with the vacuum
    # factors applied to the 2^m vectors, so no 2^N x 2^N array is formed
    gamma = ys.conj() @ _vacuum_factors(desc, ys.T)
    return PhenomenalState._trusted(d.subsystem, np.ascontiguousarray(gamma.T))


def reconstruct_with_residual(d: DescriptorSet) -> tuple[PSUnitary, float]:
    """Recover the unique (up to phase) unitary behind a full descriptor set.

    The full-set case of the witness construction, run on the descriptor
    matrices alone, not on the witness the set carries: the joint vacuum of
    a full set is one vector, which must be even, so the witness is fixed
    up to the global phase ``canonical_phase`` picks, whatever made the set.
    Returns U and its round-trip residual max_a |U^dag f_a U - d_a|.
    """
    if not d.subsystem.is_full:
        raise ValidationError(
            "not_full", "reconstruction requires descriptors for every mode"
        )
    return _intertwiner(d.matrices(), d.n_modes)


def reconstruct_unitary(d: DescriptorSet) -> PSUnitary:
    """The unitary of :func:`reconstruct_with_residual` alone."""
    return reconstruct_with_residual(d)[0]


@dataclass(frozen=True)
class CompatibilityResult:
    """Outcome of the search for a common global extension of two local states.

    ``joined`` is the validated descriptor set on the union of the two
    subsystems, the one ``join`` returns; it and ``witness`` are ``None``
    when the states are incompatible.
    """

    compatible: bool
    witness: PSUnitary | None
    residual: float
    reason: str
    joined: DescriptorSet | None = None

    def __bool__(self) -> bool:
        return self.compatible


def _witness_residual(w: PSUnitary, merged: dict[int, np.ndarray]) -> float:
    return max((frobenius(w.heisenberg(a) - target) for a, target in merged.items()), default=0.0)


def compatible(da: DescriptorSet, db: DescriptorSet) -> CompatibilityResult:
    """Decide whether two local ontic states extend to a common global one.

    Assembles the merged descriptor set on the union from the two validated
    inputs, grading nothing again; its gate holds the witness of its
    descriptors: a unitary whose descriptors restrict to both inputs,
    handed over when both inputs carry the same one, as restrictions of one
    set do.  A union its gate refuses, for want of a parity-preserving
    witness or of the canonical relations, is incompatible, with the gate's
    message as the reason.
    Mismatched Heisenberg states are a usage error, not incompatibility,
    and raise instead.
    """
    if not da.subsystem.is_disjoint(db.subsystem):
        raise ValidationError(
            "overlapping_subsystems",
            f"subsystems {da.subsystem.indices} and {db.subsystem.indices} overlap",
        )
    union = da.subsystem.union(db.subsystem)  # also checks that the ambient sizes agree
    # |P_a - P_b|_F of unit vectors a, b is |a - e^{i arg<b|a>} b| sqrt(1 + |<a|b>|)
    va, vb = da.heisenberg_state.amplitudes, db.heisenberg_state.amplitudes
    overlap = np.vdot(vb, va)
    if frobenius(va - np.exp(1j * np.angle(overlap)) * vb) * np.sqrt(1 + abs(overlap)) > 1e-10:
        raise ValidationError(
            "heisenberg_mismatch", "descriptor sets carry different Heisenberg states"
        )

    ops = dict(zip(da.subsystem.indices + db.subsystem.indices, da.descriptors + db.descriptors))
    merged = tuple(ops[a] for a in union.indices)
    shared = da._witness if da._witness is db._witness else None  # one of the union too
    try:
        joined = _assembled(union, merged, da.heisenberg_state, shared)
    except ValidationError as exc:
        return CompatibilityResult(False, None, np.inf, str(exc))
    return CompatibilityResult(True, *joined._witness, "intertwiner", joined)


def join(da: DescriptorSet, db: DescriptorSet) -> DescriptorSet:
    """Unique recombination of two compatible local ontic states.

    Returns the descriptor set ``compatible`` built and validated on the
    union, whose witness reproduces every merged descriptor within RECONSTRUCT_TOL.
    """
    result = compatible(da, db)
    if not result:
        raise ValidationError("incompatible", f"states cannot be joined: {result.reason}")
    return result.joined
