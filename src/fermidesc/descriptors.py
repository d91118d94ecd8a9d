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

A witness of a set's descriptors is one of every subset of them, so it
belongs to the ontic state: restrictions keep their parent's, the group
action and a join of restrictions hand theirs on, a full set's gate checks
the one it is handed or builds one, and every operation takes it first.

Because conjugation by W maps every polynomial in the f_a to the same
polynomial in the d_a, the group action ("ontic_apply") is the paper's
substitution: applying w replaces each moved mode's descriptor by
W^dag (w^dag f_a w) W.  This yields the descriptors of the composite w . u;
naive two-sided conjugation of the stored matrices would compose in the
wrong order and is deliberately not what this module does.
"""

from __future__ import annotations

import copy
import functools
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
    canonical_phase,
    invariance_support,
    validate_ps_unitary,
)

CAR_TOL = 1e-10
RECONSTRUCT_TOL = 1e-8
EQUIV_TOL = 1e-10


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


def _require_odd(d: FockOperator) -> FockOperator:
    if algebra.parity_grade(d) != algebra.GRADE_ODD:
        raise ValidationError("not_odd", "descriptors must be parity-odd operators")
    return d


@dataclass(frozen=True, eq=False)
class DescriptorSet:
    """Evolved annihilators of a subsystem plus the fixed Heisenberg state."""

    subsystem: ModeSet
    descriptors: tuple[FockOperator, ...]
    heisenberg_state: FockVector
    # witness W and a bound on its round-trip residual, handed over by _derived
    # or built by a full set's gate; a restriction keeps its parent's
    _witness: tuple[PSUnitary, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
            _require_odd(d)
        if self.heisenberg_state.n_modes != n:
            raise ValidationError(
                "dimension_mismatch", "Heisenberg state must live in the ambient space"
            )
        self.heisenberg_state.require_normalized()
        if algebra.parity_grade(self.heisenberg_state.amplitudes) == algebra.GRADE_MIXED:
            raise ValidationError(
                "ssr_violation", "Heisenberg state must live in a single parity sector"
            )
        if self.subsystem.is_full:
            self._require_canonical_relations()

    def _require_canonical_relations(self) -> None:
        """The canonical-relation gate of a full set, witness first.

        With a witness W, its unitarity defect delta = |W^dag W - I| and
        eps >= max_a |d_a - W^dag f_a W|, every anticommutator residual is
        at most 3 delta + 2 delta^2 + 4 (1 + delta) eps + 2 eps^2.  W is the
        one the set was handed, else a fresh reconstruction witness.  The
        set passes when that bound is within CAR_TOL; otherwise, or when no
        witness exists, the exact O(N^2) residual decides.
        """
        try:
            witness = _witness_of(self)
        except (ValidationError, np.linalg.LinAlgError):
            pass
        else:
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
                f"full descriptor set violates the canonical relations ({residual:.3e})",
            )

    @property
    def n_modes(self) -> int:
        return self.subsystem.ambient_n

    def matrices(self) -> dict[int, np.ndarray]:
        return {m: d.matrix for m, d in zip(self.subsystem.indices, self.descriptors)}


def evolve_descriptors(u: PSUnitary, subsystem: ModeSet, psi0: FockVector) -> DescriptorSet:
    """Descriptor set of the subsystem after the unitary u (Heisenberg picture)."""
    if subsystem.ambient_n != u.n_modes:
        raise ValidationError("dimension_mismatch", "subsystem/unitary mode counts differ")
    descriptors = tuple(FockOperator(u.n_modes, u.heisenberg(a)) for a in subsystem.indices)
    return DescriptorSet(subsystem, descriptors, psi0)


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
    """
    dim = 2 ** n_modes
    modes = sorted(desc)
    # product of the d_a d_a^dag: for CAR descriptors, the projector onto V_d
    vac = functools.reduce(np.matmul, (desc[a] @ desc[a].conj().T for a in modes))

    # J sends an orthonormal basis of V_d, sector by sector, onto the Fock
    # states with every mode of the family empty, in increasing index order
    mask = sum(1 << (n_modes - 1 - a) for a in modes)
    empty = (np.arange(dim) & mask) == 0
    column = np.cumsum(empty) - 1  # column of each family-empty state in x_d
    x_d = np.zeros((dim, np.count_nonzero(empty)), dtype=complex)
    for idx, name in zip(parity_sectors(n_modes), ("even", "odd")):
        evals, evecs = np.linalg.eigh(vac[np.ix_(idx, idx)])
        kept = evecs[:, evals > 0.5]
        slots = column[idx[empty[idx]]]
        if kept.shape[1] != len(slots):
            raise ValidationError(
                "degenerate_reconstruction",
                f"the descriptors' joint vacuum has {kept.shape[1]} {name} states, "
                f"the canonical one {len(slots)}",
            )
        x_d[np.ix_(idx, slots)] = kept

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


def _witness_of(d: DescriptorSet) -> tuple[PSUnitary, float]:
    """Witness of a set's descriptors: the stored one, else a fresh one."""
    return d._witness or _intertwiner(d.matrices(), d.n_modes)


def _derived(d: DescriptorSet, subsystem: ModeSet, descriptors: tuple, witness) -> DescriptorSet:
    """A copy of the validated ``d`` with validated descriptors of its system and a new witness.

    Nothing is graded again; only a full set's canonical-relation gate runs.
    """
    out = copy.copy(d)
    object.__setattr__(out, "subsystem", subsystem)
    object.__setattr__(out, "descriptors", descriptors)
    object.__setattr__(out, "_witness", witness)
    if subsystem.is_full:
        out._require_canonical_relations()
    return out


def ontic_apply(w: PSUnitary, d: DescriptorSet) -> DescriptorSet:
    """Group action of a transformation on an ontic state.

    The result represents the composite (w after whatever produced d): for a
    set obtained from u it equals the descriptor set of w . u.  Each moved
    mode a gets d'_a = W^dag (w^dag f_a w) W, with W the witness of the
    moved modes' restriction (the one a full set and its restrictions
    carry).  This is the paper's substitution: w^dag f_a w is a polynomial
    in the moved modes' ladders, and conjugation by W is the algebra map
    that replaces every f_b by W^dag f_b W = d_b.  The frame w W is then a
    witness of the result, exact on the moved modes, which the result
    carries when ``d`` carries one.  Naive
    two-sided conjugation of the stored matrices by w would compose in the
    wrong order and is deliberately not what this does.

    The moved modes must be tracked, otherwise the partial set cannot
    determine the result and a coverage error is raised; descriptors on
    them that no unitary produces are rejected with ``descriptor_algebra``.
    The result is derived from ``d``: only the new images are graded
    (``not_odd``), and a full result passes the canonical-relation gate.
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
    try:
        witness, _ = _witness_of(ontic_project(d, moved))
    except ValidationError as exc:
        raise ValidationError(
            "descriptor_algebra",
            f"descriptors of the moved modes {moved.indices} are not unitarily "
            f"conjugate to the canonical family ({exc})",
        ) from exc
    frame = w @ witness
    images = {a: _require_odd(FockOperator(d.n_modes, frame.heisenberg(a))) for a in moved}
    new_descriptors = tuple(images.get(a, old) for a, old in zip(d.subsystem, d.descriptors))
    unmoved = {a: m for a, m in d.matrices().items() if a not in moved}
    carried = d._witness and (frame, _witness_residual(frame, unmoved))
    return _derived(d, d.subsystem, new_descriptors, carried)


def ontic_project(d: DescriptorSet, subsystem: ModeSet) -> DescriptorSet:
    """Restriction of an ontic state to a subsystem: the same state seen from fewer modes.

    Keeps those modes' descriptors and the set's witness, a witness of each
    kept descriptor too; the set's own subsystem gives back ``d`` itself.
    The restriction is derived from the validated parent, a proper subset
    of its modes, so nothing is graded or gated again.
    """
    if subsystem == d.subsystem:
        return d
    subsystem.require_nonempty()
    kept = tuple(d.descriptors[i] for i in subsystem.positions_in(d.subsystem))
    return _derived(d, subsystem, kept, d._witness)


def phenomenal_of(d: DescriptorSet) -> PhenomenalState:
    """Phenomenal state of the subsystem determined by its descriptors.

    Expands the identity tr(E(l,p) rho_now) = <psi0| Ebar(l,p) |psi0> where
    Ebar substitutes descriptors into the monomial E(l,p); the adjoint
    pairing makes tr(E(l,p) .) the (p, l) entry of the assembled matrix.
    """
    desc = [x.matrix for x in d.descriptors]  # in increasing mode order
    # ys[p] = (annihilators of pattern p, decreasing order) |psi0>, built by
    # doubling over the modes, the first mode the highest bit of p; it
    # doubles as the adjoint of the creator string applied to |psi0>
    ys = d.heisenberg_state.amplitudes[None, :]
    for da in desc:
        ys = np.stack([ys, ys @ da.T], axis=1).reshape(-1, ys.shape[1])
    # the vacuum factors d_a d_a^dag applied to the 2^m vectors, last factor
    # first; d^dag z is conj(d^T conj(z)), so no 2^N x 2^N array is formed
    vac_ys = ys.T
    for da in reversed(desc):
        vac_ys = da @ (da.T @ vac_ys.conj()).conj()
    gamma = ys.conj() @ vac_ys  # gamma[l, p] = <psi0| cre_d(l) vac_d ann_d(p) |psi0>
    try:
        return PhenomenalState(d.subsystem, gamma.T)
    except ValidationError as exc:
        raise ValidationError(
            "internal_inconsistency",
            f"descriptor substitution produced an invalid state ({exc})",
        ) from exc


def reconstruct_with_residual(d: DescriptorSet) -> tuple[PSUnitary, float]:
    """Recover the unique (up to phase) unitary behind a full descriptor set.

    The full-set case of the witness construction: the joint vacuum of a
    full set is one vector, which must be even, so the witness is fixed up
    to a global phase: ``canonical_phase``'s for a witness the gate built,
    ``w``'s for an ``ontic_apply`` frame.  The set passed that gate when it
    was built, which kept the witness it was handed or stored the one it
    built.  Returns U and its round-trip residual max_a |U^dag f_a U - d_a|.
    """
    if not d.subsystem.is_full:
        raise ValidationError(
            "not_full", "reconstruction requires descriptors for every mode"
        )
    return _witness_of(d)


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

    Derives the merged descriptor set on the union from the two validated
    inputs, grading nothing again (a full union passes the canonical-relation
    gate), and builds the witness of its descriptors: a unitary whose
    descriptors restrict to both inputs, handed over when both inputs carry
    the same one, as restrictions of one set do.
    Either failing gives an incompatible verdict.  Mismatched Heisenberg
    states are a usage error, not incompatibility, and raise instead.
    """
    if not da.subsystem.is_disjoint(db.subsystem):
        raise ValidationError(
            "overlapping_subsystems",
            f"subsystems {da.subsystem.indices} and {db.subsystem.indices} overlap",
        )
    union = da.subsystem.union(db.subsystem)  # also checks that the ambient sizes agree
    pa = da.heisenberg_state.projector().matrix
    pb = db.heisenberg_state.projector().matrix
    if frobenius(pa - pb) > 1e-10:
        raise ValidationError(
            "heisenberg_mismatch", "descriptor sets carry different Heisenberg states"
        )

    ops = dict(zip(da.subsystem.indices + db.subsystem.indices, da.descriptors + db.descriptors))
    merged = tuple(ops[a] for a in union.indices)
    shared = da._witness if da._witness is db._witness else None  # one of the union too
    try:
        joined = _derived(da, union, merged, shared)
        witness, residual = _witness_of(joined)
    except ValidationError as exc:
        return CompatibilityResult(False, None, np.inf, str(exc))
    return CompatibilityResult(True, witness, residual, "intertwiner", joined)


def join(da: DescriptorSet, db: DescriptorSet) -> DescriptorSet:
    """Unique recombination of two compatible local ontic states.

    Returns the descriptor set ``compatible`` built and validated on the
    union, whose witness reproduces every merged descriptor within RECONSTRUCT_TOL.
    """
    result = compatible(da, db)
    if not result:
        raise ValidationError("incompatible", f"states cannot be joined: {result.reason}")
    return result.joined
