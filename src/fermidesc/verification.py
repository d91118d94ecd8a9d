"""Executable theorem checks returning structured evidence.

Each checker is deterministic given its inputs and seeds, declares the
tolerance it was run at, and reports the worst residual it observed along
with a per-instance breakdown.  The test suite and the CLI both consume
these; neither re-implements the physics.

Negative controls are first-class: a checker run in negative-control mode
passes exactly when the doctored input makes the property fail, which
guards against vacuous green runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, descriptors as dsc
from .errors import ValidationError
from .fock import (
    FockVector,
    ModeSet,
    _check_n_modes,
    _ladder_columns,
    annihilator,
    anticommutator,
    commutator,
    creator,
    fock_basis_state,
    frobenius,
    identity,
    parity_sectors,
    vacuum_state,
)
from .states import PhenomenalState, partial_trace, partial_trace_jw
from .transformations import (
    PSUnitary,
    _checked_seed,
    exp_hamiltonian,
    is_local_unitary,
    local_random_ps_unitary,
    phase_distance,
    random_ps_unitary,
    validate_ps_unitary,
)

TRACE_CROSS_TOL = 1e-10

# default tolerance of each check family a scenario can request
CHECK_TOLERANCES = {
    "diagram": 1e-9, "no_signalling": 1e-9, "locality_invariance": 1e-10, "ontic_properties": 1e-9
}
# tolerance of every sweep family, by its result's name; a family that raises reports it too
SWEEP_TOLERANCES = {
    "canonical_algebra": 1e-10, "ssr_gatekeeping": 0.0, "qubit_ladders": 0.0,
    "locality_invariance": CHECK_TOLERANCES["locality_invariance"],
    "no_signalling": CHECK_TOLERANCES["no_signalling"],
    "descriptor_equivalence": 1e-9, "reconstruction": 1e-8, "epimorphism": 1e-10,
    "diagram": CHECK_TOLERANCES["diagram"],
    "ontic_property_list": CHECK_TOLERANCES["ontic_properties"],
    "ontic_property_list_negative_control": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification family: worst residual vs declared tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    details: tuple[dict, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        """The report entry; a non-finite residual (a family that raised) is written as null."""
        residual = float(self.residual)
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": residual if math.isfinite(residual) else None,
            "tolerance": float(self.tolerance),
            "details": list(self.details),
        }


def random_phenomenal(n_modes: int, seed: int) -> PhenomenalState:
    """Random parity-superselected density operator (mixed, full rank a.s.)."""
    _check_n_modes(n_modes)  # before anything of that size is allocated
    rng = np.random.default_rng(_checked_seed(seed))
    probs = rng.random(2 ** n_modes)
    probs /= probs.sum()
    u = random_ps_unitary(n_modes, seed)
    rho = (u.matrix * probs[None, :]) @ u.matrix.conj().T
    return PhenomenalState._trusted(ModeSet.full(n_modes), rho)


def random_sector_state(n_modes: int, seed: int) -> FockVector:
    """Random pure state supported on a single parity sector."""
    _check_n_modes(n_modes)  # before anything of that size is allocated
    seed = _checked_seed(seed)
    rng = np.random.default_rng(seed)
    idx = parity_sectors(n_modes)[seed % 2]
    v = np.zeros(2 ** n_modes, dtype=complex)
    v[idx] = rng.standard_normal(len(idx)) + 1.0j * rng.standard_normal(len(idx))
    v /= np.linalg.norm(v)
    return FockVector(n_modes, v)


def check_no_signalling(
    rho: PhenomenalState,
    u_a: PSUnitary,
    v_b: PSUnitary,
    part_a: ModeSet,
    part_b: ModeSet,
    tol: float = CHECK_TOLERANCES["no_signalling"],
) -> CheckResult:
    """Operations local to B cannot change the reduction to A, in both forms."""
    part_a.require_nonempty()
    part_b.require_nonempty()
    if not part_a.is_disjoint(part_b):
        raise ValidationError("overlapping_subsystems", "partitions overlap")
    if part_a.union(part_b).indices != rho.subsystem.indices:
        raise ValidationError(
            "not_partition", "partitions must exactly cover the state's modes"
        )
    n = rho.n_modes
    pos_a = ModeSet(part_a.positions_in(rho.subsystem), n)
    pos_b = ModeSet(part_b.positions_in(rho.subsystem), n)
    if u_a.n_modes != n or v_b.n_modes != n:
        raise ValidationError("dimension_mismatch", "unitaries must act on the state's space")
    u_small = algebra.compress_local_operator(u_a.as_operator(), pos_a)  # not_local otherwise
    if not is_local_unitary(v_b, pos_b):
        raise ValidationError("not_local", f"v_b is not local to modes {part_b.indices}")

    conj_b = v_b.matrix @ rho.matrix @ v_b.matrix.conj().T
    reduced = partial_trace(rho, part_a)
    res_2 = frobenius(
        partial_trace(PhenomenalState._trusted(rho.subsystem, conj_b), part_a).matrix
        - reduced.matrix
    )

    joint = u_a.matrix @ conj_b @ u_a.matrix.conj().T
    left = partial_trace(PhenomenalState._trusted(rho.subsystem, joint), part_a)
    right = u_small @ reduced.matrix @ u_small.conj().T
    res_1 = frobenius(left.matrix - right)
    residual = max(res_1, res_2)
    detail = {
        "part_a": list(part_a.indices),
        "part_b": list(part_b.indices),
        "joint_form_residual": res_1,
        "invariance_form_residual": res_2,
    }
    return CheckResult("no_signalling", residual <= tol, residual, tol, (detail,))


def check_locality_invariance(
    u_local: PSUnitary, inside: ModeSet, *, tol: float = CHECK_TOLERANCES["locality_invariance"]
) -> CheckResult:
    """A unitary local to some modes leaves every other mode's annihilator alone."""
    if inside.is_empty or inside.is_full:
        raise ValidationError("empty_subsystem", f"no mode inside or outside {inside.indices}")
    if not is_local_unitary(u_local, inside):
        raise ValidationError("not_local", f"unitary is not local to {inside.indices}")
    details = []
    for j in inside.complement().indices:
        partner, sign = _ladder_columns(inside.ambient_n, j)
        image = u_local.heisenberg(j)
        image[partner, np.arange(len(partner))] -= sign  # U^dag f_j U - f_j, in place
        details.append(
            {"inside": list(inside.indices), "outside_mode": j, "residual": frobenius(image)}
        )
    residual = max(detail["residual"] for detail in details)
    return CheckResult("locality_invariance", residual <= tol, residual, tol, tuple(details))


def check_diagram(
    d: dsc.DescriptorSet, subsets: list[ModeSet], tol: float = CHECK_TOLERANCES["diagram"]
) -> CheckResult:
    """Reduce-then-map equals map-then-reduce for each of the given subsets.

    The global state is read from the full set once.  Each subset is also
    a cross-check of the two independent partial-trace implementations;
    they must agree for the check to pass.  An empty list is refused, since
    it would pass vacuously.
    """
    if not subsets:
        raise ValidationError("empty_subsystem", "diagram check needs at least one subset")
    if not d.subsystem.is_full:
        raise ValidationError("not_full", "diagram check needs a full descriptor set")
    global_state = dsc.phenomenal_of(d)
    details = []
    for j_subset in subsets:
        j_subset.require_nonempty()
        left = partial_trace(global_state, j_subset)
        right = dsc.phenomenal_of(dsc.ontic_project(d, j_subset))
        cross = frobenius(partial_trace_jw(global_state, j_subset).matrix - left.matrix)
        if cross > TRACE_CROSS_TOL:
            raise ValidationError(
                "internal_inconsistency",
                f"the two partial-trace implementations disagree ({cross:.3e})",
            )
        details.append(
            {
                "j_subset": list(j_subset.indices),
                "residual": frobenius(left.matrix - right.matrix),
                "partial_trace_cross_residual": cross,
            }
        )
    residual = max(detail["residual"] for detail in details)
    return CheckResult("diagram", residual <= tol, residual, tol, tuple(details))


def _descriptor_distance(a: dsc.DescriptorSet, b: dsc.DescriptorSet) -> float:
    """Largest Frobenius distance between corresponding descriptors of two sets."""
    return max(frobenius(x.matrix - y.matrix) for x, y in zip(a.descriptors, b.descriptors))


def _random_disjoint_pair(rng: np.random.Generator, n_modes: int):
    """Two disjoint non-empty mode sets; their union may or may not be everything."""
    modes = list(range(n_modes))
    rng.shuffle(modes)
    size_a = int(rng.integers(1, n_modes))
    size_b = int(rng.integers(1, n_modes - size_a + 1))
    a = ModeSet.of(modes[:size_a], n_modes)
    b = ModeSet.of(modes[size_a : size_a + size_b], n_modes)
    return a, b


def _required(items, family: str) -> list:
    """A family's seeds or runs as a list; an empty one would pass vacuously, so it is refused."""
    items = list(items)
    if not items:
        raise ValidationError("bad_schema", f"{family} needs at least one seed")
    return items


def check_ontic_property_list(
    seeds,
    n_modes: int,
    tol: float = CHECK_TOLERANCES["ontic_properties"],
    negative_control: bool = False,
) -> CheckResult:
    """The four structural properties of ontic states, randomized.

    1. applying V then reading off a subsystem equals the subsystem state of
       the composite evolution;
    2. restricting in two steps equals restricting once;
    3. the join of two restrictions recovers the restriction to the union,
       and does so identically for distinct witnesses;
    4. transformations local to a disjoint region act trivially.

    With ``negative_control=True`` property 4 is fed a global transformation
    instead of a local one, properties 1-3 are not computed, and the check
    passes iff the property *fails*.  An empty seed list is refused, since
    it would pass vacuously, and each seed is checked before any is used.
    """
    if n_modes < 2:
        raise ValidationError("mode_out_of_range", "property list needs at least 2 modes")
    seeds = [_checked_seed(seed) for seed in _required(seeds, "property list")]
    full = ModeSet.full(n_modes)
    details = []
    worst = 0.0
    control_violations = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        psi0 = random_sector_state(n_modes, seed * 7 + 3)
        v = random_ps_unitary(n_modes, seed * 7 + 5)
        a, b = _random_disjoint_pair(rng, n_modes)
        if negative_control:  # property 4 fed a global transformation, alone
            w_bad = random_ps_unitary(n_modes, seed * 7 + 7)
            acted = dsc.evolve_descriptors(w_bad @ v, b, psi0)
            base = dsc.evolve_descriptors(v, b, psi0)
            r4 = _descriptor_distance(acted, base)
            if r4 > tol:
                control_violations += 1
            details.append({"seed": seed, "control_residual": r4})
            continue
        u = random_ps_unitary(n_modes, seed * 7 + 4)
        union = a.union(b)
        d_full = dsc.evolve_descriptors(u, full, psi0)

        # 1. V * [U] = [VU] after restriction to a, V applied to the bare matrices
        bare = dsc._assembled(full, d_full.descriptors, psi0, None)
        applied = dsc.ontic_project(dsc.ontic_apply(v, bare), a)
        composed = dsc.evolve_descriptors(v @ u, a, psi0)
        r1 = _descriptor_distance(applied, composed)

        # 2. restriction composes
        two_step = dsc.ontic_project(dsc.ontic_project(d_full, union), a)
        one_step = dsc.ontic_project(d_full, a)
        r2 = _descriptor_distance(two_step, one_step)

        # 3. join of restrictions, with witness uniqueness
        da = dsc.ontic_project(d_full, a)
        db = dsc.ontic_project(d_full, b)
        result = dsc.compatible(da, db)
        if not result:
            raise ValidationError("incompatible", f"states cannot be joined: {result.reason}")
        joined, witness = result.joined, result.witness
        reference = dsc.ontic_project(d_full, union)
        r3 = _descriptor_distance(joined, reference)
        if union.is_full:
            other = PSUnitary(n_modes, np.exp(0.37j) * witness.matrix)
        else:
            other = local_random_ps_unitary(union.complement(), seed * 7 + 6) @ witness
        r3 = max(r3, dsc._witness_residual(other, joined.matrices()))

        # 4. disjoint-local actions are trivial
        w_a = local_random_ps_unitary(a, seed * 7 + 7)
        db_v = dsc.evolve_descriptors(v, b, psi0)
        acted = dsc.ontic_apply(w_a, db_v)
        r4 = _descriptor_distance(acted, db_v)

        worst = max(worst, r1, r2, r3, r4)
        details.append(
            {
                "seed": seed,
                "a": list(a.indices),
                "b": list(b.indices),
                "compose_residual": r1,
                "project_residual": r2,
                "join_residual": r3,
                "disjoint_action_residual": r4,
            }
        )
    if negative_control:  # the residual counts missed detections, so passed <=> residual <= 0
        missed = float(len(details) - control_violations)
        name = "ontic_property_list_negative_control"
        return CheckResult(name, missed <= 0.0, missed, 0.0, tuple(details))
    return CheckResult("ontic_property_list", worst <= tol, worst, tol, tuple(details))


# --- sweep families used by the CLI and the acceptance suite ---------------


def check_canonical_algebra(
    n_modes: int, seeds, tol: float = SWEEP_TOLERANCES["canonical_algebra"]
) -> CheckResult:
    """Exact relations on constructed operators; stability under conjugation."""
    ladders = [annihilator(n_modes, i).matrix for i in range(n_modes)]
    constructed = dsc.descriptor_algebra_residual(ladders, 2 ** n_modes)
    conjugated = 0.0
    for seed in seeds:
        u = random_ps_unitary(n_modes, seed)
        evolved = [u.heisenberg(i) for i in range(n_modes)]
        conjugated = max(
            conjugated, dsc.descriptor_algebra_residual(evolved, 2 ** n_modes)
        )
    detail = {
        "n_modes": n_modes,
        "constructed_residual": constructed,
        "conjugated_residual": conjugated,
    }
    # construction must be exact; any deviation at all is a failure
    residual = conjugated if constructed == 0.0 else float("inf")
    return CheckResult("canonical_algebra", residual <= tol, residual, tol, (detail,))


def check_ssr_gatekeeping(n_modes: int, seeds) -> CheckResult:
    """Forbidden parity-mixing inputs are rejected; sector-Haar samples and their squares pass.

    The forbidden inputs include a descriptor set that obeys the canonical
    relations but that no parity-preserving unitary produces.
    """
    failures = []
    # canonical, but its joint vacuum |10> is odd: no parity-preserving unitary makes it
    particle_hole = (creator(2, 0), annihilator(2, 1))
    # (what is refused, its noun, the code it must be refused with, the input)
    forbidden = (
        ("parity-mixing state", "state", "ssr_violation",
         lambda: PhenomenalState(ModeSet.full(1), 0.5 * np.ones((2, 2), dtype=complex))),
        ("parity-odd generator", "generator", "ssr_violation",
         lambda: exp_hamiltonian(annihilator(2, 0) + creator(2, 0))),
        ("parity-mixing unitary", "unitary", "ssr_violation",
         lambda: validate_ps_unitary(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))),
        ("descriptor set without a parity-preserving witness", "descriptor set", "descriptor_algebra",
         lambda: dsc.DescriptorSet(ModeSet.full(2), particle_hole, vacuum_state(2))),
    )
    for what, noun, code, build in forbidden:
        try:
            build()
            failures.append(f"{what} accepted")
        except ValidationError as exc:
            if exc.code != code:
                failures.append(f"{noun} rejected with wrong code {exc.code}")

    for seed in seeds:
        sample = random_ps_unitary(n_modes, seed)
        try:  # the sampler and @ trust their parts, so their matrices are graded here
            validate_ps_unitary(sample.matrix)
            square = sample @ sample
            measured = validate_ps_unitary(square.matrix).defect
        except ValidationError:
            failures.append(f"sector-Haar sample rejected at seed {seed}")
            continue
        if not math.isclose(square.defect, measured, rel_tol=1e-9):
            failures.append(f"a product carries a defect its matrix lacks at seed {seed}")
    detail = {"n_modes": n_modes, "failures": failures}
    return CheckResult("ssr_gatekeeping", not failures, float(len(failures)), 0.0, (detail,))


def check_descriptor_equivalence(
    n_modes: int, seeds, tol: float = SWEEP_TOLERANCES["descriptor_equivalence"]
) -> CheckResult:
    """Descriptor equality at a mode is off-mode locality of u v^dag; generic pairs fail it."""
    seeds = [_checked_seed(seed) for seed in _required(seeds, "descriptor equivalence")]
    worst = 0.0
    details = []
    ok = True
    for seed in seeds:
        rng = np.random.default_rng(seed)
        mode = int(rng.integers(n_modes))
        complement = ModeSet.of(
            [m for m in range(n_modes) if m != mode], n_modes
        )
        v = random_ps_unitary(n_modes, seed * 3 + 1)
        w = local_random_ps_unitary(complement, seed * 3 + 2)
        u = w @ v

        vf = v.heisenberg(mode)
        uf = u.heisenberg(mode)
        forward = frobenius(uf - vf)
        worst = max(worst, forward)
        if not dsc.same_image(uf, vf, tol):
            ok = False

        # converse: an equivalent pair's quotient must be local off-mode
        quotient = u @ v.dag()
        loc_res = algebra.locality_residual(quotient.as_operator(), complement)
        worst = max(worst, loc_res)

        # generic pairs are inequivalent
        g = random_ps_unitary(n_modes, seed * 3 + 3)
        gf = (g @ v).heisenberg(mode)
        if dsc.same_image(gf, vf, tol):
            ok = False
            details.append({"seed": seed, "note": "false positive equivalence"})
        details.append(
            {
                "seed": seed,
                "mode": mode,
                "descriptor_residual": forward,
                "quotient_locality_residual": loc_res,
            }
        )
    return CheckResult("descriptor_equivalence", ok and worst <= tol, worst, tol, tuple(details))


def check_reconstruction(runs, tol: float = SWEEP_TOLERANCES["reconstruction"]) -> CheckResult:
    """Forward-evolve, reconstruct, and compare phase-blind; round trip too."""
    runs = [(n, _checked_seed(seed)) for n, seed in _required(runs, "reconstruction")]
    worst = 0.0
    details = []
    for n_modes, seed in runs:
        u = random_ps_unitary(n_modes, seed)
        psi0 = vacuum_state(n_modes)
        d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
        rec, round_trip = dsc.reconstruct_with_residual(d)
        dist = phase_distance(rec.matrix, u.matrix)
        worst = max(worst, dist, round_trip)
        details.append(
            {
                "n_modes": n_modes,
                "seed": seed,
                "phase_blind_distance": dist,
                "round_trip_residual": round_trip,
            }
        )
    return CheckResult("reconstruction", worst <= tol, worst, tol, tuple(details))


def check_epimorphism(runs, tol: float = SWEEP_TOLERANCES["epimorphism"]) -> CheckResult:
    """Full-set descriptor states equal direct Schroedinger evolution."""
    runs = [(n, _checked_seed(seed)) for n, seed in _required(runs, "epimorphism")]
    worst = 0.0
    details = []
    for n_modes, seed in runs:
        u = random_ps_unitary(n_modes, seed)
        psi0 = random_sector_state(n_modes, seed + 17)
        d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
        lhs = dsc.phenomenal_of(d).matrix
        evolved = u.matrix @ psi0.projector().matrix @ u.matrix.conj().T
        residual = frobenius(lhs - evolved)
        worst = max(worst, residual)
        details.append({"n_modes": n_modes, "seed": seed, "residual": residual})
    return CheckResult("epimorphism", worst <= tol, worst, tol, tuple(details))


def check_qubit_ladders(n_qubits: int) -> CheckResult:
    """Exact relations of the stringless qubit lowering operators."""
    worst = 0.0
    ground = fock_basis_state(n_qubits, [0] * n_qubits).amplitudes
    for j in range(n_qubits):
        q = algebra.qubit_ladder(n_qubits, j)
        worst = max(worst, frobenius((q @ q).matrix))
        worst = max(
            worst, frobenius(anticommutator(q, q.dag()).matrix - identity(n_qubits).matrix)
        )
        worst = max(worst, float(np.linalg.norm(q.matrix @ ground)))
        for i in range(j):
            worst = max(
                worst, frobenius(commutator(algebra.qubit_ladder(n_qubits, i), q).matrix)
            )
    # regenerate the Pauli pair from the ladder and its adjoint
    q0 = algebra.qubit_ladder(n_qubits, 0)
    sx = q0 + q0.dag()
    sy = -1.0j * (q0 - q0.dag())
    rest = np.eye(2 ** (n_qubits - 1), dtype=complex)
    zero = np.zeros_like(rest)
    sx_target = np.block([[zero, rest], [rest, zero]])  # sigma_x (x) I
    sy_target = np.block([[zero, -1j * rest], [1j * rest, zero]])
    worst = max(worst, frobenius(sx.matrix - sx_target))
    worst = max(worst, frobenius(sy.matrix - sy_target))
    detail = {"n_qubits": n_qubits, "residual": worst}
    return CheckResult("qubit_ladders", worst == 0.0, worst, 0.0, (detail,))


def proper_subsets(n_modes: int):
    modes = range(n_modes)
    for size in range(1, n_modes):
        yield from (ModeSet(s, n_modes) for s in itertools.combinations(modes, size))


def bipartitions(n_modes: int):
    """Unordered splits of the full mode set into two non-empty parts."""
    full = set(range(n_modes))
    seen = set()
    for subset in proper_subsets(n_modes):
        rest = tuple(sorted(full - set(subset.indices)))
        key = frozenset((subset.indices, rest))
        if key in seen:
            continue
        seen.add(key)
        yield subset, ModeSet(rest, n_modes)


def _merge(name: str, results: list[CheckResult], tol: float) -> CheckResult:
    details = tuple(d for r in results for d in r.details)
    residual = max((r.residual for r in results), default=0.0)
    passed = all(r.passed for r in results)
    return CheckResult(name, passed, residual, tol, details)


def _family(name: str, run) -> CheckResult:
    """A family's result; the sweep builds its own inputs, so an error inside is a failure.

    A failed family's residual is infinite; its one detail holds the error's code and message.
    """
    try:
        return run()
    except ValidationError as exc:
        detail = {"error": {"code": exc.code, "message": exc.args[0]}}
        return CheckResult(name, False, math.inf, SWEEP_TOLERANCES[name], (detail,))


def run_sweep(n_modes: int, base_seed: int, count: int) -> list[CheckResult]:
    """The full randomized verification battery at one system size.

    The arguments, the mode cap included, are checked before any family
    runs; a family that raises fails (see :func:`_family`).
    """
    if n_modes < 2:
        raise ValidationError(
            "mode_out_of_range",
            "the sweep needs at least 2 modes (locality and signalling checks "
            "are vacuous on a single mode)",
        )
    _check_n_modes(n_modes)
    if count < 1:
        raise ValidationError("bad_schema", "count must be at least 1")
    if base_seed < 0:
        raise ValidationError("bad_schema", "the base seed must be >= 0")
    seeds = [base_seed + i for i in range(count)]

    def locality():
        loc = []
        for subset in proper_subsets(n_modes):
            for seed in seeds[: max(1, count // max(1, n_modes))]:
                u = local_random_ps_unitary(subset, seed)
                loc.append(check_locality_invariance(u, subset))
        return _merge("locality_invariance", loc, SWEEP_TOLERANCES["locality_invariance"])

    def no_signalling():
        nosig = []
        pairs = list(bipartitions(n_modes))
        for i, seed in enumerate(seeds):
            part_a, part_b = pairs[i % len(pairs)]
            rho = random_phenomenal(n_modes, seed)
            u_a = local_random_ps_unitary(part_a, seed * 2 + 1)
            v_b = local_random_ps_unitary(part_b, seed * 2 + 2)
            nosig.append(check_no_signalling(rho, u_a, v_b, part_a, part_b))
        return _merge("no_signalling", nosig, SWEEP_TOLERANCES["no_signalling"])

    def diagram():
        diag = []
        for seed in seeds[: max(1, count // 2)]:
            u = random_ps_unitary(n_modes, seed)
            psi0 = random_sector_state(n_modes, seed + 23)
            d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
            diag.append(check_diagram(d, list(proper_subsets(n_modes))))
        return _merge("diagram", diag, SWEEP_TOLERANCES["diagram"])

    runs = [(n_modes, s) for s in seeds]
    control_seeds = seeds[: max(3, count // 10)]
    families = [
        ("canonical_algebra", lambda: check_canonical_algebra(n_modes, seeds)),
        ("ssr_gatekeeping", lambda: check_ssr_gatekeeping(n_modes, seeds)),
        ("qubit_ladders", lambda: check_qubit_ladders(n_modes)),
        ("locality_invariance", locality),
        ("no_signalling", no_signalling),
        ("descriptor_equivalence", lambda: check_descriptor_equivalence(n_modes, seeds)),
        ("reconstruction", lambda: check_reconstruction(runs)),
        ("epimorphism", lambda: check_epimorphism(runs)),
        ("diagram", diagram),
        ("ontic_property_list", lambda: check_ontic_property_list(seeds, n_modes)),
        (
            "ontic_property_list_negative_control",
            lambda: check_ontic_property_list(control_seeds, n_modes, negative_control=True),
        ),
    ]
    return [_family(name, run) for name, run in families]
