"""Command-line front end: scenario runs, verification sweeps, reconstruction.

Exit codes: 0 all requested checks passed; 1 a check failed; 2 the input was
not valid JSON; 3 a validation error (including superselection violations),
reported with the offending field path, or an ``-o`` file that cannot be
opened or written (``bad_output`` at ``output``).  A reader that closes standard
output early does not change the exit code.  Reports are deterministic for
a fixed scenario and seeds except for the ``timings`` block; their text is
``json.dumps(report, sort_keys=True, indent=2, default=serialize.plain)``
plus a newline, which :func:`fermidesc.serialize.write_json` writes with
each dense array filled in at its place, not held as one string.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from . import algebra, descriptors as dsc
from . import serialize, verification as vf
from .errors import ScenarioParseError, ValidationError, at_field
from .fock import FockOperator, FockVector, ModeSet, _check_n_modes, basis_index, fock_basis_state
from .states import PhenomenalState, partial_trace
from .transformations import (
    PSUnitary,
    _gate_small,
    exp_hamiltonian,
    local_random_ps_unitary,
    phase_distance,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _fail(code: str, message: str, field: str):
    raise ValidationError(code, message, field=field)


def _occupation(occ, n_modes: int, field: str) -> list[int]:
    if (
        not isinstance(occ, list)
        or len(occ) != n_modes
        or any(type(o) is not int or o not in (0, 1) for o in occ)
    ):
        _fail("bad_schema", f"occupation must be a 0/1 list of length {n_modes}", field)
    return occ


def _build_initial_state(entry, n_modes: int) -> FockVector:
    field = "initial_state"
    if not isinstance(entry, list) or not entry:
        _fail("bad_schema", "initial_state must be a non-empty list", field)
    if all(type(x) is int for x in entry):
        return fock_basis_state(n_modes, _occupation(entry, n_modes, field))
    amplitudes = np.zeros(2 ** n_modes, dtype=complex)
    largest = 0.0
    parities = set()
    for i, term in enumerate(entry):
        tfield = f"{field}[{i}]"
        if not isinstance(term, dict) or "occupation" not in term or "amplitude" not in term:
            _fail("bad_schema", "entries are 0/1 occupations or occupation/amplitude terms", tfield)
        occ = _occupation(term["occupation"], n_modes, tfield)
        amp = serialize.json_to_complex(term["amplitude"], f"{tfield}.amplitude")
        parities.add(sum(occ) % 2)
        with np.errstate(over="ignore"):  # an overflowed sum is refused below
            amplitudes[basis_index(n_modes, occ)] += amp
        largest = max(largest, abs(amp.real), abs(amp.imag))
    if len(parities) > 1:
        _fail(
            "ssr_violation",
            "superposition mixes even- and odd-parity occupations",
            field,
        )
    if not np.isfinite(amplitudes).all():
        _fail("not_finite", "the amplitudes of one occupation sum beyond the float range", field)
    # zero is judged against the largest term, so terms that cancel are refused
    parts = amplitudes.view(float)
    peak = float(np.abs(parts).max())
    if peak <= 1e-12 * largest:
        _fail("bad_schema", "initial state has zero norm", field)
    # g = amplitudes / 2^e has its largest part in [1/2, 1), so its norm
    # neither overflows nor underflows, and a power of two moves no bit
    g = np.ldexp(parts, -math.frexp(peak)[1]).view(complex)
    return FockVector(n_modes, g / np.linalg.norm(g))


def _build_gate(entry, index: int, n_modes: int) -> tuple[np.ndarray, ModeSet]:
    """A gate entry as a unitary on its own modes and those modes.

    A named gate is its closed-form 2^m x 2^m matrix; a ``hamiltonian``
    gate is the validated ``exp(i H)`` on all the modes.
    """
    field = f"gates[{index}]"
    if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
        _fail("bad_schema", "gate entries are objects with a string kind", field)
    kind = entry["kind"]
    with at_field(field):
        if kind == "hamiltonian":
            matrix = serialize.json_to_matrix(entry.get("matrix"), f"{field}.matrix")
            return exp_hamiltonian(FockOperator(n_modes, matrix)).matrix, ModeSet.full(n_modes)
        modes = entry.get("modes")
        if not isinstance(modes, list) or not all(type(m) is int for m in modes):
            _fail("bad_schema", "gate modes must be a list of integers", f"{field}.modes")
        theta = entry.get("theta")
        if not serialize.is_finite_number(theta):
            _fail("bad_schema", "gate theta must be a finite number", f"{field}.theta")
        return _gate_small(kind, n_modes, modes=tuple(modes), theta=float(theta))


def _list_field(scenario: dict, key: str) -> list:
    entry = scenario.get(key) or []
    if not isinstance(entry, list):
        _fail("bad_schema", f"{key} must be a list", key)
    return entry


def _parse_partitions(scenario: dict, n_modes: int) -> list[ModeSet]:
    out = []
    for i, part in enumerate(_list_field(scenario, "partitions")):
        field = f"partitions[{i}]"
        if not isinstance(part, list) or not part or any(type(m) is not int for m in part):
            _fail("bad_schema", "partitions are non-empty lists of mode indices", field)
        if len(set(part)) != len(part):
            _fail("mode_out_of_range", f"partition modes must be distinct, got {part}", field)
        with at_field(field):
            out.append(ModeSet.of(part, n_modes))
    return out


def _parse_checks(scenario: dict) -> list[tuple[str, int, int, float, str]]:
    """Validated ``(name, seed, count, tolerance, field)`` of each requested check."""
    tolerances = scenario.get("tolerances") or {}
    if not isinstance(tolerances, dict):
        _fail("bad_schema", "tolerances must be an object", "tolerances")
    for key, tol in tolerances.items():
        if key not in vf.CHECK_TOLERANCES:
            _fail("bad_schema", f"unknown check name {key!r}", f"tolerances.{key}")
        if not serialize.is_finite_number(tol) or tol < 0:
            _fail("bad_schema", "tolerances are finite numbers >= 0", f"tolerances.{key}")
    out = []
    for i, entry in enumerate(_list_field(scenario, "checks")):
        field = f"checks[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            _fail("bad_schema", "check entries are objects with a name", field)
        name = entry["name"]
        if not isinstance(name, str) or name not in vf.CHECK_TOLERANCES:
            _fail("bad_schema", f"unknown check name {name!r}", f"{field}.name")
        seed, count = entry.get("seed", 0), entry.get("count", 10)
        if type(seed) is not int or seed < 0:
            _fail("bad_schema", "seed must be an integer >= 0", f"{field}.seed")
        if type(count) is not int or count < 1:
            _fail("bad_schema", "count must be an integer >= 1", f"{field}.count")
        tol = float(tolerances.get(name, vf.CHECK_TOLERANCES[name]))
        out.append((name, seed, count, tol, field))
    return out


def _scenario_checks(
    checks: list[tuple[str, int, int, float, str]],
    n_modes: int,
    final_state: PhenomenalState,
    global_descriptors,
    partitions: list[ModeSet],
) -> list[vf.CheckResult]:
    results: list[vf.CheckResult] = []
    for name, seed, count, tol, field in checks:
        if name == "diagram":
            if not partitions:
                _fail("bad_schema", "diagram check needs at least one partition", field)
            results.append(vf.check_diagram(global_descriptors, partitions, tol))
        elif name == "no_signalling":
            pairs = [
                (a, b)
                for a in partitions
                for b in partitions
                if a.is_disjoint(b) and a.union(b).is_full
            ]
            if not pairs:
                _fail(
                    "bad_schema",
                    "no_signalling needs two disjoint partitions covering all modes",
                    field,
                )
            sub = []
            for k in range(count):
                part_a, part_b = pairs[k % len(pairs)]
                u_a = local_random_ps_unitary(part_a, seed + 2 * k)
                v_b = local_random_ps_unitary(part_b, seed + 2 * k + 1)
                sub.append(
                    vf.check_no_signalling(final_state, u_a, v_b, part_a, part_b, tol)
                )
            results.append(vf._merge("no_signalling", sub, tol))
        elif name == "locality_invariance":
            proper = [p for p in partitions if not p.is_full]
            if not proper:
                _fail("bad_schema", "locality_invariance needs a proper partition", field)
            sub = []
            for k in range(count):
                part = proper[k % len(proper)]
                u = local_random_ps_unitary(part, seed + k)
                sub.append(vf.check_locality_invariance(u, part, tol=tol))
            results.append(vf._merge("locality_invariance", sub, tol))
        else:
            results.append(
                vf.check_ontic_property_list(range(seed, seed + count), n_modes, tol)
            )
    return results


def run_scenario(scenario: dict) -> dict:
    """Execute a parsed scenario and assemble the report.

    Each gate is folded into the running product by the one lift kernel,
    ``algebra.fold_local``, and only the total is validated as a
    ``PSUnitary``; the final state, the projector onto ``U psi0``, needs no
    positivity check.  Its matrices and vectors are ``serialize.DenseJson``
    wrappers; their text is made when the report is written, so
    ``timings.total_seconds`` counts no encoding.
    """
    started = time.monotonic()
    if not isinstance(scenario, dict):
        _fail("bad_schema", "scenario must be a JSON object", "$")
    n_modes = scenario.get("n_modes")
    if type(n_modes) is not int or n_modes < 1:
        _fail("bad_schema", "n_modes must be a positive integer", "n_modes")
    with at_field("n_modes"):
        _check_n_modes(n_modes)
    if "initial_state" not in scenario:
        _fail("bad_schema", "missing initial_state", "initial_state")

    psi0 = _build_initial_state(scenario["initial_state"], n_modes)
    gates = [_build_gate(g, i, n_modes) for i, g in enumerate(_list_field(scenario, "gates"))]
    partitions = _parse_partitions(scenario, n_modes)
    checks = _parse_checks(scenario)
    product = np.eye(2 ** n_modes, dtype=complex)
    for small, modes in gates:
        algebra.fold_local(product, small, modes)
    total = PSUnitary(n_modes, product)

    full = ModeSet.full(n_modes)
    psi = total.matrix @ psi0.amplitudes
    final_state = PhenomenalState._trusted(full, np.outer(psi, psi.conj()))
    global_descriptors = dsc.evolve_descriptors(total, full, psi0)

    reconstructed, residual = dsc.reconstruct_with_residual(global_descriptors)
    recon = {
        "round_trip_residual": residual,
        "phase_blind_distance": phase_distance(reconstructed.matrix, total.matrix),
    }

    partition_blocks = []
    for part in partitions:
        partition_blocks.append(
            {
                "modes": list(part.indices),
                "phenomenal": serialize.state_to_json(partial_trace(final_state, part)),
                "descriptors": serialize.descriptor_set_to_json(
                    dsc.ontic_project(global_descriptors, part)
                ),
            }
        )

    results = _scenario_checks(checks, n_modes, final_state, global_descriptors, partitions)

    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "scenario": scenario,
        "scenario_hash": serialize.content_hash(scenario),
        "n_modes": n_modes,
        "final_state": serialize.state_to_json(final_state),
        "global_descriptors": serialize.descriptor_set_to_json(global_descriptors),
        "reconstruction": recon,
        "partitions": partition_blocks,
        "checks": [c.to_json() for c in results],
        "timings": {"total_seconds": time.monotonic() - started},
    }
    return report


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"malformed JSON in {path}: {exc}") from exc


def _open_output(path: str | None):
    try:
        return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()
    except OSError as exc:
        _fail("bad_output", f"cannot write {path}: {exc.strerror or exc}", "output")


def _emit(data: dict, out):
    if out is not None:
        try:
            serialize.write_json(data, out.write)
            out.flush()
        except OSError as exc:
            _fail("bad_output", f"cannot write {out.name}: {exc.strerror or exc}", "output")
        return
    try:
        serialize.write_json(data, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  Send what is left, and the flush at exit,
        # to the null device; the command still returns its own verdict.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _summarize(checks: list[dict]) -> int:
    """Print one line per check to stderr; the exit code of the verdicts.

    A null residual, a family that raised, prints as inf.
    """
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        residual = math.inf if check["residual"] is None else check["residual"]
        print(
            f"{status} {check['name']}: residual {residual:.3e}"
            f" (tolerance {check['tolerance']:g})",
            file=sys.stderr,
        )
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_CHECK_FAILED


def _cmd_simulate(args, out) -> int:
    report = run_scenario(_read_json(args.scenario))
    _emit(report, out)
    return _summarize(report["checks"])


def _cmd_verify(args, out) -> int:
    started = time.monotonic()
    results = vf.run_sweep(args.modes, args.seeds, args.count)
    report = {
        "schema_version": serialize.SCHEMA_VERSION,
        "sweep": {"modes": args.modes, "seeds": args.seeds, "count": args.count},
        "checks": [r.to_json() for r in results],
        "timings": {"total_seconds": time.monotonic() - started},
    }
    _emit(report, out)
    return _summarize(report["checks"])


def _cmd_reconstruct(args, out) -> int:
    data = _read_json(args.input)
    if isinstance(data, dict) and "global_descriptors" in data:
        payload = data["global_descriptors"]
        field = "global_descriptors"
    else:
        payload = data
        field = "descriptor_set"
    d = serialize.json_to_descriptor_set(payload, field)
    u, residual = dsc.reconstruct_with_residual(d)
    result = {
        "schema_version": serialize.SCHEMA_VERSION,
        "unitary": serialize.unitary_to_json(u),
        "round_trip_residual": residual,
    }
    _emit(result, out)
    print(f"round-trip residual {residual:.3e}", file=sys.stderr)
    return EXIT_OK


def _cmd_schema(args, out) -> int:
    _emit(serialize.schema_document(), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermidesc",
        description=(
            "Simulate parity-superselected fermionic mode systems, compute "
            "Heisenberg-picture descriptors, and verify their structural "
            "properties at desk scale."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file and emit a report")
    sim.add_argument("scenario", help="scenario JSON path, or - for stdin")
    sim.add_argument("-o", "--output", help="write the report here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="randomized verification sweep")
    ver.add_argument("--modes", type=int, default=3, help="system size (default 3)")
    ver.add_argument("--seeds", type=int, default=0, help="base seed (default 0)")
    ver.add_argument("--count", type=int, default=50, help="instances per family (default 50)")
    ver.add_argument("-o", "--output", help="write the report here instead of stdout")
    ver.set_defaults(func=_cmd_verify)

    rec = sub.add_parser(
        "reconstruct", help="recover the unitary behind a serialized descriptor set"
    )
    rec.add_argument("input", help="descriptor-set or report JSON path, or - for stdin")
    rec.add_argument("-o", "--output", help="write the result here instead of stdout")
    rec.set_defaults(func=_cmd_reconstruct)

    sch = sub.add_parser("schema", help="print the scenario/report schemas")
    sch.add_argument("-o", "--output", help="write the schemas here instead of stdout")
    sch.set_defaults(func=_cmd_schema)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_output(args.output) as out:
            return args.func(args, out)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
