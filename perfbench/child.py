"""One benchmark job in a fresh interpreter: cold import, the job, its checks.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload, the job's generated inputs, the files to use, and
whether to trace.  The child prints one JSON line: setup_s (the
``import fermidesc.cli``), run_s (the job after setup), peak_rss_mb (the
child's ru_maxrss at the end of the job, before the checks load anything),
the problems its output checks found, and the report digest for CLI jobs.
Checks run after the timed work and outside every span.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import fermidesc.cli  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from fermidesc import descriptors as dsc  # noqa: E402
from fermidesc import states, transformations  # noqa: E402
from fermidesc.fock import ModeSet, fock_basis_state  # noqa: E402

RESIDUAL_TOL = 1e-8  # round trip and phase-blind distance of reconstructions
APPLY_TOL = 1e-9  # ontic_apply vs. evolving the composite
STATE_TOL = 1e-9  # phenomenal_of of a projection vs. partial trace
TRACE_CROSS_TOL = 1e-10  # the two partial traces against each other


def simulate_job(spec):
    code = fermidesc.cli.main(["simulate", spec["scenario_path"], "-o", spec["report_path"]])
    return {"exit": code}


def verify_job(spec):
    code = fermidesc.cli.main(
        [
            "verify",
            "--modes", str(spec["modes"]),
            "--seeds", str(spec["seeds"]),
            "--count", str(spec["count"]),
            "-o", spec["report_path"],
        ]
    )
    return {"exit": code}


def descriptors_job(spec):
    n = spec["n_modes"]
    full = ModeSet.full(n)
    psi0 = fock_basis_state(n, spec["occupation"])
    u = transformations.random_ps_unitary(n, spec["unitary_seed"])
    d = dsc.evolve_descriptors(u, full, psi0)
    sub = ModeSet.of(spec["project"], n)
    d_sub = dsc.ontic_project(d, sub)
    # reads
    local = dsc.phenomenal_of(d_sub)
    now = dsc.phenomenal_of(d)
    traced = states.partial_trace(now, sub)
    traced_jw = states.partial_trace_jw(now, sub)
    # writes
    w = transformations.local_random_ps_unitary(ModeSet.of(spec["apply_modes"], n), spec["apply_seed"])
    applied = dsc.ontic_apply(w, d_sub)
    part = ModeSet.of(spec["join_part"], n)
    joined = dsc.join(dsc.ontic_project(d, part), dsc.ontic_project(d, part.complement()))
    rebuilt = dsc.reconstruct_unitary(d)
    return {
        "psi0": psi0, "u": u, "d": d, "sub": sub, "w": w, "applied": applied,
        "local": local.matrix, "traced": traced.matrix, "traced_jw": traced_jw.matrix,
        "joined": joined, "rebuilt": rebuilt,
    }


def _load_report(spec):
    with open(spec["report_path"], encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(report: dict) -> str:
    """sha256 of the report without its non-deterministic ``timings`` block."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _failed_checks(report) -> list[str]:
    return [f"check {c['name']} failed" for c in report["checks"] if not c["passed"]]


def check_simulate(spec, out, report):
    problems = [] if out["exit"] == 0 else [f"simulate exited {out['exit']}"]
    problems += _failed_checks(report)
    names = sorted(c["name"] for c in report["checks"])
    if names != sorted(c["name"] for c in spec["scenario"]["checks"]):
        problems.append(f"report has checks {names}")
    for key in ("round_trip_residual", "phase_blind_distance"):
        if not report["reconstruction"][key] <= RESIDUAL_TOL:
            problems.append(f"{key} {report['reconstruction'][key]:.3e} > {RESIDUAL_TOL}")
    return problems


VERIFY_FAMILIES = 11  # ten check families, the ontic list run twice (once as negative control)


def check_verify(spec, out, report):
    problems = [] if out["exit"] == 0 else [f"verify exited {out['exit']}"]
    problems += _failed_checks(report)
    names = {c["name"] for c in report["checks"]}
    if len(report["checks"]) != VERIFY_FAMILIES or "ontic_property_list_negative_control" not in names:
        problems.append(f"report has families {sorted(names)}")
    return problems


def _max_diff(a, b) -> float:
    return max(float(np.linalg.norm(x.matrix - y.matrix)) for x, y in zip(a.descriptors, b.descriptors))


def check_descriptors(spec, out, _report):
    problems = []
    composite = dsc.evolve_descriptors(out["w"] @ out["u"], out["sub"], out["psi0"])
    r = _max_diff(out["applied"], composite)
    if not r <= APPLY_TOL:
        problems.append(f"ontic_apply differs from the composite by {r:.3e}")
    r = float(np.linalg.norm(out["local"] - out["traced"]))
    if not r <= STATE_TOL:
        problems.append(f"phenomenal_of(project) differs from partial_trace by {r:.3e}")
    r = float(np.linalg.norm(out["traced"] - out["traced_jw"]))
    if not r <= TRACE_CROSS_TOL:
        problems.append(f"partial_trace and partial_trace_jw differ by {r:.3e}")
    r = transformations.phase_distance(out["rebuilt"].matrix, out["u"].matrix)
    if not r <= RESIDUAL_TOL:
        problems.append(f"reconstruct_unitary phase-blind distance {r:.3e}")
    if out["joined"].subsystem != out["d"].subsystem or _max_diff(out["joined"], out["d"]) != 0.0:
        problems.append("join did not return the full descriptor set")
    return problems


WORKLOADS = {
    "simulate": (simulate_job, check_simulate),
    "verify": (verify_job, check_verify),
    "descriptors": (descriptors_job, check_descriptors),
}


def tamper(spec, out):
    """Corrupt the job's output the way a wrong program would (negative control)."""
    if spec["kind"] == "descriptors":
        out["local"] = out["local"] * (1.0 + 1e-6)
        return
    report = _load_report(spec)
    report["checks"][0]["passed"] = False
    with open(spec["report_path"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src", "fermidesc")
    if os.path.dirname(os.path.abspath(fermidesc.cli.__file__)) != os.path.abspath(src):
        raise RuntimeError(f"imported fermidesc from {fermidesc.cli.__file__}, not {src}")
    job, check = WORKLOADS[spec["kind"]]

    tracer = None
    if spec["trace_file"]:
        import spans  # perfbench/ is sys.path[0] when this file runs as a script

        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    start = time.perf_counter()
    out = tracer.root(job, spec) if tracer else job(spec)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.write(spec["trace_file"])
    cli_job = spec["kind"] != "descriptors"
    report_bytes = os.path.getsize(spec["report_path"]) if cli_job else 0

    if spec.get("tamper"):
        tamper(spec, out)
    report = _load_report(spec) if cli_job else None
    problems = check(spec, out, report)
    result = {
        "setup_s": SETUP_S,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "digest": report_digest(report) if cli_job else None,
        "report_bytes": report_bytes,
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
