"""fermidesc benchmark: one command, named workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate_n7 --seed 1 --seconds 30 --trace 0

A run is a closed loop with one client: it starts one fresh interpreter per
job (``perfbench/child.py``), waits for it, and starts the next while the
next job still fits in ``--seconds``.  Every job is cold, as every CLI call
and every new library session is: lru caches fill inside the timed work and
nothing is warmed up untimed.  Inputs are generated here from ``--seed``; the
child receives only those inputs.

Each job gets new inputs.  ``--trace 0`` reports the end-to-end metrics as
medians over the run's jobs.  ``--trace 1`` runs each input twice, untraced
then traced, requires the two CLI reports to agree apart from ``timings``,
and reports the per-layer metrics (see ``spans.py``).  The last line of stdout is the result object;
the lines before it are a readable summary and a ``detail`` JSON line with
the environment and every job's sample.

This file imports only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

# BLAS threads per child; at most the cores this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_JOBS = 2  # with --trace 1, one untraced and one traced job of the same input
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def simulate_scenario(rng: random.Random, size: str) -> dict:
    n, n_gates, count = (7, 60, 10) if size == "full" else (3, 6, 2)
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(("tunneling", "phase", "interaction"))
        modes = [rng.randrange(n)] if kind == "phase" else rng.sample(range(n), 2)
        gates.append({"kind": kind, "modes": modes, "theta": rng.uniform(-math.pi, math.pi)})
    return {
        "n_modes": n,
        "initial_state": [rng.randint(0, 1) for _ in range(n)],
        "gates": gates,
        "partitions": [list(range(3)), list(range(3, n))] if n > 3 else [[0], [1, 2]],
        "checks": [
            {"name": "diagram"},
            {"name": "no_signalling", "seed": rng.randrange(10**6), "count": count},
            {"name": "locality_invariance", "seed": rng.randrange(10**6), "count": count},
        ],
    }


def simulate_jobs(seed: int, size: str):
    rng = random.Random(seed)
    while True:
        yield {"kind": "simulate", "scenario": simulate_scenario(rng, size)}


def verify_jobs(seed: int, size: str):
    modes, count = (4, 50) if size == "full" else (3, 2)
    rng = random.Random(seed)
    while True:
        yield {"kind": "verify", "modes": modes, "seeds": rng.randrange(10**6), "count": count}


def descriptors_jobs(seed: int, size: str):
    """A stream of distinct seeded jobs; projections cycle through 2, 3, 4 modes."""
    n = 8 if size == "full" else 4
    rng = random.Random(seed)
    k = 0
    while True:
        project = sorted(rng.sample(range(n), 2 + k % 3 if n > 4 else 2))
        join_part = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        yield {
            "kind": "descriptors",
            "n_modes": n,
            "occupation": [rng.randint(0, 1) for _ in range(n)],
            "unitary_seed": rng.randrange(2**31),
            "project": project,
            "apply_modes": sorted(rng.sample(project, 2)),
            "apply_seed": rng.randrange(2**31),
            "join_part": join_part,
        }
        k += 1


WORKLOADS = {
    "simulate_n7": simulate_jobs,
    "verify_n4": verify_jobs,
    "descriptors_n8": descriptors_jobs,
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the import costs the same whatever the caller's environment, and
    # nothing is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(spec: dict, work: str, index: int, timeout: float) -> dict:
    """Run one job in a fresh interpreter; returns its sample or its failure."""
    spec = dict(spec, root=ROOT, run_id=f"{os.path.basename(work)}-{index}")
    if spec["kind"] == "simulate":
        spec["scenario_path"] = os.path.join(work, "scenario.json")
        with open(spec["scenario_path"], "w", encoding="utf-8") as fh:
            json.dump(spec["scenario"], fh)
    spec["report_path"] = os.path.join(work, "report.json")
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"wall_s": time.perf_counter() - started, "problems": ["job timed out"]}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - started
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"wall_s": wall, "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    sample = json.loads(lines[-1])
    sample["wall_s"] = wall
    if spec["trace_file"]:
        sample["layers"] = spans.summarize(spans.read_spans(spec["trace_file"]))
    return sample


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fermidesc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD read from the .git directory, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _schedule(jobs, trace: bool):
    """(spec, traced) pairs: each input once, or untraced then traced when tracing."""
    for spec in jobs:
        yield dict(spec), False
        if trace:
            yield dict(spec), True


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full", tamper: bool = False
) -> tuple[dict, dict]:
    """Run the closed loop; returns (result object, detail record)."""
    started = time.perf_counter()
    work = os.path.join(HERE, "work", f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}")
    traces = os.path.join(HERE, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    samples: list[dict] = []
    try:
        for index, (spec, traced) in enumerate(_schedule(WORKLOADS[workload](seed, size), trace)):
            spec["tamper"] = tamper
            spec["trace_file"] = os.path.join(work, "trace.jsonl") if traced else None
            elapsed = time.perf_counter() - started
            sample = run_child(spec, work, index, RUN_LIMIT_S - elapsed)
            if traced and os.path.exists(spec["trace_file"]):
                # keep the latest traced job's spans for reading by hand
                os.replace(spec["trace_file"], os.path.join(traces, f"{workload}.jsonl"))
            sample["traced"] = traced
            sample["input"] = index // 2 if trace else index
            samples.append(sample)
            elapsed = time.perf_counter() - started
            next_traced = trace and not traced
            same_kind = [s["wall_s"] for s in samples if s["traced"] == next_traced]
            expected = statistics.median(same_kind or [sample["wall_s"]])
            if len(samples) >= MIN_JOBS and elapsed + expected > seconds:
                break
            if elapsed + expected > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a traced job repeats its untraced partner's input: the reports must agree
    first_digest: dict[int, str] = {}
    for s in samples:
        if s.get("digest"):
            reference = first_digest.setdefault(s["input"], s["digest"])
            if s["digest"] != reference:
                s["problems"].append("report digest differs from the same input's first run")
    digests = sorted({s["digest"] for s in samples if s.get("digest")})
    failed = sum(1 for s in samples if s["problems"])
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if not s["traced"]]
    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            values = [s[name] for s in plain]
            metrics[name] = {"value": statistics.median(values) if values else math.nan, "unit": unit}
    else:
        metrics = per_layer(good)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    versions = next((s for s in samples if "numpy" in s), {})
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "failed_ratio": failed / len(samples),
        "report_digests": digests,
        "env": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": versions.get("numpy"),
            "scipy": versions.get("scipy"),
            "machine": platform.machine(),
        },
        "jobs": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    return result, detail


def per_layer(samples: list[dict]) -> dict:
    """Means over traced jobs (means keep self times additive), plus the overhead ratio.

    The overhead ratio is the median, over inputs run both ways, of traced
    ``run_s`` divided by untraced ``run_s``; pairing removes the input's cost.
    """
    traced = [s for s in samples if s["traced"]]
    by_input: dict[int, dict[bool, float]] = {}
    for s in samples:
        by_input.setdefault(s["input"], {})[s["traced"]] = s["run_s"]
    ratios = [p[True] / p[False] for p in by_input.values() if len(p) == 2]
    out = {}
    for name, unit in spans.per_layer_metric_names():
        if name == "trace.overhead_ratio":
            value = statistics.median(ratios) if ratios else math.nan
        elif name == "serialize.report_bytes":
            value = statistics.mean(s["report_bytes"] for s in samples) if samples else math.nan
        else:
            value = statistics.mean(s["layers"][name] for s in traced) if traced else math.nan
        out[name] = {"value": value, "unit": unit}
    return out


def print_summary(result: dict, detail: dict) -> None:
    jobs = detail["jobs"]
    print(
        f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']}"
        f" jobs={result['attempted']} failed={result['failed']}"
        f" failed_ratio={detail['failed_ratio']:.4g}"
    )
    for s in jobs:
        if s["problems"]:
            print(f"  FAILED job: {'; '.join(s['problems'])}")
    if not detail["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']} (median of {result['attempted'] - result['failed']})")
    else:
        layers = sorted(
            (m["value"], name) for name, m in result["metrics"].items() if name.count(".") == 1
            and name.endswith(".self_s")
        )
        for value, name in reversed(layers):
            print(f"  {name:<26} {value:.6g} s")
        for name in ("trace.root_s", "trace.overhead_ratio", "serialize.report_bytes"):
            print(f"  {name:<26} {result['metrics'][name]['value']:.6g} {result['metrics'][name]['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the self-tests"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fermidesc", "cli.py")):
        print(f"perfbench: no fermidesc source under {ROOT}/src", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_summary(result, detail)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
