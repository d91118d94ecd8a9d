"""Run every workload on several seeds and record medians and quartile spreads.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/seed-commit.json
    python3 perfbench/baseline.py --seeds 1-5 --workload verify_n4   # print only

Each run is ``perfbench/run.py`` with ``run_seconds`` from BENCHMARK.json.  For
every end-to-end metric it prints the median over seeds and the spread
``(q3 - q1) / median`` from ``statistics.quantiles(values, n=4)``, next to
the metric's bound.  ``--trace`` adds one traced run per workload, on the
first seed, so the record also holds the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,3")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the record here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(args.seeds)
    record = {"run_seconds": config["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(config, workload, seed, 0) for seed in seeds]
        entry = {"runs": runs, "end_to_end": {}}
        print(f"{workload}: attempted {sum(r['result']['attempted'] for r in runs)},"
              f" failed {sum(r['result']['failed'] for r in runs)}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = dict(spread(values), values=values)
            entry["end_to_end"][name] = stats
            print(f"  {name:<12} median {stats['median']:.5g} {metric['unit']:<3}"
                  f" spread {stats['spread']:.4f} (bound {metric['bound']})")
        if args.trace:
            entry["traced"] = run_once(config, workload, seeds[0], 1)
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
