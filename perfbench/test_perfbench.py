"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench

They run every workload at a tiny size, so they check the harness and its
output checks, not performance.
"""

from __future__ import annotations

import json
import os

import pytest

import run
import spans

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONFIG = json.load(fh)

WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def _printed_result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_config():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_the_configured_end_to_end_metrics(capsys, workload):
    result = _printed_result(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_the_configured_per_layer_metrics(capsys, workload):
    result = _printed_result(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert layer_sum + metrics["bench.self_s"]["value"] == pytest.approx(metrics["trace.root_s"]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_output_counts_as_failed(workload):
    result, detail = run.run_workload(workload, 7, 0, False, size="tiny", tamper=True)
    assert result["failed"] == result["attempted"] > 0
    assert detail["failed_ratio"] == 1.0
    assert not result["correct"]


def test_differing_report_digests_fail(monkeypatch):
    # with --trace 1 the traced job repeats its untraced partner's input
    def fake_child(spec, work, index, timeout):
        return {"wall_s": 0.0, "problems": [], "digest": "ab"[index], "report_bytes": 1,
                "setup_s": 1.0, "run_s": 1.0, "peak_rss_mb": 1.0,
                "layers": dict.fromkeys(n for n, _ in spans.per_layer_metric_names())}

    monkeypatch.setattr(run, "run_child", fake_child)
    result, _ = run.run_workload("simulate_n7", 7, 0, True, size="tiny")
    assert result["attempted"] == 2 and result["failed"] == 1


def test_self_time_subtracts_direct_children():
    def span(i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "raised": False}

    trace = [
        span(3, 2, "fock.FockOperator", 1.0, 2.0),
        span(2, 1, "descriptors.evolve_descriptors", 0.5, 3.0),
        span(4, 1, "states.partial_trace", 3.0, 3.5),
        span(1, 0, spans.ROOT, 0.0, 4.0),
    ]
    out = spans.summarize(trace)
    assert out["descriptors.evolve_descriptors.self_s"] == 1.5
    assert out["fock.self_s"] == 1.0
    assert out["states.partial_trace.calls"] == 1
    assert out["bench.self_s"] == 1.0
    assert out["trace.root_s"] == 4.0
