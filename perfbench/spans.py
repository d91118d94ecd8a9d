"""Span recording around fermidesc's public functions, and self-time analysis.

The benchmark treats the eight modules of ``src/fermidesc/`` as its layers and
measures each one from outside: ``install`` replaces every wrapped function,
wherever a ``fermidesc`` module binds it, with a wrapper that records a span
(name, start, end, parent span, whether it raised).  For the dataclasses the
span covers ``__post_init__``, i.e. construction-time validation.  Spans stay
in memory and are written once, when the traced job ends.

This module imports only the standard library, so the parent process can use
``LAYERS`` and ``summarize`` without loading numpy.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> public names whose calls are timed.  Classes are timed through
# their ``__post_init__`` validation.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "run_scenario"),
    "serialize": ("state_to_json", "descriptor_set_to_json", "content_hash"),
    "transformations": (
        "named_gate",
        "exp_hamiltonian",
        "PSUnitary",
        "random_ps_unitary",
        "local_random_ps_unitary",
        "is_local_unitary",
        "invariance_support",
    ),
    "descriptors": (
        "DescriptorSet",
        "descriptor_algebra_residual",
        "evolve_descriptors",
        "reconstruct_unitary",
        "compatible",
        "join",
        "ontic_apply",
        "ontic_project",
        "phenomenal_of",
        "equivalent_at",
    ),
    "states": ("PhenomenalState", "partial_trace", "partial_trace_jw", "mode_sort_permutation"),
    "algebra": (
        "monomial_basis",
        "embed_local_operator",
        "compress_local_operator",
        "is_local_to",
        "locality_residual",
        "parity_grade",
    ),
    "fock": ("FockOperator", "build_ladder"),
    "verification": (
        "run_sweep",
        "check_canonical_algebra",
        "check_ssr_gatekeeping",
        "check_qubit_ladders",
        "check_locality_invariance",
        "check_no_signalling",
        "check_descriptor_equivalence",
        "check_reconstruction",
        "check_epimorphism",
        "check_diagram",
        "check_ontic_property_list",
    ),
}

ROOT = "job"


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names.append((f"{layer}.{fn}.calls", "count"))
            names.append((f"{layer}.{fn}.self_s", "s"))
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        names.append((f"{layer}.errors", "count"))
    names += [
        ("bench.self_s", "s"),
        ("trace.root_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("serialize.report_bytes", "bytes"),
    ]
    return names


class Tracer:
    """In-memory span recorder; spans are (id, parent, name, start, end, raised)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, raised))

        return traced

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` inside the root span that every other span nests under."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, raised in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "raised": raised,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` wherever a fermidesc module binds it."""
    modules = {layer: importlib.import_module(f"fermidesc.{layer}") for layer in LAYERS}
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "fermidesc"]
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            obj = getattr(modules[layer], fn)
            if obj.__module__ != f"fermidesc.{layer}":
                raise RuntimeError(f"{name} is defined in {obj.__module__}, not in its layer")
            if isinstance(obj, type):
                obj.__post_init__ = tracer.wrap(name, obj.__post_init__)
                continue
            traced = tracer.wrap(name, obj)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, attr, traced)


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function and per-layer calls, self time and errors of one traced job.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.  The
    root span's self time is the job's time outside every wrapped call
    (``bench.self_s``), so the layer self times plus ``bench.self_s`` add up
    to ``trace.root_s``.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = 0
            out[f"{layer}.{fn}.self_s"] = 0.0
    roots = [s for s in spans if s["name"] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root = roots[0]
    for s in spans:
        self_s = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        if s is root:
            out["bench.self_s"] = self_s
            out["trace.root_s"] = s["end"] - s["start"]
            continue
        layer = s["name"].split(".")[0]
        out[f"{s['name']}.calls"] += 1
        out[f"{s['name']}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.errors"] += int(s["raised"])
    return out
