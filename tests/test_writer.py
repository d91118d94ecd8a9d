"""The report writer: the text of json.dumps(sort_keys=True, indent=2, default=plain)."""

import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fermidesc import cli, descriptors as dsc, fock, serialize, transformations as tf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.verification import random_phenomenal, run_sweep


def seeded_scenario(seed: int) -> dict:
    """The benchmark's N=7 simulate scenario for ``seed``: 60 gates, two partitions, three checks."""
    rng = random.Random(seed)
    n = 7
    gates = []
    for _ in range(60):
        kind = rng.choice(("tunneling", "phase", "interaction"))
        modes = [rng.randrange(n)] if kind == "phase" else rng.sample(range(n), 2)
        gates.append({"kind": kind, "modes": modes, "theta": rng.uniform(-math.pi, math.pi)})
    return {
        "n_modes": n,
        "initial_state": [rng.randint(0, 1) for _ in range(n)],
        "gates": gates,
        "partitions": [list(range(3)), list(range(3, n))],
        "checks": [
            {"name": "diagram"},
            {"name": "no_signalling", "seed": rng.randrange(10**6), "count": 10},
            {"name": "locality_invariance", "seed": rng.randrange(10**6), "count": 10},
        ],
    }


@pytest.fixture(scope="module")
def report_901():
    return cli.run_scenario(seeded_scenario(901))


def written(data) -> str:
    out = io.StringIO()
    serialize.write_json(data, out.write)
    return out.getvalue()


def assert_writes_json_dumps_text(data):
    got, want = written(data), json.dumps(data, sort_keys=True, indent=2, default=serialize.plain) + "\n"
    if got != want:  # report the first difference, not a diff of megabytes
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"text differs at offset {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def test_simulate_report_text(report_901):
    assert isinstance(report_901["final_state"]["matrix"], serialize.DenseJson)
    assert_writes_json_dumps_text(report_901)


@pytest.mark.parametrize("seed", [11, 1301, 4242])
def test_benchmark_report_text(seed):
    assert_writes_json_dumps_text(cli.run_scenario(seeded_scenario(seed)))


def test_verify_report_text():
    checks = [r.to_json() for r in run_sweep(3, 0, 5)]
    report = {"schema_version": "1", "sweep": {"modes": 3}, "checks": checks, "timings": {}}
    assert_writes_json_dumps_text(report)


def test_reconstruct_output_text():
    d = dsc.evolve_descriptors(tf.random_ps_unitary(3, 4), ModeSet.full(3), fock.vacuum_state(3))
    u, residual = dsc.reconstruct_with_residual(d)
    out = {"schema_version": "1", "unitary": serialize.unitary_to_json(u), "round_trip_residual": residual}
    assert_writes_json_dumps_text(out)


def test_schema_document_text():
    assert_writes_json_dumps_text(serialize.schema_document())


def frozen(a) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


SHARED = serialize.matrix_to_json(frozen(np.arange(12.0).reshape(3, 4) * (1 - 0.5j)))
EXTREMES = np.array([[-0.0, 1e-300], [1e300, complex(-0.0, -1e300)]])
HOSTILE = {
    "int and bool hamiltonian echo": {
        "scenario": {"gates": [{"kind": "hamiltonian", "matrix": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}]},
        "final_state": serialize.state_to_json(random_phenomenal(1, 3)),
    },
    "empty lists and dicts": {
        "a": [],
        "b": {},
        "c": [[], {}, [[]]],
        "empty matrix": serialize.matrix_to_json(np.zeros((0, 0))),
        "m": serialize.matrix_to_json(np.eye(2)),
    },
    "ragged nests": {"r": [[1, [2, 3]], [4], [[[5.5]]], [[0.5, -1], []]], "v": serialize.vector_to_json([1j])},
    "strings with brackets and commas": {
        "s": ["[1,2]", "a,b", "]],[[", {"k]": "[,"}],
        "m": serialize.matrix_to_json(np.eye(2)),
    },
    "non-ASCII keys": {"ψ": serialize.vector_to_json([1, 1j]), "ключ": {"ü": [1.5, "é"]}},
    "extreme floats": {"m": serialize.matrix_to_json(EXTREMES), "x": [-0.0, 1e-300, 1e300]},
    "1x1 matrix and length-1 vector": {
        "m": serialize.matrix_to_json(np.array([[-0.5 + 2j]])),
        "v": serialize.vector_to_json(np.array([0.25])),
    },
    "non-string keys": {1: serialize.matrix_to_json(np.eye(2)), 2: [1]},
    "tuples": (serialize.vector_to_json([1, 2]), ("a", 1)),
    "escaped newlines and leading spaces": {
        "  lead\n    ": ["\n  \n", {"\n": serialize.vector_to_json([1j])}, "   "],
        "\n\"\n  ": serialize.matrix_to_json(np.eye(2)),
        " ": [" \n ", serialize.vector_to_json([0.5])],
    },
    "arrays in lists of lists": {
        "deep": [[[serialize.matrix_to_json(np.eye(2)), [serialize.vector_to_json([1, -1j])]]], [[[]]]],
    },
    "one array in a tuple, an int-keyed dict and a nested list": {
        "t": (SHARED, "t", SHARED),
        "i": {3: SHARED, 7: [SHARED]},
        "l": [[1, [SHARED]], SHARED],
    },
    "equal arrays with zeros of either sign": {
        "a": serialize.matrix_to_json(np.array([[0.0, 1.5], [2j, -3.0]])),
        "b": [serialize.matrix_to_json(np.array([[-0.0, 1.5], [2j, -3.0]]))],
    },
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_inputs_text(name):
    obj = HOSTILE[name]
    for nested in (obj, [obj], {"outer": [{"inner": obj}, 1]}):
        assert_writes_json_dumps_text(nested)


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 1), (2, 2), (1, 4), (4, 1), (2, 3, 2)])
def test_dense_arrays_at_every_depth(shape):
    rng = np.random.default_rng(len(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dense = serialize.matrix_to_json(a)
    for depth in range(4):
        nested = dense
        for _ in range(depth):
            nested = {"k": nested}
        assert_writes_json_dumps_text(nested)


def test_writing_holds_one_array_not_the_report(report_901, tmp_path):
    """Writing the 17.5 MB seed-901 report peaks at a few matrices' text.

    ``json.dumps`` of the same report allocates about 79 MB.
    """
    with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            serialize.write_json(report_901, fh.write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "report.json").stat().st_size > 16_000_000
    assert peak < 16_000_000


def test_equal_arrays_are_encoded_apart():
    a = frozen([[0.0, 1.5], [2j, -3.0]])
    b = frozen([[-0.0, 1.5], [2j, -3.0]])  # equal values, other text
    assert np.array_equal(a, b)
    data = {"a": serialize.matrix_to_json(a), "b": [serialize.matrix_to_json(b)], "c": serialize.matrix_to_json(a)}
    assert_writes_json_dumps_text(data)
    assert '"a": [\n    [\n      [\n        0.0,' in written(data)
    assert '"b": [\n    [\n      [\n        [\n          -0.0,' in written(data)


def test_placeholder_in_the_data_is_refused(monkeypatch):
    monkeypatch.setattr(serialize.os, "urandom", lambda n: bytes(n))
    placeholder = bytes(16).hex()
    for data in (
        {"s": placeholder, "m": serialize.matrix_to_json(np.eye(2))},
        {placeholder: 1, "m": serialize.matrix_to_json(np.eye(2))},
        [placeholder],
    ):
        with pytest.raises(ValidationError) as err:
            written(data)
        assert err.value.code == "internal_inconsistency"
    assert written({"s": placeholder + "x"}) == json.dumps({"s": placeholder + "x"}, indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_arrays_are_refused(bad):
    for to_json, a in ((serialize.matrix_to_json, [[1, 0], [0, bad]]), (serialize.vector_to_json, [bad])):
        with pytest.raises(ValidationError) as err:
            to_json(np.array(a, dtype=complex))
        assert err.value.code == "not_finite"


def test_writeable_input_is_snapshotted():
    m = np.eye(2)
    v = np.array([1.0, 2.0j])
    data = {"m": serialize.matrix_to_json(m), "v": serialize.vector_to_json(v)}
    before = written(data)
    m[0, 0] = 5.0
    v[1] = 7.0
    assert written(data) == before
    assert "5.0" not in before and "7.0" not in before


def test_report_holds_arrays_not_lists():
    """The seed-901 report keeps its 15 matrices as arrays, about 2.3 MB.

    With every matrix as nested lists it held about 32 MB.
    """
    scenario = seeded_scenario(901)
    tracemalloc.start()
    try:
        report = cli.run_scenario(scenario)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(report["final_state"]["matrix"], serialize.DenseJson)
    assert retained < 8_000_000


# The child's own peak is VmHWM: ru_maxrss also carries the high-water mark
# of the image that exec replaced, which here is the test process's.
N8_SIMULATE = """
import sys
from fermidesc import cli
code = cli.main(["simulate", sys.argv[1], "-o", sys.argv[2]])
with open("/proc/self/status") as fh:
    print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_simulate_at_eight_modes_peak_rss(tmp_path):
    """CLI simulate at N = 8 (a 73 MB report) peaks near 75 MB RSS; 223 MB with nested lists."""
    scenario = {
        "n_modes": 8,
        "initial_state": [1, 0] * 4,
        "gates": [{"kind": "tunneling", "modes": [0, 7], "theta": 0.7}],
        "partitions": [[0, 1, 2, 3], [4, 5, 6, 7]],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    proc = subprocess.run(
        [sys.executable, "-c", N8_SIMULATE, str(tmp_path / "scenario.json"), str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 150 * 1024
