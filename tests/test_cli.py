"""CLI surface: exit codes, determinism, round trips, all four subcommands."""

import json
import random
import subprocess
import sys

import numpy as np
import pytest

from fermidesc import fock
from fermidesc.errors import ValidationError

EXAMPLE_SCENARIO = {
    "n_modes": 2,
    "initial_state": [1, 0],
    "gates": [{"kind": "tunneling", "modes": [0, 1], "theta": 0.7853981633974483}],
    "partitions": [[0], [1]],
    "checks": [
        {"name": "diagram"},
        {"name": "no_signalling", "seed": 1, "count": 6},
        {"name": "locality_invariance", "seed": 2, "count": 4},
        {"name": "ontic_properties", "seed": 3, "count": 4},
    ],
}


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "fermidesc.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_scenario(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def test_simulate_example_scenario(tmp_path):
    path = write_scenario(tmp_path, EXAMPLE_SCENARIO)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema_version"] == "1"
    assert all(check["passed"] for check in report["checks"])
    assert report["reconstruction"]["round_trip_residual"] < 1e-8
    assert report["reconstruction"]["phase_blind_distance"] < 1e-8
    # the half-tunneling leaves each single mode maximally mixed
    for block in report["partitions"]:
        diag = [row[i][0] for i, row in enumerate(block["phenomenal"]["matrix"])]
        assert diag == pytest.approx([0.5, 0.5], abs=1e-9)


def test_simulate_deterministic_modulo_timings(tmp_path):
    path = write_scenario(tmp_path, EXAMPLE_SCENARIO)
    first = json.loads(run_cli("simulate", str(path)).stdout)
    second = json.loads(run_cli("simulate", str(path)).stdout)
    assert strip_timings(first) == strip_timings(second)


def test_simulate_reads_stdin():
    proc = run_cli("simulate", "-", stdin_text=json.dumps(EXAMPLE_SCENARIO))
    assert proc.returncode == 0


def test_empty_gate_list_reconstructs_identity(tmp_path):
    scenario = {"n_modes": 2, "initial_state": [0, 0], "partitions": [[0]]}
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    unit = json.loads(
        run_cli("reconstruct", "-", stdin_text=proc.stdout).stdout
    )["unitary"]["matrix"]
    dense = np.array([[complex(re, im) for re, im in row] for row in unit])
    phase = dense[0, 0]
    assert abs(abs(phase) - 1) < 1e-9
    assert np.allclose(dense, phase * np.eye(4), atol=1e-9)
    canonical = report["global_descriptors"]["descriptors"]
    assert len(canonical) == 2


def test_explicit_hamiltonian_gate(tmp_path):
    # exp(i pi n_0) flips the sign of the occupied-mode-0 amplitudes
    h = np.zeros((4, 4))
    h[2, 2] = h[3, 3] = np.pi
    scenario = {
        "n_modes": 2,
        "initial_state": [1, 0],
        "gates": [{"kind": "hamiltonian", "matrix": [[[v, 0.0] for v in row] for row in h]}],
        "partitions": [[0]],
    }
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    final = report["final_state"]["matrix"]
    assert final[2][2][0] == pytest.approx(1.0, abs=1e-12)


def test_hamiltonian_gate_rejects_parity_mixing(tmp_path):
    h = np.array([[0, 1], [1, 0]], dtype=float)
    scenario = {
        "n_modes": 1,
        "initial_state": [0],
        "gates": [{"kind": "hamiltonian", "matrix": [[[v, 0.0] for v in row] for row in h]}],
    }
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3
    assert "ssr_violation" in proc.stderr


def test_gate_fold_multiplies_matrices_not_unitaries(monkeypatch):
    from fermidesc import cli, transformations as tf

    products = []
    matmul = tf.PSUnitary.__matmul__

    def counting(self, other):
        products.append(self.n_modes)
        return matmul(self, other)

    monkeypatch.setattr(tf.PSUnitary, "__matmul__", counting)
    gates = [
        {"kind": "tunneling", "modes": [0, 2], "theta": 0.4},
        {"kind": "phase", "modes": [1], "theta": -1.2},
        {"kind": "interaction", "modes": [1, 2], "theta": 2.5},
    ]
    report = cli.run_scenario({"n_modes": 3, "initial_state": [1, 0, 0], "gates": gates})
    assert products == []
    assert report["reconstruction"]["phase_blind_distance"] < 1e-8


def seeded_gates(n_modes: int, count: int, seed: int) -> list[dict]:
    """Named gates on random modes; pairs come in any order, e.g. [5, 1]."""
    rng = random.Random(seed)
    gates = []
    for _ in range(count):
        kind = rng.choice(("tunneling", "phase", "interaction"))
        modes = [rng.randrange(n_modes)] if kind == "phase" else rng.sample(range(n_modes), 2)
        gates.append({"kind": kind, "modes": modes, "theta": rng.uniform(-np.pi, np.pi)})
    return gates


def even_hamiltonian(n_modes: int, seed: int) -> np.ndarray:
    """A random Hermitian, parity-even matrix on the full Fock space."""
    from fermidesc import fock

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 ** n_modes,) * 2) + 1j * rng.standard_normal((2 ** n_modes,) * 2)
    parity = fock._parity_diagonal(n_modes)
    h = (z + z.conj().T) / 2
    return (h + parity[:, None] * h * parity[None, :]) / 2


@pytest.mark.parametrize("n_modes", range(2, 9))
def test_gate_fold_matches_the_dense_product(monkeypatch, n_modes):
    from conftest import count_calls
    from fermidesc import cli, transformations as tf
    from fermidesc.fock import FockOperator

    gates = seeded_gates(n_modes, 24, seed=n_modes)
    if n_modes >= 6:
        gates[3] = {"kind": "tunneling", "modes": [5, 1], "theta": 0.9}
        gates[4] = {"kind": "interaction", "modes": [4, 0], "theta": -2.2}
    h = even_hamiltonian(n_modes, seed=n_modes)
    gates.insert(7, {"kind": "hamiltonian", "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in h]})
    totals = count_calls(monkeypatch, cli, "PSUnitary")
    cli.run_scenario({"n_modes": n_modes, "initial_state": [1] + [0] * (n_modes - 1), "gates": gates})

    dense = np.eye(2 ** n_modes, dtype=complex)
    for gate in gates:
        if gate["kind"] == "hamiltonian":
            u = tf.exp_hamiltonian(FockOperator(n_modes, h))
        else:
            u = tf.named_gate(gate["kind"], n_modes, modes=tuple(gate["modes"]), theta=gate["theta"])
        dense = u.matrix @ dense
    (n, folded), = totals
    assert n == n_modes
    # equal bit for bit at most sizes; BLAS may order the sums of the dense
    # product differently, so a last bit can move
    assert np.abs(folded - dense).max() <= 1e-14


def test_scenario_lifts_each_gate_with_one_kernel_call(monkeypatch):
    from conftest import count_calls
    from fermidesc import algebra, cli
    from fermidesc.fock import ModeSet

    n_modes = 5
    gates = seeded_gates(n_modes, 12, seed=3)
    h = even_hamiltonian(n_modes, seed=3)
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in h]
    gates.insert(4, {"kind": "hamiltonian", "matrix": matrix})
    folds = count_calls(monkeypatch, algebra, "fold_local")
    cli.run_scenario({"n_modes": n_modes, "initial_state": [1, 1, 0, 0, 0], "gates": gates})
    expected = [
        ModeSet.full(n_modes) if g["kind"] == "hamiltonian" else ModeSet.of(g["modes"], n_modes)
        for g in gates
    ]
    assert [modes for _, _, modes in folds] == expected


def test_gate_fold_at_the_mode_cap_validates_once_within_budget(monkeypatch):
    """60 named gates at N = 10: parse, fold and final state in <= 5 s and < 100 MB.

    A product with each lifted gate held every 16 MB lift (about 1 GB) and
    validated each with a dense U^dag U; the fold validates only the total.
    """
    import time
    import tracemalloc

    from conftest import count_calls
    from fermidesc import cli, fock, transformations as tf

    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    n_modes = 10
    scenario = {"n_modes": n_modes, "initial_state": [1, 0] * 5, "gates": seeded_gates(n_modes, 60, 10)}
    validations = count_calls(monkeypatch, tf.PSUnitary, "__post_init__")
    spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")

    class Folded(Exception):
        pass

    def stop(total, subsystem, psi0):
        raise Folded(time.perf_counter() - started, tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(cli.dsc, "evolve_descriptors", stop)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(Folded) as folded:
            cli.run_scenario(scenario)
    finally:
        tracemalloc.stop()
    seconds, peak = folded.value.args
    assert len(validations) == 1  # the total
    assert spectra == []
    assert seconds <= 5.0
    assert peak < 100e6


def test_scenario_runs_no_eigvalsh_at_the_full_dimension(monkeypatch):
    from conftest import count_calls
    from fermidesc import cli, descriptors as dsc, transformations as tf

    n_modes = 6
    validations = count_calls(monkeypatch, tf.PSUnitary, "__post_init__")
    witnesses = count_calls(monkeypatch, dsc, "_intertwiner")
    products = count_calls(monkeypatch, tf.PSUnitary, "__matmul__")
    spectra = count_calls(monkeypatch, np.linalg, "eigvalsh")
    report = cli.run_scenario(
        {
            "n_modes": n_modes,
            "initial_state": [0, 1] * 3,
            "gates": seeded_gates(n_modes, 60, 6),
            "partitions": [[0, 1, 2], [3, 4, 5]],
            "checks": [{"name": "no_signalling", "count": 3}],
        }
    )
    assert report["checks"][0]["passed"]
    assert all(len(m) < 2 ** n_modes for (m,) in spectra)
    # the total and the reconstruction's witness (the full descriptor set
    # carries the total, so its gate builds none); each no_signalling
    # instance conjugates by u_a and v_b in turn, so it forms no product
    # u_a @ v_b to validate
    assert len(witnesses) == 1 and len(products) == 0
    assert len(validations) == 1 + len(witnesses)


def test_reconstruction_residual_is_computed_once(monkeypatch):
    from fermidesc import cli, descriptors as dsc

    calls = []
    witness_residual = dsc._witness_residual

    def counting(w, merged):
        calls.append(w.n_modes)
        return witness_residual(w, merged)

    monkeypatch.setattr(dsc, "_witness_residual", counting)
    report = cli.run_scenario(dict(EXAMPLE_SCENARIO, checks=[]))
    assert calls == [2]
    assert report["reconstruction"]["round_trip_residual"] < 1e-8


def test_mode_cap_refusal_is_the_library_message_at_n_modes(monkeypatch):
    from fermidesc import cli, fock
    from fermidesc.errors import ValidationError

    monkeypatch.setenv("FERMIDESC_MODE_CAP", "3")
    with pytest.raises(ValidationError) as lib:
        fock.identity(4)
    with pytest.raises(ValidationError) as err:
        cli.run_scenario({"n_modes": 4, "initial_state": [0, 0, 0, 0]})
    assert (err.value.code, err.value.field) == ("cap_exceeded", "n_modes")
    assert err.value.args[0] == lib.value.args[0]


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_ssr_violating_scenario_exits_3(tmp_path):
    scenario = {
        "n_modes": 1,
        "initial_state": [
            {"occupation": [0], "amplitude": [0.70710678, 0.0]},
            {"occupation": [1], "amplitude": [0.70710678, 0.0]},
        ],
    }
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3
    assert "ssr_violation" in proc.stderr
    assert "initial_state" in proc.stderr


def test_validation_error_names_offending_field(tmp_path):
    scenario = dict(EXAMPLE_SCENARIO, gates=[{"kind": "phase", "modes": [5], "theta": 0.1}])
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3
    assert "gates[0]" in proc.stderr


def _with_check(**fields):
    return {"checks": [dict({"name": "no_signalling", "seed": 1, "count": 2}, **fields)]}


@pytest.mark.parametrize(
    "override, field",
    [
        (_with_check(seed="x"), "checks[0].seed"),
        (_with_check(seed=True), "checks[0].seed"),
        (_with_check(seed=-1), "checks[0].seed"),
        (_with_check(count=-3), "checks[0].count"),
        (_with_check(count=0), "checks[0].count"),
        (_with_check(count=False), "checks[0].count"),
        (_with_check(count=2.5), "checks[0].count"),
        ({"tolerances": {"diagram": "big"}}, "tolerances.diagram"),
        ({"tolerances": {"diagram": -1e-9}}, "tolerances.diagram"),
        ({"tolerances": {"no_signalling": True}}, "tolerances.no_signalling"),
        ({"partitions": [["a"]]}, "partitions[0]"),
        ({"partitions": 5}, "partitions"),
        ({"checks": 5}, "checks"),
        ({"checks": [{"name": ["diagram"]}]}, "checks[0].name"),
        ({"gates": 5}, "gates"),
        ({"gates": [{"kind": "tunneling", "modes": [True, 1], "theta": 0.1}]}, "gates[0].modes"),
        ({"gates": [{"kind": "phase", "modes": [0], "theta": True}]}, "gates[0].theta"),
        ({"gates": [{"kind": "phase", "modes": [0], "theta": "0.1"}]}, "gates[0].theta"),
        ({"initial_state": [True, False]}, "initial_state[0]"),
        (
            {"initial_state": [{"occupation": [True, False], "amplitude": [1.0, 0.0]}]},
            "initial_state[0]",
        ),
        ({"gates": [{"kind": "phase", "modes": [0, 1], "theta": 0.1}]}, "gates[0]"),
        ({"gates": [{"kind": "tunneling", "modes": [0], "theta": 0.1}]}, "gates[0]"),
        ({"n_modes": True}, "n_modes"),
        (
            {"initial_state": [{"occupation": [1, 0], "amplitude": [True, 0]}]},
            "initial_state[0].amplitude",
        ),
        ({"initial_state": [2, 0]}, "initial_state"),
        ({"tolerances": {"no_signaling": 1e-30}}, "tolerances.no_signaling"),
        ({"tolerances": {"bogus": 1}}, "tolerances.bogus"),
        ({"gates": [{"kind": ["phase"], "modes": [0], "theta": 0.1}]}, "gates[0]"),
        ({"gates": [{"kind": {"a": 1}, "modes": [0], "theta": 0.1}]}, "gates[0]"),
    ],
)
def test_bad_scenario_fields_exit_3_with_field_path(tmp_path, override, field):
    path = write_scenario(tmp_path, dict(EXAMPLE_SCENARIO, **override))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3, proc.stderr
    assert f"[bad_schema] at {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("partitions, field", [([[0, 0], [1]], "partitions[0]"), ([[0], [1, 0, 1]], "partitions[1]")])
def test_repeated_partition_modes_rejected(partitions, field):
    from fermidesc import cli
    from fermidesc.errors import ValidationError

    with pytest.raises(ValidationError) as err:
        cli.run_scenario(dict(EXAMPLE_SCENARIO, partitions=partitions))
    assert (err.value.code, err.value.field) == ("mode_out_of_range", field)


def test_non_finite_tolerance_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(EXAMPLE_SCENARIO)[:-1] + ', "tolerances": {"diagram": NaN}}')
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3
    assert "[bad_schema] at tolerances.diagram:" in proc.stderr


@pytest.mark.parametrize(
    "text", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "huge"]
)
def test_non_finite_theta_rejected(tmp_path, text):
    gate = {"kind": "tunneling", "modes": [0, 1], "theta": "THETA"}
    scenario = json.dumps(dict(EXAMPLE_SCENARIO, gates=[gate]))
    path = tmp_path / "scenario.json"
    path.write_text(scenario.replace('"THETA"', text))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "[bad_schema] at gates[0].theta:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text", ["NaN", "Infinity", "1" + "0" * 400], ids=["nan", "inf", "huge"]
)
def test_non_finite_amplitude_rejected(tmp_path, text):
    term = {"occupation": [1, 0], "amplitude": ["RE", 0]}
    scenario = json.dumps(dict(EXAMPLE_SCENARIO, initial_state=[term]))
    path = tmp_path / "scenario.json"
    path.write_text(scenario.replace('"RE"', text))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "[not_finite] at initial_state[0].amplitude:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _terms(*pairs):
    return [{"occupation": occ, "amplitude": amp} for occ, amp in pairs]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "terms, expected",
    [
        (_terms(([1, 0], [3e200, 0]), ([0, 1], [0, 4e200])), {2: 0.6, 1: 0.8j}),
        (_terms(([1, 0], [1e-13, 0])), {2: 1.0}),
        (_terms(([1, 0], [1e-300, 0])), {2: 1.0}),
        (_terms(([1, 0], [5e-324, 0]), ([0, 1], [0, 5e-324])), {2: 2**-0.5, 1: 1j * 2**-0.5}),
        (_terms(([0, 1], [1e308, 0]), ([0, 1], [-1e308, 1e308]), ([1, 0], [0, 1e308])), {1: 1j / 2**0.5, 2: 1j / 2**0.5}),
        (_terms(([1, 0], [1.7e308, 1.7e308])), {2: (1 + 1j) / 2**0.5}),
    ],
    ids=["huge", "tiny", "tinier", "subnormal", "huge-sum", "modulus-beyond-range"],
)
def test_initial_state_at_extreme_scales_is_normalised(terms, expected):
    from fermidesc import cli

    want = np.zeros(4, dtype=complex)
    for index, amplitude in expected.items():
        want[index] = amplitude
    assert np.allclose(cli._build_initial_state(terms, 2).amplitudes, want, rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "terms, code",
    [
        (_terms(([1, 0], [1e308, 0]), ([1, 0], [1e308, 0])), "not_finite"),
        (_terms(([1, 0], [1, 0]), ([1, 0], [-1, 0])), "bad_schema"),
        (_terms(([1, 0], [1e300, 0]), ([1, 0], [-1e300, 0]), ([0, 1], [1e-290, 0])), "bad_schema"),
        (_terms(([1, 0], [0, 0])), "bad_schema"),
    ],
    ids=["overflowed-sum", "cancelling", "cancelling-huge", "zero"],
)
def test_initial_state_overflow_and_zero_norm_refused(terms, code):
    from fermidesc import cli
    from fermidesc.errors import ValidationError

    with pytest.raises(ValidationError) as err:
        cli.run_scenario({"n_modes": 2, "initial_state": terms})
    assert (err.value.code, err.value.field) == (code, "initial_state")


def test_large_finite_theta_stays_unitary(tmp_path):
    gate = {"kind": "tunneling", "modes": [0, 1], "theta": 1e17}
    path = write_scenario(tmp_path, dict(EXAMPLE_SCENARIO, gates=[gate]))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_huge_integer_tolerance_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    huge = "1" + "0" * 400
    path.write_text(json.dumps(EXAMPLE_SCENARIO)[:-1] + f', "tolerances": {{"diagram": {huge}}}}}')
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "[bad_schema] at tolerances.diagram:" in proc.stderr


def test_failing_check_exits_1(tmp_path):
    scenario = dict(EXAMPLE_SCENARIO)
    scenario["tolerances"] = {"no_signalling": 1e-30}
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 1


def test_verify_rejects_single_mode_sweep():
    proc = run_cli("verify", "--modes", "1", "--count", "2")
    assert proc.returncode == 3
    assert "mode" in proc.stderr


def test_verify_rejects_negative_base_seed():
    proc = run_cli("verify", "--modes", "2", "--count", "1", "--seeds", "-1")
    assert proc.returncode == 3, proc.stderr
    assert "[bad_schema]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_beyond_the_mode_cap_exits_3(capsys, monkeypatch):
    from conftest import count_calls
    from fermidesc import cli, verification

    families = count_calls(monkeypatch, verification, "check_canonical_algebra")
    assert cli.main(["verify", "--modes", str(fock.mode_cap() + 1), "--count", "1"]) == 3
    assert "[cap_exceeded]" in capsys.readouterr().err
    assert families == []


def test_verify_reports_a_library_fault_as_a_failed_family(tmp_path, monkeypatch, capsys):
    """A fault raised inside a family is no bad input: exit 1, with the full report."""
    from fermidesc import cli, descriptors

    def degenerate(d):
        raise ValidationError("degenerate_reconstruction", "planted fault")

    monkeypatch.setattr(descriptors, "reconstruct_with_residual", degenerate)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--modes", "2", "--count", "2", "-o", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert len(checks) == 11
    failed = checks.pop("reconstruction")
    assert failed["passed"] is False and failed["residual"] == float("inf")
    assert failed["details"] == [
        {"error": {"code": "degenerate_reconstruction", "message": "planted fault"}}
    ]
    assert all(c["passed"] for c in checks.values())
    assert "FAIL reconstruction: residual inf" in capsys.readouterr().err


def test_verify_small_sweep(tmp_path):
    out = tmp_path / "verify.json"
    proc = run_cli("verify", "--modes", "2", "--count", "5", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert all(check["passed"] for check in report["checks"])
    assert "pass " in proc.stderr or "pass" in proc.stderr


def test_reconstruct_from_simulate_output(tmp_path):
    path = write_scenario(tmp_path, EXAMPLE_SCENARIO)
    report_path = tmp_path / "report.json"
    assert run_cli("simulate", str(path), "-o", str(report_path)).returncode == 0
    proc = run_cli("reconstruct", str(report_path))
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["round_trip_residual"] < 1e-8


def test_reconstruct_rejects_bad_descriptor_algebra(tmp_path):
    path = write_scenario(tmp_path, EXAMPLE_SCENARIO)
    report = json.loads(run_cli("simulate", str(path)).stdout)
    payload = report["global_descriptors"]
    payload["descriptors"][0][0][0] = [5.0, 0.0]  # corrupt one entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    proc = run_cli("reconstruct", str(bad))
    assert proc.returncode == 3


@pytest.fixture(scope="module")
def simulate_report(tmp_path_factory):
    path = write_scenario(tmp_path_factory.mktemp("report"), EXAMPLE_SCENARIO)
    return json.loads(run_cli("simulate", str(path)).stdout)


IDENTITY_4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
# the canonical annihilator of mode 0 on two modes, twice: odd, but not canonical
ANNIHILATOR_0_OF_2 = [[[float((i, j) in ((0, 2), (1, 3))), 0.0] for j in range(4)] for i in range(4)]
# {f_0^dag, f_1} on two modes: canonical, but its joint vacuum |10> is odd, so
# no parity-preserving unitary produces it
CREATOR_0_OF_2 = [[[float((i, j) in ((2, 0), (3, 1))), 0.0] for j in range(4)] for i in range(4)]
ANNIHILATOR_1_OF_2 = [
    [[{(0, 1): 1.0, (2, 3): -1.0}.get((i, j), 0.0), 0.0] for j in range(4)] for i in range(4)
]

MALFORMED_DESCRIPTOR_SET_FIELDS = [
    ({"modes": 5}, "global_descriptors.modes", "bad_schema"),
    ({"modes": ["0", 1]}, "global_descriptors.modes", "bad_schema"),
    ({"ambient_n": "two"}, "global_descriptors.ambient_n", "bad_schema"),
    ({"ambient_n": 2.0}, "global_descriptors.ambient_n", "bad_schema"),
    ({"descriptors": {"0": []}}, "global_descriptors.descriptors", "bad_schema"),
    ({"modes": [0], "ambient_n": fock.DEFAULT_MODE_CAP + 1}, "global_descriptors.ambient_n",
     "cap_exceeded"),
    ({"modes": [5], "ambient_n": 2}, "global_descriptors.modes", "mode_out_of_range"),
    ({"descriptors": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 2},
     "global_descriptors.descriptors[0]", "dimension_mismatch"),
    ({"heisenberg_state": [[1, 0], [0, 0]]}, "global_descriptors.heisenberg_state",
     "dimension_mismatch"),
    ({"descriptors": [IDENTITY_4] * 2}, "global_descriptors", "not_odd"),
    ({"heisenberg_state": [[2, 0], [0, 0], [0, 0], [0, 0]]}, "global_descriptors",
     "not_normalized"),
    ({"descriptors": [ANNIHILATOR_0_OF_2] * 2}, "global_descriptors", "descriptor_algebra"),
    ({"descriptors": [CREATOR_0_OF_2, ANNIHILATOR_1_OF_2]}, "global_descriptors",
     "descriptor_algebra"),
]


@pytest.mark.parametrize(
    "override, field, code",
    MALFORMED_DESCRIPTOR_SET_FIELDS,
    ids=[f"override{i}-{row[1]}" for i, row in enumerate(MALFORMED_DESCRIPTOR_SET_FIELDS)],
)
def test_reconstruct_rejects_malformed_descriptor_set_fields(
    tmp_path, simulate_report, override, field, code
):
    report = dict(simulate_report)
    report["global_descriptors"] = dict(report["global_descriptors"], **override)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    proc = run_cli("reconstruct", str(bad))
    assert proc.returncode == 3, proc.stderr
    assert f"[{code}] at {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_file_and_stdout_bytes_identical(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from fermidesc import cli

    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: 0.0))
    path = write_scenario(tmp_path, EXAMPLE_SCENARIO)
    out = tmp_path / "report.json"
    assert cli.main(["simulate", str(path), "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", str(path)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("target", ["no/such/dir/x.json", "."])
def test_unwritable_output_exits_3(tmp_path, capsys, target):
    from fermidesc import cli

    assert cli.main(["schema", "-o", str(tmp_path / target)]) == 3
    err = capsys.readouterr().err
    assert "[bad_output] at output:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unwritable_output_exits_3_before_any_work(tmp_path, monkeypatch, capsys, command):
    from conftest import count_calls
    from fermidesc import cli, verification

    sweeps = count_calls(monkeypatch, verification, "run_sweep")
    scenarios = count_calls(monkeypatch, cli, "run_scenario")
    target = str(tmp_path / "no/such/dir/x.json")
    if command == "simulate":
        argv = ["simulate", str(write_scenario(tmp_path, EXAMPLE_SCENARIO)), "-o", target]
    else:
        argv = ["verify", "--modes", "4", "-o", target]
    assert cli.main(argv) == 3
    assert "[bad_output] at output:" in capsys.readouterr().err
    assert sweeps == scenarios == []


def test_output_is_emptied_by_a_run_that_fails_later(tmp_path):
    from fermidesc import cli

    out = tmp_path / "report.json"
    out.write_text("an older report")
    bad = write_scenario(tmp_path, {"n_modes": 0})
    assert cli.main(["simulate", str(bad), "-o", str(out)]) == 3
    assert out.read_text() == ""


def test_reader_closing_early_exits_quietly(tmp_path):
    """A reader that stops after a few bytes leaves the verdict as the exit code."""
    scenario = {
        "n_modes": 5,
        "initial_state": [1, 0, 1, 0, 0],
        "gates": [{"kind": "tunneling", "modes": [0, 3], "theta": 0.4}],
        "partitions": [[0, 1], [2, 3, 4]],
        "checks": [{"name": "diagram"}],
    }
    path = write_scenario(tmp_path, scenario)
    with subprocess.Popen(
        [sys.executable, "-m", "fermidesc.cli", "simulate", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()  # about 750 kB are still to come, beyond any pipe buffer
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 0, stderr
    assert "Traceback" not in stderr
    assert "pass diagram" in stderr


def test_schema_output_stable():
    first = run_cli("schema")
    second = run_cli("schema")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["conventions"]["mode_labels"] == "0-based"
