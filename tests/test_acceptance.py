"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``PASS``/``FAIL`` line (visible with ``pytest -s``
or in the failure output) and asserts both the numerical tolerance and the
stated runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fermidesc import algebra, descriptors as dsc, fock, states, transformations as tf
from fermidesc import verification as vf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet


class Criterion:
    """Tiny helper: time the body, print one line, enforce the budget."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.started = None

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def finish(self, passed: bool, detail: str):
        elapsed = time.monotonic() - self.started
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        print(
            f"{status} criterion {self.number} ({self.label}): {detail}"
            f" [{elapsed:.1f}s / budget {self.budget:.0f}s]"
        )
        assert passed, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} over budget: {elapsed:.1f}s"

    def __exit__(self, exc_type, exc, tb):
        return False


def test_criterion_1_canonical_algebra():
    with Criterion(1, "canonical algebra", 10.0) as c:
        constructed_worst = 0.0
        conjugated_worst = 0.0
        for n_modes in range(1, 6):
            result = vf.check_canonical_algebra(n_modes, range(20), tol=1e-10)
            constructed_worst = max(constructed_worst, result.details[0]["constructed_residual"])
            conjugated_worst = max(conjugated_worst, result.details[0]["conjugated_residual"])
        passed = constructed_worst == 0.0 and conjugated_worst < 1e-10
        c.finish(
            passed,
            f"constructed residual {constructed_worst:.1e} (exact), "
            f"conjugated residual {conjugated_worst:.3e} < 1e-10 over 100 unitaries",
        )


def test_criterion_2_ssr_gatekeeping():
    with Criterion(2, "SSR gatekeeping", 5.0) as c:
        failures = []
        forbidden = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        try:
            states.PhenomenalState(ModeSet.full(1), forbidden)
            failures.append("forbidden state accepted")
        except ValidationError as exc:
            if exc.code != "ssr_violation":
                failures.append(f"wrong code {exc.code}")
        try:
            tf.exp_hamiltonian(fock.annihilator(2, 1) + fock.creator(2, 1))
            failures.append("forbidden generator accepted")
        except ValidationError as exc:
            if exc.code != "ssr_violation":
                failures.append(f"wrong code {exc.code}")
        accepted = 0
        for seed in range(100):
            tf.validate_ps_unitary(tf.random_ps_unitary(3, seed).matrix)
            accepted += 1
        passed = not failures and accepted == 100
        c.finish(passed, f"rejections correct, {accepted}/100 sector-Haar samples accepted")


def test_criterion_3_locality_invariance():
    with Criterion(3, "locality invariance", 30.0) as c:
        worst = 0.0
        checked = 0
        for n_modes in (3, 4):
            for subset in vf.proper_subsets(n_modes):
                outside = subset.complement().indices
                for seed in range(100):
                    u = tf.local_random_ps_unitary(subset, seed)
                    for j in outside:
                        f = fock.annihilator(n_modes, j)
                        worst = max(worst, fock.frobenius(u.heisenberg(j) - f.matrix))
                        checked += 1
        c.finish(worst < 1e-10, f"{checked} conjugations, worst residual {worst:.3e} < 1e-10")


def test_criterion_4_no_signalling():
    with Criterion(4, "no-signalling", 60.0) as c:
        n_modes = 4
        pairs = list(vf.bipartitions(n_modes))
        assert len(pairs) == 7
        worst = 0.0
        count = 0
        for i in range(100):
            part_a, part_b = pairs[i % len(pairs)]
            rho = vf.random_phenomenal(n_modes, i)
            u_a = tf.local_random_ps_unitary(part_a, 2 * i)
            v_b = tf.local_random_ps_unitary(part_b, 2 * i + 1)
            result = vf.check_no_signalling(rho, u_a, v_b, part_a, part_b, tol=1e-9)
            worst = max(worst, result.residual)
            count += 1
            assert result.passed
        # negative control: the SSR-violating candidate dies at the precondition
        mixer = np.kron(
            np.eye(8), np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        ).astype(complex)
        control_ok = False
        try:
            tf.validate_ps_unitary(mixer)
        except ValidationError as exc:
            control_ok = exc.code == "ssr_violation"
        c.finish(
            worst < 1e-9 and control_ok,
            f"{count} triples over 7 bipartitions, worst residual {worst:.3e} < 1e-9; "
            f"SSR-violating control rejected",
        )


def test_criterion_5_descriptor_equivalence():
    with Criterion(5, "descriptor equivalence", 60.0) as c:
        ok = True
        worst = 0.0
        rng = np.random.default_rng(2024)
        for i in range(100):
            n_modes = int(rng.integers(2, 5))
            mode = int(rng.integers(n_modes))
            complement = ModeSet.of([m for m in range(n_modes) if m != mode], n_modes)
            v = tf.random_ps_unitary(n_modes, 3 * i + 1)
            w = tf.local_random_ps_unitary(complement, 3 * i + 2)
            u = w @ v
            if not dsc.equivalent_at(u, v, ModeSet((mode,), n_modes), tol=1e-9):
                ok = False
            quotient = u @ v.dag()
            res = algebra.locality_residual(quotient.as_operator(), complement)
            worst = max(worst, res)
            if not tf.is_local_unitary(quotient, complement, tol=1e-9):
                ok = False
        c.finish(
            ok and worst < 1e-9,
            f"100 pairs equivalent with complement-local quotients, "
            f"worst locality residual {worst:.3e} < 1e-9",
        )


def test_criterion_6_reconstruction():
    with Criterion(6, "unitary reconstruction", 120.0) as c:
        runs = [(3, seed) for seed in range(100)] + [(5, seed) for seed in range(10)]
        result = vf.check_reconstruction(runs, tol=1e-8)
        c.finish(
            result.passed,
            f"110 round trips (100 at N=3, 10 at N=5), worst residual "
            f"{result.residual:.3e} < 1e-8",
        )


def test_criterion_7_epimorphism():
    with Criterion(7, "epimorphism consistency", 30.0) as c:
        runs = []
        for i in range(100):
            runs.append((2 + i % 3, i))
        result = vf.check_epimorphism(runs, tol=1e-10)
        c.finish(
            result.passed,
            f"100 instances at N in 2..4, worst residual {result.residual:.3e} < 1e-10",
        )


def test_criterion_8_diagram():
    with Criterion(8, "reduction diagram", 120.0) as c:
        n_modes = 4
        subsets = list(vf.proper_subsets(n_modes))
        assert len(subsets) == 14
        worst = 0.0
        worst_cross = 0.0
        for seed in range(25):
            u = tf.random_ps_unitary(n_modes, seed)
            psi0 = vf.random_sector_state(n_modes, seed + 1000)
            d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), psi0)
            for subset in subsets:
                result = vf.check_diagram(d, [subset], tol=1e-9)
                assert result.passed
                worst = max(worst, result.residual)
                worst_cross = max(
                    worst_cross, result.details[0]["partial_trace_cross_residual"]
                )
        c.finish(
            worst < 1e-9 and worst_cross < 1e-10,
            f"25 unitaries x 14 subsets, worst path residual {worst:.3e} < 1e-9, "
            f"partial-trace cross residual {worst_cross:.3e} < 1e-10",
        )


def test_criterion_9_ontic_property_list():
    with Criterion(9, "ontic property list", 60.0) as c:
        result = vf.check_ontic_property_list(range(50), 3, tol=1e-9)
        control = vf.check_ontic_property_list(range(8), 3, tol=1e-9, negative_control=True)
        c.finish(
            result.passed and control.passed,
            f"50 instances with join uniqueness, worst residual {result.residual:.3e} "
            f"< 1e-9; non-local control failed as expected",
        )


def test_criterion_10_qubit_ladders():
    with Criterion(10, "qubit ladder proposition", 1.0) as c:
        worst = 0.0
        for n_qubits in (1, 2, 3):
            result = vf.check_qubit_ladders(n_qubits)
            assert result.passed
            worst = max(worst, result.residual)
        c.finish(worst == 0.0, "relations and Pauli regeneration exact at 1..3 qubits")


SCENARIO = {
    "n_modes": 2,
    "initial_state": [1, 0],
    "gates": [{"kind": "tunneling", "modes": [0, 1], "theta": 0.7853981633974483}],
    "partitions": [[0], [1]],
    "checks": [{"name": "diagram"}, {"name": "no_signalling", "seed": 1, "count": 6}],
}


def _cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "fermidesc.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_11_cli_end_to_end(tmp_path):
    with Criterion(11, "CLI end to end", 120.0) as c:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        first = _cli("simulate", str(path))
        second = _cli("simulate", str(path))
        ok = first.returncode == 0 and second.returncode == 0

        def strip(raw):
            data = json.loads(raw)
            data.pop("timings", None)
            return data

        deterministic = strip(first.stdout) == strip(second.stdout)

        started = time.monotonic()
        sweep = _cli("verify", "--modes", "3", "--count", "50")
        sweep_seconds = time.monotonic() - started
        sweep_ok = sweep.returncode == 0 and sweep_seconds < 60.0

        malformed = _cli("simulate", "-", stdin_text="{oops")
        ssr = _cli(
            "simulate",
            "-",
            stdin_text=json.dumps(
                {
                    "n_modes": 1,
                    "initial_state": [
                        {"occupation": [0], "amplitude": [0.7071, 0]},
                        {"occupation": [1], "amplitude": [0.7071, 0]},
                    ],
                }
            ),
        )
        codes_ok = malformed.returncode == 2 and ssr.returncode == 3
        c.finish(
            ok and deterministic and sweep_ok and codes_ok,
            f"deterministic report, verify sweep exit 0 in {sweep_seconds:.1f}s < 60s, "
            f"exit codes 2/3 for malformed/SSR input",
        )
