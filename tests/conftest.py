"""Helpers shared by the test modules."""

import numpy as np
import pytest

from fermidesc import transformations as tf
from fermidesc.fock import ModeSet


@pytest.fixture(autouse=True)
def fresh_samples():
    """Each test draws its random unitaries itself: the sample memo starts empty.

    A call counted inside a draw then does not depend on which tests ran before.
    """
    tf._samples.cache_clear()
    yield
    tf._samples.cache_clear()


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.<name>`` so every call appends its positional arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def lift_cases(n_modes: int) -> list:
    """Every kind of lift the library builds on ``n_modes`` modes, each followed by its adjoint.

    Random local unitaries on 1 to 3 modes (proper subsets only: on every
    mode the sampler lifts nothing), each named gate, and a tunneling gate
    at theta = 0, which moves no mode.
    """
    rng = np.random.default_rng(60 + n_modes)
    lifts = []
    for size in range(1, min(3, n_modes - 1) + 1):
        sub = ModeSet.of(rng.choice(n_modes, size, replace=False), n_modes)
        lifts.append(tf.local_random_ps_unitary(sub, 10 * n_modes + size))
    for kind, arity in (("phase", 1), ("tunneling", 2), ("interaction", 2)):
        modes = tuple(int(j) for j in rng.choice(n_modes, arity, replace=False))
        lifts.append(tf.named_gate(kind, n_modes, modes=modes, theta=rng.uniform(-3, 3)))
    lifts.append(tf.named_gate("tunneling", n_modes, modes=(0, n_modes - 1), theta=0.0))
    return [u for lift in lifts for u in (lift, lift.dag())]
