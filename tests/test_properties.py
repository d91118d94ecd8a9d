"""Properties of the block storage of ``PSUnitary``, over drawn sizes and routes.

A ``PSUnitary`` stores its two sector blocks and assembles its dense form on
each read.  Every way the library builds a unitary is drawn here at N = 2…5:
the constructor, the sampler, ``@``, the adjoint, lifts of random local
unitaries, named gates, ``exp_hamiltonian``, the ``_intertwiner`` witness and
a lift's folded frame.  For each, the dense form is the blocks scattered into
+0.0 zeros, and the defect it carries is never below the one measured on its
own blocks.  The group action ``ontic_apply(w, evolve(u))`` equals
``evolve(w @ u)`` for lifts and bare unitaries alike.  The runs are
derandomized and write no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidesc import descriptors as dsc, fock, transformations as tf
from fermidesc.fock import FockOperator, ModeSet
from fermidesc.verification import random_sector_state

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=16)


def _proper_subset(n_modes: int, rng) -> ModeSet:
    size = int(rng.integers(1, n_modes))
    return ModeSet.of(rng.choice(n_modes, size, replace=False), n_modes)


def _named_gate(n_modes: int, rng) -> tf.PSUnitary:
    kind, arity = [("phase", 1), ("tunneling", 2), ("interaction", 2)][int(rng.integers(3))]
    modes = tuple(int(j) for j in rng.choice(n_modes, arity, replace=False))
    return tf.named_gate(kind, n_modes, modes=modes, theta=float(rng.uniform(-3, 3)))


def _exp_hamiltonian(n_modes: int, rng) -> tf.PSUnitary:
    dim = 2 ** n_modes
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = np.zeros((dim, dim), dtype=complex)
    for pair in fock._sector_pairs(n_modes)[:2]:
        h[pair] = (a + a.conj().T)[pair]
    return tf.exp_hamiltonian(FockOperator(n_modes, h))


def _witness(n_modes: int, rng, seed: int) -> tf.PSUnitary:
    u = tf.random_ps_unitary(n_modes, seed)
    d = dsc.evolve_descriptors(u, _proper_subset(n_modes, rng), fock.vacuum_state(n_modes))
    return dsc._intertwiner(d.matrices(), n_modes)[0]


def _folded_frame(n_modes: int, rng, seed: int) -> tf.PSUnitary:
    u = tf.random_ps_unitary(n_modes, seed)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, seed))
    w = tf.local_random_ps_unitary(_proper_subset(n_modes, rng), seed + 1)
    return dsc.ontic_apply(w, d)._witness[0]


ROUTES = {
    "constructor": lambda n, rng, seed: tf.PSUnitary(n, tf.random_ps_unitary(n, seed).matrix),
    "sampler": lambda n, rng, seed: tf.random_ps_unitary(n, seed),
    "product": lambda n, rng, seed: (
        tf.random_ps_unitary(n, seed) @ tf.local_random_ps_unitary(_proper_subset(n, rng), seed)
    ),
    "adjoint": lambda n, rng, seed: tf.random_ps_unitary(n, seed).dag(),
    "lift": lambda n, rng, seed: tf.local_random_ps_unitary(_proper_subset(n, rng), seed),
    "lift_adjoint": lambda n, rng, seed: (
        tf.local_random_ps_unitary(_proper_subset(n, rng), seed).dag()
    ),
    "named_gate": lambda n, rng, seed: _named_gate(n, rng),
    "exp_hamiltonian": lambda n, rng, seed: _exp_hamiltonian(n, rng),
    "witness": lambda n, rng, seed: _witness(n, rng, seed),
    "folded_frame": lambda n, rng, seed: _folded_frame(n, rng, seed),
}

sizes = st.integers(2, 5)
seeds = st.integers(0, 2**20)


def _built(route: str, n_modes: int, seed: int) -> tf.PSUnitary:
    return ROUTES[route](n_modes, np.random.default_rng(seed), seed)


@pytest.mark.parametrize("route", sorted(ROUTES))
@PROPERTIES
@given(n_modes=sizes, seed=seeds)
def test_the_dense_form_is_the_blocks_in_positive_zeros(route, n_modes, seed):
    u = _built(route, n_modes, seed)
    half = 2 ** (n_modes - 1)
    assert set(vars(u)) <= {"n_modes", "blocks", "defect", "_local"}
    assert [block.shape for block in u.blocks] == [(half, half)] * 2
    assert not any(block.flags.writeable for block in u.blocks)
    dense = u.matrix
    assert dense is not u.matrix and not dense.flags.writeable
    pairs = fock._sector_pairs(n_modes)
    for pair, block in zip(pairs, u.blocks):
        assert np.ascontiguousarray(dense[pair]).tobytes() == np.ascontiguousarray(block).tobytes()
    off = np.concatenate([dense[pair].ravel() for pair in pairs[2:]])
    assert not off.any()
    assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()


# routes whose defect is measured on the blocks they hold; the others carry one
MEASURED = {"constructor", "sampler", "product", "exp_hamiltonian", "witness"}


def _measurement_rounding(n_modes: int) -> float:
    """A bound on the rounding of |B^dag B - I| over both blocks of a unitary.

    Each entry of a d x d product B^dag B is off by at most gamma_(d+2) sqrt(2)
    times the sum of |b_ki| |b_kj|, so the block's error is at most
    sqrt(2) gamma_(d+2) |B|_F^2 = sqrt(2) gamma_(d+2) d; the two blocks add up.
    """
    d = 2 ** (n_modes - 1)
    k = (d + 2) * 2.0**-53
    return 2 * np.sqrt(2) * k / (1 - k) * d


@pytest.mark.parametrize("route", sorted(ROUTES))
@PROPERTIES
@given(n_modes=sizes, seed=seeds)
def test_a_carried_defect_is_never_below_the_measured_one(route, n_modes, seed):
    # an adjoint carries |U^dag U - I| for |U U^dag - I| and a lift its factor's
    # defect scaled: exact values that the measurement reaches only to rounding
    u = _built(route, n_modes, seed)
    measured = tf._sectors_defect(u.blocks)
    if route in MEASURED:
        assert u.defect == measured
    else:
        assert u.defect >= measured - _measurement_rounding(n_modes)


@settings(PROPERTIES, max_examples=60)
@given(sizes, seeds, st.booleans())
def test_acting_on_an_ontic_state_is_evolving_by_the_product(n_modes, seed, bare):
    rng = np.random.default_rng(seed)
    tracked = _proper_subset(n_modes, rng) if rng.integers(2) else ModeSet.full(n_modes)
    size = int(rng.integers(1, len(tracked) + 1))
    moved = ModeSet.of(rng.choice(tracked.indices, size, replace=False), n_modes)
    w = tf.local_random_ps_unitary(moved, seed + 1)
    if bare:
        w = tf.PSUnitary(n_modes, w.matrix)  # the same matrix with no lift factor
    assert (w._local is None) == (bare or moved.is_full)
    u = tf.random_ps_unitary(n_modes, seed)
    psi0 = random_sector_state(n_modes, seed + 2)
    acted = dsc.ontic_apply(w, dsc.evolve_descriptors(u, tracked, psi0))
    composed = dsc.evolve_descriptors(w @ u, tracked, psi0)
    for x, y in zip(acted.descriptors, composed.descriptors):
        assert fock.frobenius(x.matrix - y.matrix) <= 1e-12
