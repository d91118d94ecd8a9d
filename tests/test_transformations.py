"""Superselected unitaries: validation, generators, gates, locality, sampling."""

import itertools
import json
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import count_calls, lift_cases
from oracles import haar_sector_blocks
from fermidesc import algebra, descriptors as dsc, fock, transformations as tf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.verification import random_phenomenal, random_sector_state


def expm_eigh_oracle(h: np.ndarray) -> np.ndarray:
    """exp(i h) through the spectral theorem; independent of the production path."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals)[None, :]) @ evecs.conj().T


def test_validate_examples():
    tf.validate_ps_unitary(np.eye(4, dtype=complex))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValidationError) as err:
        tf.validate_ps_unitary(hadamard)
    assert err.value.code == "ssr_violation"
    for theta in (0.0, 0.4, np.pi):
        n0 = fock.creator(1, 0) @ fock.annihilator(1, 0)
        tf.validate_ps_unitary(expm_eigh_oracle(theta * n0.matrix))


def test_validate_rejects_non_unitary():
    with pytest.raises(ValidationError) as err:
        tf.validate_ps_unitary(np.diag([1.0, 2.0]).astype(complex))
    assert err.value.code == "not_unitary"


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize(
    "matrix, code",
    [
        (2 * HADAMARD, "ssr_violation"),  # neither even nor unitary: the grade runs first
        (np.diag([1.0, 2.0]).astype(complex), "not_unitary"),
        (HADAMARD, "ssr_violation"),
    ],
    ids=["neither", "even_not_unitary", "unitary_not_even"],
)
def test_the_grade_is_refused_before_the_defect(matrix, code):
    with pytest.raises(ValidationError) as err:
        tf.validate_ps_unitary(matrix)
    assert err.value.code == code


@pytest.mark.parametrize(
    "dim, code", [(0, "dimension_mismatch"), (3, "dimension_mismatch"), (1, "mode_out_of_range")]
)
def test_validate_rejects_bad_dimensions(dim, code):
    with pytest.raises(ValidationError) as err:
        tf.validate_ps_unitary(np.zeros((dim, dim)))
    assert err.value.code == code


def test_exp_hamiltonian_zero_gives_identity():
    h = fock.FockOperator(2, np.zeros((4, 4)))
    u = tf.exp_hamiltonian(h)
    assert np.allclose(u.matrix, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_exp_hamiltonian_matches_spectral_oracle(seed):
    rng = np.random.default_rng(seed)
    n_modes = 3
    diag = fock._parity_diagonal(n_modes).real
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (h + h.conj().T) / 2
    # zero out the parity-mixing blocks to make the generator even
    mask = np.equal.outer(diag, diag)
    h = np.where(mask, h, 0.0)
    u = tf.exp_hamiltonian(fock.FockOperator(n_modes, h))
    assert fock.frobenius(u.matrix - expm_eigh_oracle(h)) < 1e-12


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_exp_hamiltonian_matches_scipy_expm(n_modes):
    rng = np.random.default_rng(n_modes)
    diag = fock._parity_diagonal(n_modes).real
    for _ in range(5):
        h = rng.standard_normal((2**n_modes,) * 2) + 1j * rng.standard_normal((2**n_modes,) * 2)
        h = np.where(np.equal.outer(diag, diag), (h + h.conj().T) / 2, 0.0)
        u = tf.exp_hamiltonian(fock.FockOperator(n_modes, h))
        assert np.abs(u.matrix - scipy.linalg.expm(1j * h)).max() <= 1e-14


@pytest.mark.parametrize("scale", [1e17, 1e300])
def test_exp_hamiltonian_at_large_scales(scale):
    """exp(i s X) on the hopping pair is cos(s) + i sin(s) X, with no warning at any finite s."""
    hop = fock.creator(2, 0) @ fock.annihilator(2, 1)
    h = scale * (hop + hop.dag())
    want = np.eye(4, dtype=complex)
    want[1, 1] = want[2, 2] = np.cos(scale)
    want[1, 2] = want[2, 1] = 1j * np.sin(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = tf.exp_hamiltonian(h)
    assert np.abs(u.matrix - want).max() <= 1e-14
    even, odd = fock.parity_sectors(2)
    assert not u.matrix[np.ix_(even, odd)].any() and not u.matrix[np.ix_(odd, even)].any()


def test_exp_hamiltonian_rejections():
    odd = fock.annihilator(2, 0) + fock.creator(2, 0)
    with pytest.raises(ValidationError) as err:
        tf.exp_hamiltonian(odd)
    assert err.value.code == "ssr_violation"
    skew = fock.FockOperator(1, np.array([[0, 1], [-1, 0]], dtype=complex))
    with pytest.raises(ValidationError) as err:
        tf.exp_hamiltonian(skew)
    assert err.value.code == "not_hermitian"


def test_phase_gate_zero_is_identity():
    u = tf.named_gate("phase", 2, modes=(0,), theta=0.0)
    assert np.allclose(u.matrix, np.eye(4), atol=1e-14)


def test_tunneling_half_pi_swaps_with_sign():
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=np.pi / 2)
    v10 = fock.fock_basis_state(2, [1, 0]).amplitudes
    v01 = fock.fock_basis_state(2, [0, 1]).amplitudes
    assert np.allclose(u.matrix @ v10, -v01, atol=1e-12)
    assert np.allclose(u.matrix @ v01, v10, atol=1e-12)


def test_tunneling_is_rotation_in_single_particle_sector():
    theta = 0.3
    u = tf.named_gate("tunneling", 2, modes=(0, 1), theta=theta)
    v10 = fock.fock_basis_state(2, [1, 0]).amplitudes
    expected = np.cos(theta) * v10 - np.sin(theta) * fock.fock_basis_state(2, [0, 1]).amplitudes
    assert np.allclose(u.matrix @ v10, expected, atol=1e-12)


def test_interaction_gate_diagonal_fixes_vacuum():
    u = tf.named_gate("interaction", 2, modes=(0, 1), theta=1.3)
    assert np.allclose(u.matrix, np.diag(np.diag(u.matrix)), atol=1e-14)
    vac = fock.vacuum_state(2).amplitudes
    assert np.allclose(u.matrix @ vac, vac, atol=1e-14)


def test_named_gate_index_errors():
    with pytest.raises(ValidationError):
        tf.named_gate("phase", 2, modes=(2,), theta=0.1)
    with pytest.raises(ValidationError):
        tf.named_gate("tunneling", 2, modes=(0, 0), theta=0.1)
    for kind, modes in (("phase", (0, 1)), ("tunneling", (0,)), ("interaction", (0, 1, 2))):
        with pytest.raises(ValidationError) as err:
            tf.named_gate(kind, 3, modes=modes, theta=0.1)
        assert err.value.code == "bad_schema"
    with pytest.raises(ValidationError) as err:
        tf.named_gate("hopping", 3, modes=(0, 1), theta=0.1)
    assert err.value.code == "bad_kind"


@pytest.mark.parametrize("kind", [["phase"], {"a": 1}])
def test_named_gate_refuses_non_string_kind(kind):
    with pytest.raises(ValidationError) as err:
        tf.named_gate(kind, 3, modes=(0,), theta=0.1)
    assert err.value.code == "bad_kind"


def ambient_gate_oracle(kind: str, n_modes: int, modes: tuple[int, ...], theta: float):
    """The ambient construction: dense 2^N ladder products, then scipy's expm."""
    c = [fock.creator(n_modes, m).matrix for m in range(n_modes)]
    a = [fock.annihilator(n_modes, m).matrix for m in range(n_modes)]
    i, j = modes[0], modes[-1]
    if kind == "phase":
        return scipy.linalg.expm(1.0j * (theta * (c[i] @ a[i])))
    if kind == "tunneling":
        return scipy.linalg.expm(theta * (c[i] @ a[j] - c[j] @ a[i]))
    return scipy.linalg.expm(1.0j * (theta * (c[i] @ a[i] @ c[j] @ a[j])))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_named_gates_match_ambient_construction(n_modes):
    # every kind on every ordered mode tuple, reversed ones such as (3, 0) included
    tuples = {
        "phase": [(i,) for i in range(n_modes)],
        "tunneling": list(itertools.permutations(range(n_modes), 2)),
        "interaction": list(itertools.permutations(range(n_modes), 2)),
    }
    for kind, all_modes in tuples.items():
        for modes in all_modes:
            for theta in (0.3, -2.1, np.pi):
                new = tf.named_gate(kind, n_modes, modes=modes, theta=theta).matrix
                old = ambient_gate_oracle(kind, n_modes, modes, theta)
                assert np.abs(new - old).max() <= 1e-14, (kind, modes, theta)


def zero_sign_bits(matrix: np.ndarray) -> int:
    """Number of zero real or imaginary parts stored as -0.0."""
    return sum(int(np.signbit(part[part == 0]).sum()) for part in (matrix.real, matrix.imag))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_lifted_matrices_have_no_negative_zeros(n_modes):
    for kind, arity in (("phase", 1), ("tunneling", 2), ("interaction", 2)):
        for modes in itertools.permutations(range(n_modes), arity):
            for theta in (0.3, -2.1, np.pi):
                gate = tf.named_gate(kind, n_modes, modes=modes, theta=theta)
                assert zero_sign_bits(gate.matrix) == 0, (kind, modes, theta)
    for size in range(1, n_modes):
        for modes in itertools.combinations(range(n_modes), size):
            u = tf.local_random_ps_unitary(ModeSet(modes, n_modes), size)
            assert zero_sign_bits(u.matrix) == 0, modes


def test_named_gates_stay_unitary_at_large_angles():
    # the closed forms take sin, cos and exp of theta only, so no overflow
    # and no loss of unitarity at any finite angle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, modes in (("phase", (1,)), ("tunneling", (2, 0)), ("interaction", (0, 2))):
            for theta in (1e17, -1e200, 1e300):
                gate = tf.named_gate(kind, 3, modes=modes, theta=theta)
                tf.validate_ps_unitary(gate.matrix)


IMPORT_GUARD = """
import sys
import numpy as np
import fermidesc.cli
from fermidesc import fock, transformations as tf
for kind, modes in (("phase", (1,)), ("tunneling", (0, 2)), ("interaction", (2, 1))):
    tf.named_gate(kind, 3, modes=modes, theta=0.7)
tf.random_ps_unitary(3, 0)
assert "scipy.linalg" not in sys.modules
number = fock.creator(1, 0) @ fock.annihilator(1, 0)
via_expm = tf.exp_hamiltonian(0.7 * number).matrix
closed = tf.named_gate("phase", 1, modes=(0,), theta=0.7).matrix
assert np.abs(via_expm - closed).max() <= 1e-15
assert "scipy.linalg" not in sys.modules
"""


def test_named_gates_and_sampling_leave_scipy_linalg_unloaded():
    # a fresh interpreter: this session has imported scipy.linalg already
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_is_local_unitary_examples():
    assert tf.is_local_unitary(
        tf.named_gate("phase", 2, modes=(0,), theta=0.4), ModeSet((0,), 2)
    )
    assert not tf.is_local_unitary(
        tf.named_gate("tunneling", 2, modes=(0, 1), theta=0.4), ModeSet((0,), 2)
    )
    phase_only = tf.PSUnitary(2, np.exp(0.9j) * np.eye(4))
    assert tf.is_local_unitary(phase_only, ModeSet((0,), 2))
    assert tf.is_local_unitary(phase_only, ModeSet((1,), 2))


@pytest.mark.parametrize("seed", range(4))
def test_locality_criteria_agree_on_unitaries(seed):
    # span membership iff every outside annihilator is left invariant
    n_modes = 3
    sub = ModeSet((0, 1), n_modes)
    local = tf.local_random_ps_unitary(sub, seed)
    assert tf.is_local_unitary(local, sub)
    assert tf.invariance_support(local).is_subset_of(sub)
    glob = tf.random_ps_unitary(n_modes, seed + 1000)
    assert not tf.is_local_unitary(glob, sub)
    assert not tf.invariance_support(glob).is_subset_of(sub)


def test_random_ps_unitary_contracts():
    a = tf.random_ps_unitary(3, 7)
    b = tf.random_ps_unitary(3, 7)
    assert np.array_equal(a.matrix, b.matrix)
    p = fock.parity_operator(3)
    assert fock.frobenius((a.matrix @ p.matrix) - (p.matrix @ a.matrix)) < 1e-12


def test_random_ps_unitary_seed_separation():
    distances = [
        fock.frobenius(
            tf.random_ps_unitary(3, 2 * k).matrix - tf.random_ps_unitary(3, 2 * k + 1).matrix
        )
        for k in range(100)
    ]
    assert min(distances) > 0.1


def heisenberg_cases(n_modes: int):
    """Haar, lifted-local and named-gate-product unitaries on ``n_modes`` modes."""
    yield tf.random_ps_unitary(n_modes, n_modes)
    yield tf.PSUnitary(n_modes, np.eye(2 ** n_modes))
    if n_modes == 1:
        yield tf.named_gate("phase", 1, modes=(0,), theta=0.8)
        return
    yield tf.local_random_ps_unitary(ModeSet((0, n_modes - 1), n_modes), 2)
    yield tf.local_random_ps_unitary(ModeSet((n_modes // 2,), n_modes), 3)
    rng = np.random.default_rng(n_modes)
    product = tf.PSUnitary(n_modes, np.eye(2 ** n_modes))
    for k in range(12):
        kind = ("tunneling", "phase", "interaction")[k % 3]
        modes = tuple(int(m) for m in rng.choice(n_modes, 1 + (kind != "phase"), replace=False))
        product = tf.named_gate(kind, n_modes, modes=modes, theta=rng.uniform(-3, 3)) @ product
        if k in (0, 1, 11):
            yield product


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_heisenberg_image_matches_the_explicit_product(monkeypatch, n_modes):
    # the sector kernel sums in another order than the dense product, so the
    # two agree to rounding (about 1e-16 at N = 8), not bit for bit
    kernels = count_calls(monkeypatch, tf, "_sector_image")
    even, odd = fock.parity_sectors(n_modes)
    images = 0
    for u in heisenberg_cases(n_modes):
        for a in range(n_modes):
            f = fock.annihilator(n_modes, a)
            explicit = u.matrix.conj().T @ f.matrix @ u.matrix
            image = u.heisenberg(a)
            images += 1
            assert fock.frobenius(image - explicit) <= 1e-14 * fock.frobenius(explicit)
            for block in (image[np.ix_(even, even)], image[np.ix_(odd, odd)]):
                assert not block.view(float).any() and not np.signbit(block.view(float)).any()
    assert len(kernels) == images


def dense_invariance_support(u: tf.PSUnitary, tol: float = 1e-10) -> ModeSet:
    """The moved modes from N Heisenberg images, |U^dag f_j U - f_j| > tol max(1, |f_j|)."""
    moved = []
    for j in range(u.n_modes):
        f = fock.annihilator(u.n_modes, j).matrix
        if fock.frobenius(u.heisenberg(j) - f) > tol * max(1.0, fock.frobenius(f)):
            moved.append(j)
    return ModeSet(tuple(moved), u.n_modes)


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_invariance_support_matches_the_dense_form(monkeypatch, n_modes):
    rng = np.random.default_rng(40 + n_modes)
    cases = list(heisenberg_cases(n_modes))
    for size in range(1, n_modes + 1):
        modes = rng.choice(n_modes, size, replace=False)
        cases.append(tf.local_random_ps_unitary(ModeSet.of(modes, n_modes), size))
    images = []
    heisenberg = tf.PSUnitary.heisenberg
    with monkeypatch.context() as patch:
        patch.setattr(tf.PSUnitary, "heisenberg", lambda u, a: images.append(a) or heisenberg(u, a))
        supports = [tf.invariance_support(u) for u in cases]
    assert images == []  # the locality kernel forms no Heisenberg image
    assert supports == [dense_invariance_support(u) for u in cases]


def test_heisenberg_rejects_bad_modes():
    u = tf.random_ps_unitary(3, 0)
    for mode in (3, -1):
        with pytest.raises(ValidationError) as err:
            u.heisenberg(mode)
        assert err.value.code == "mode_out_of_range"


def test_adjoint_is_trusted_and_c_contiguous(monkeypatch):
    u = tf.local_random_ps_unitary(ModeSet((1, 2), 4), 9)
    validations = count_calls(monkeypatch, tf.PSUnitary, "__post_init__")
    adjoint = u.dag()
    assert validations == []
    assert adjoint.defect == u.defect
    assert adjoint.matrix.flags.c_contiguous and not adjoint.matrix.flags.writeable
    assert np.array_equal(adjoint.matrix, u.matrix.conj().T)
    for block, original in zip(adjoint.blocks, u.blocks):
        assert block.flags.c_contiguous and not block.flags.writeable
        assert block.tobytes() == np.ascontiguousarray(original.conj().T).tobytes()


def test_as_operator_runs_no_second_array_rule(monkeypatch):
    u = tf.random_ps_unitary(3, 2)
    rules = count_calls(monkeypatch, fock, "checked_array")
    op = u.as_operator()
    assert rules == [] and np.array_equal(op.matrix, u.matrix)
    assert not op.matrix.flags.writeable


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_stacked_draw_equals_the_per_sector_loop_bit_for_bit(n_modes):
    for seed in (0, 1, 7, 123456, 2**40):
        u = tf.random_ps_unitary(n_modes, seed)
        blocks = haar_sector_blocks(n_modes, seed)
        assert all(np.array_equal(a, b) for a, b in zip(u.blocks, blocks))
        assert u.defect == tf._sectors_defect(blocks)
        for pair, block in zip(fock._sector_pairs(n_modes), blocks):
            assert np.array_equal(u.matrix[pair], block)


def test_a_seed_is_drawn_once_and_shared(monkeypatch):
    draws = count_calls(monkeypatch, tf, "_haar_sectors")
    u = tf.random_ps_unitary(4, 11)
    assert tf.random_ps_unitary(4, 11) is u
    assert tf.random_ps_unitary(4, np.int64(11)) is u  # one entry for both integer types
    assert tf.local_random_ps_unitary(ModeSet.full(4), 11) is u
    assert draws == [(4, 11)] and len(tf._samples._held) == 1
    assert u._local is None
    assert not u.matrix.flags.writeable
    assert not any(block.flags.writeable for block in u.blocks)
    assert tf.random_ps_unitary(3, 11) is not u  # the key holds the mode count
    assert draws == [(4, 11), (3, 11)]


def test_the_sample_memo_stays_within_its_byte_cap(monkeypatch):
    draws = count_calls(monkeypatch, tf, "_haar_sectors")
    memo = tf._samples
    for seed in range(60):
        for n_modes in range(1, 9):
            tf.random_ps_unitary(n_modes, seed)
            assert memo.nbytes <= tf.SAMPLE_MEMO_BYTES
            assert memo.nbytes == sum(map(tf._sample_bytes, memo._held.values()))
    assert len(draws) == 60 * 8
    assert tf._sample_bytes(tf.random_ps_unitary(8, 59)) == 8 * 4**8  # 512 KiB: it fits
    assert tf.random_ps_unitary(8, 59) is tf.random_ps_unitary(8, 59)  # the newest stays
    held = len(memo._held)
    big = tf.random_ps_unitary(9, 0)
    assert tf._sample_bytes(big) > tf.SAMPLE_MEMO_BYTES
    assert len(memo._held) == held and tf.random_ps_unitary(9, 0) is not big
    assert all(map(np.array_equal, tf.random_ps_unitary(9, 0).blocks, big.blocks))


def test_a_sample_at_ten_modes_retains_only_its_two_blocks():
    # 8 * 4^N bytes of blocks; a held dense matrix would add 16 * 4^N more
    tf.random_ps_unitary(2, 0)  # numpy.random is imported lazily, before the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u = tf.random_ps_unitary(10, 5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 9 * 4**10
    assert tf._sample_bytes(u) == 8 * 4**10


def test_the_sample_memo_keeps_its_count_across_threads():
    samples = [tf.random_ps_unitary(n_modes, 0) for n_modes in (1, 2, 3)]
    memo = tf._SampleMemo(3 * tf._sample_bytes(samples[-1]))  # evicts all the time
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def hammer(k):
            try:
                for i in range(15000):
                    key = (i + k) % 3, (i * 7 + k) % 13
                    if memo.get(key) is None:
                        memo.put(key, samples[key[0]])
            except Exception as exc:  # a lost update shows as a KeyError
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert memo.nbytes == sum(map(tf._sample_bytes, memo._held.values()))
    assert memo.nbytes <= memo.cap


def test_a_lowered_mode_cap_refuses_a_held_size(monkeypatch):
    tf.random_ps_unitary(4, 3)
    monkeypatch.setenv(fock.MODE_CAP_ENV, "3")
    with pytest.raises(ValidationError) as err:
        tf.random_ps_unitary(4, 3)
    assert err.value.code == "cap_exceeded"


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.float64(2.0)])
@pytest.mark.parametrize(
    "sample",
    [
        lambda seed: tf.random_ps_unitary(3, seed),
        lambda seed: tf.local_random_ps_unitary(ModeSet((0, 2), 3), seed),
        lambda seed: random_sector_state(3, seed),
        lambda seed: random_phenomenal(3, seed),
    ],
    ids=["random_ps_unitary", "local_random_ps_unitary", "random_sector_state", "random_phenomenal"],
)
def test_a_bad_seed_is_refused_before_a_draw(monkeypatch, sample, seed):
    draws = count_calls(monkeypatch, tf, "_haar_sectors")
    rngs = count_calls(monkeypatch, np.random, "default_rng")
    with pytest.raises(ValidationError) as err:
        sample(seed)
    assert err.value.code == "bad_schema"
    assert draws == [] and rngs == [] and len(tf._samples._held) == 0


def test_local_random_embedding_contracts():
    sub = ModeSet((1, 2), 4)
    u = tf.local_random_ps_unitary(sub, 3)
    assert tf.is_local_unitary(u, sub)
    for j in (0, 3):
        f = fock.annihilator(4, j)
        assert fock.frobenius(u.heisenberg(j) - f.matrix) < 1e-12
    # the embedding of the identity is the ambient identity
    from fermidesc.algebra import embed_local_operator

    lifted = embed_local_operator(np.eye(4, dtype=complex), sub)
    assert np.allclose(lifted.matrix, np.eye(16), atol=1e-12)


def test_local_random_on_full_set_matches_global_sampler():
    full = ModeSet.full(3)
    assert np.array_equal(
        tf.local_random_ps_unitary(full, 5).matrix, tf.random_ps_unitary(3, 5).matrix
    )


def dense_defect(u: tf.PSUnitary) -> float:
    return fock.frobenius(u.matrix.conj().T @ u.matrix - np.eye(u.dim))


def test_trusted_unitary_refuses_a_carried_defect_above_tolerance():
    dim = 8
    blocks = lambda: (np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    at_bound = tf.PSUnitary._trusted(3, blocks(), tf.UNITARY_TOL * dim)
    assert at_bound.defect == tf.UNITARY_TOL * dim
    assert not at_bound.matrix.flags.writeable
    assert not any(block.flags.writeable for block in at_bound.blocks)
    with pytest.raises(ValidationError) as err:
        tf.PSUnitary._trusted(3, blocks(), 1.01 * tf.UNITARY_TOL * dim)
    assert err.value.code == "not_unitary"


@pytest.mark.parametrize("stretch, passes", [(3e-10, True), (5e-10, False)])
def test_lift_carries_the_small_defect_scaled_to_the_ambient_space(stretch, passes):
    # |small^dag small - I| is about 2 stretch; the lift to 5 modes multiplies
    # it by 2^(4/2) = 4 against a bound of 1e-10 * 32
    small = np.diag([1.0, 1.0 + stretch]).astype(complex)
    sub = ModeSet((3,), 5)
    defect = fock.frobenius(small.conj().T @ small - np.eye(2))
    lift = algebra.embed_local_operator(small, sub).matrix
    if passes:
        u = tf._lifted(small, defect, sub)
        assert np.array_equal(u.matrix, lift)
        assert u.defect == 4 * defect
        assert u.defect == pytest.approx(dense_defect(u), rel=1e-12)
        return
    for build in (lambda: tf._lifted(small, defect, sub), lambda: tf.PSUnitary(5, lift)):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.code == "not_unitary"


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
def test_carried_defects_match_the_dense_measurement(n_modes):
    number = fock.creator(n_modes, 0) @ fock.annihilator(n_modes, 0)
    built = [tf.random_ps_unitary(n_modes, 3), tf.exp_hamiltonian(2.5 * number)]
    for size in range(1, n_modes):
        built.append(tf.local_random_ps_unitary(ModeSet(tuple(range(size)), n_modes), size))
    built.append(tf.named_gate("phase", n_modes, modes=(n_modes - 1,), theta=0.7))
    if n_modes > 1:
        built.append(tf.named_gate("tunneling", n_modes, modes=(n_modes - 1, 0), theta=0.7))
    for u in built:
        assert u.defect == pytest.approx(dense_defect(u), abs=1e-15 * u.dim)
        assert not u.matrix.flags.writeable


def test_lifts_grade_nothing(monkeypatch):
    # the small matrices are exactly even: the gates' closed forms conserve
    # the particle number, and the sampler places its blocks into zeros
    for kind, modes in (("phase", (1,)), ("tunneling", (1, 0)), ("interaction", (0, 1))):
        small, sub = tf._gate_small(kind, 2, modes=modes, theta=1.1)
        even, odd = fock.parity_sectors(len(sub))
        assert not small[np.ix_(even, odd)].any() and not small[np.ix_(odd, even)].any()
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    validations = count_calls(monkeypatch, tf.PSUnitary, "__post_init__")
    u = tf.local_random_ps_unitary(ModeSet((1, 4), 6), 5)
    gate = tf.named_gate("tunneling", 6, modes=(5, 2), theta=1.1)
    assert grades == [] and validations == []
    even, odd = fock.parity_sectors(6)
    for lift in (u, gate):
        assert not lift.matrix[np.ix_(even, odd)].any() and not lift.matrix[np.ix_(odd, even)].any()
    assert tf.is_local_unitary(u, ModeSet((1, 4), 6))
    assert tf.is_local_unitary(gate, ModeSet((2, 5), 6))


def off_sector(u: tf.PSUnitary) -> np.ndarray:
    even, odd = fock.parity_sectors(u.n_modes)
    return np.concatenate([u.matrix[np.ix_(even, odd)].ravel(), u.matrix[np.ix_(odd, even)].ravel()])


def test_every_unitary_the_library_builds_is_exactly_even():
    n_modes = 4
    number = fock.creator(n_modes, 1) @ fock.annihilator(n_modes, 1)
    u = tf.random_ps_unitary(n_modes, 3)
    v = tf.local_random_ps_unitary(ModeSet((0, 2), n_modes), 4)
    d = dsc.evolve_descriptors(u, ModeSet.full(n_modes), random_sector_state(n_modes, 5))
    built = {
        "random": u,
        "local_random": v,
        "exp_hamiltonian": tf.exp_hamiltonian(1.3 * number + 0.4 * (number @ number)),
        "product": u @ v,
        "adjoint": v.dag(),
        "reconstruction_witness": dsc.reconstruct_with_residual(d)[0],
    }
    for kind, modes in (("phase", (2,)), ("tunneling", (3, 0)), ("interaction", (1, 2))):
        built[kind] = tf.named_gate(kind, n_modes, modes=modes, theta=0.9)
    for name, w in built.items():
        assert not off_sector(w).any(), name


def test_the_boundary_stores_the_even_part_of_a_near_tolerance_input():
    # the off-block part is 0.45 of the grade's bound: the input passes as
    # even, and the stored matrix is its sector blocks bit for bit, with
    # exact zeros between them and the defect measured on what is stored
    n_modes = 4
    haar = tf.random_ps_unitary(n_modes, 80).matrix
    even, odd = fock.parity_sectors(n_modes)
    off = np.zeros_like(haar)
    off[np.ix_(odd, even)] = np.random.default_rng(81).standard_normal((len(odd), len(even)))
    off *= 0.45 * 1e-10 * fock.frobenius(haar) / fock.frobenius(off)
    noisy = haar + off
    w = tf.PSUnitary(n_modes, noisy)
    assert w.matrix is not noisy and not w.matrix.flags.writeable
    assert not off_sector(w).any()
    block = w.matrix[np.ix_(odd, even)]
    assert not (np.signbit(block.real) | np.signbit(block.imag)).any()  # +0.0, not -0.0
    for idx in (even, odd):
        assert np.array_equal(w.matrix[np.ix_(idx, idx)], noisy[np.ix_(idx, idx)])
    assert w.defect == dense_defect(w)


def test_the_boundary_keeps_its_input_blocks_and_drops_the_input():
    m = np.array(tf.random_ps_unitary(3, 6).matrix)
    u = tf.PSUnitary(3, m)
    assert set(vars(u)) == {"n_modes", "blocks", "defect"}
    assert all(block.base is not m and not np.shares_memory(block, m) for block in u.blocks)
    assert u.matrix is not u.matrix and np.array_equal(u.matrix, m)  # assembled on each read


def test_a_product_grades_and_validates_nothing(monkeypatch):
    u, v = tf.random_ps_unitary(4, 1), tf.local_random_ps_unitary(ModeSet((1, 3), 4), 2)
    grades = count_calls(monkeypatch, algebra, "parity_grade")
    validations = count_calls(monkeypatch, tf.PSUnitary, "__post_init__")
    product = u @ v
    assert grades == [] and validations == []
    assert product.matrix.tobytes() == (u.matrix @ v.matrix).tobytes()
    assert product.defect == dense_defect(product)
    assert not product.matrix.flags.writeable


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_a_product_is_assembled_from_its_factors_sector_blocks(monkeypatch, n_modes):
    u, v = tf.random_ps_unitary(n_modes, 3), tf.random_ps_unitary(n_modes, 4)
    gathers = count_calls(monkeypatch, tf, "_sector_blocks_of")
    product = u @ v
    assert gathers == []
    assert set(vars(product)) == {"n_modes", "blocks", "defect"}  # no dense array is held
    dense = u.matrix @ v.matrix
    assert fock.frobenius(product.matrix - dense) <= 1e-14 * fock.frobenius(dense)
    pairs = fock._sector_pairs(n_modes)
    for pair, block, a, b in zip(pairs, product.blocks, u.blocks, v.blocks):
        assert np.array_equal(block, a @ b) and np.array_equal(product.matrix[pair], block)
    off = np.concatenate([product.matrix[pair].ravel() for pair in pairs[2:]])
    assert np.array_equal(off, np.zeros_like(off))
    assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()  # exact +0.0
    assert product.defect == tf._sectors_defect(product.blocks)


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_group_closure(n_modes):
    for seed in range(3):
        u = tf.random_ps_unitary(n_modes, seed)
        v = tf.random_ps_unitary(n_modes, seed + 10)
        tf.validate_ps_unitary((u @ v).matrix)


def test_disjoint_local_unitaries_commute():
    for seed in range(5):
        u = tf.local_random_ps_unitary(ModeSet((0,), 3), seed)
        v = tf.local_random_ps_unitary(ModeSet((1, 2), 3), seed + 40)
        assert fock.frobenius((u @ v).matrix - (v @ u).matrix) < 1e-10


def test_exp_inverse():
    rng = np.random.default_rng(0)
    n0 = fock.creator(2, 0) @ fock.annihilator(2, 0)
    n1 = fock.creator(2, 1) @ fock.annihilator(2, 1)
    h = 0.7 * n0 + 1.9 * (n0 @ n1)
    u = tf.exp_hamiltonian(h)
    v = tf.exp_hamiltonian(-1.0 * h)
    assert fock.frobenius((u @ v).matrix - np.eye(4)) < 1e-9


def test_haar_blocks_respect_sectors():
    for seed in range(10):
        u = tf.random_ps_unitary(4, seed)
        p = fock.parity_operator(4).matrix
        assert fock.frobenius(u.matrix @ p - p @ u.matrix) < 1e-12


def test_phase_distance():
    u = tf.random_ps_unitary(2, 1).matrix
    assert tf.phase_distance(u, np.exp(1.2j) * u) < 1e-12
    v = tf.random_ps_unitary(2, 2).matrix
    assert tf.phase_distance(u, v) > 0.1


def test_phase_distance_refuses_arrays_of_different_shapes():
    with pytest.raises(ValidationError) as err:
        tf.phase_distance(np.eye(2), np.eye(4))
    assert err.value.code == "dimension_mismatch"


def test_canonical_phase_pins_first_block_entry():
    u = tf.random_ps_unitary(3, 4).matrix
    rotated = tf.canonical_phase(np.exp(0.77j) * u, 3)
    base = tf.canonical_phase(u, 3)
    assert fock.frobenius(rotated - base) < 1e-12


@pytest.mark.parametrize("n_modes", range(2, 8))
def test_invariance_support_of_a_lift_reads_only_its_factor(monkeypatch, n_modes):
    cases = lift_cases(n_modes)
    assert all(u._local is not None for u in cases[::2])
    assert all(u._local is None for u in cases[1::2])  # an adjoint is a bare unitary
    dense = [tf.invariance_support(tf.PSUnitary(n_modes, u.matrix)) for u in cases]
    norms = []
    frobenius = tf.frobenius
    monkeypatch.setattr(tf, "frobenius", lambda a: norms.append(a.size) or frobenius(a))
    for u, expected in zip(cases, dense):
        norms.clear()
        assert tf.invariance_support(u) == expected
        if u._local is None:
            assert set(norms) == {4 ** n_modes}  # the dense rule
        else:
            assert norms and set(norms) == {4 ** len(u._local[1])}  # no 4^N gather
            assert expected.is_subset_of(u._local[1])
    assert dense[-1].is_empty and dense[-2].is_empty  # tunneling at theta = 0 moves nothing


def test_only_a_lift_carries_its_factor(monkeypatch):
    from fermidesc import serialize

    sub = ModeSet((1, 3), 4)
    lift = tf.local_random_ps_unitary(sub, 5)
    small, carried = lift._local
    assert carried == sub and not small.flags.writeable
    assert np.array_equal(small, tf.random_ps_unitary(2, 5).matrix)
    adjoint = lift.dag()
    d = dsc.evolve_descriptors(tf.random_ps_unitary(4, 6), ModeSet.full(4), fock.vacuum_state(4))
    folds = count_calls(monkeypatch, dsc, "_folded_frame")
    dsc.ontic_apply(adjoint, d)
    assert folds == []  # the adjoint's frame is the dense product
    dsc.ontic_apply(lift, d)
    assert len(folds) == 1
    others = (
        adjoint,
        lift @ lift,
        tf.PSUnitary(4, lift.matrix),
        serialize.json_to_unitary(
            json.loads(json.dumps(serialize.unitary_to_json(lift), default=serialize.plain))
        ),
        tf.random_ps_unitary(4, 5),
        tf.local_random_ps_unitary(ModeSet.full(4), 5),
    )
    assert all(u._local is None for u in others)
