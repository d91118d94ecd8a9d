"""Monomial bases, locality tests, wedge products, qubit ladders."""

import itertools

import numpy as np
import pytest

from fermidesc import algebra, fock, states, transformations as tf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet

from oracles import MonomialBasis


def test_single_mode_basis_is_matrix_units():
    basis = MonomialBasis.of(ModeSet.full(1))
    units = {
        ((0,), (0,)): np.array([[1, 0], [0, 0]]),
        ((1,), (0,)): np.array([[0, 0], [1, 0]]),
        ((0,), (1,)): np.array([[0, 1], [0, 0]]),
        ((1,), (1,)): np.array([[0, 0], [0, 1]]),
    }
    for element, label in zip(basis.elements, basis.labels):
        assert np.array_equal(element.matrix, units[label].astype(complex))


def test_embedded_basis_norms():
    basis = MonomialBasis.of(ModeSet((0,), 2))
    for e in basis.elements:
        assert np.vdot(e.matrix, e.matrix) == pytest.approx(2.0)
    assert basis.norm_sq == 2.0


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_basis_orthogonality(n_modes):
    for size in range(1, n_modes + 1):
        for subset in itertools.combinations(range(n_modes), size):
            basis = MonomialBasis.of(ModeSet(subset, n_modes))
            stacked = basis.stacked()
            gram = np.tensordot(stacked.conj(), stacked, axes=([1, 2], [1, 2]))
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-12
            assert np.allclose(np.diag(gram).real, basis.norm_sq)


def test_completeness_reproduces_random_local_operator():
    rng = np.random.default_rng(5)
    subsystem = ModeSet((0, 2), 3)
    basis = MonomialBasis.of(subsystem)
    coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = basis.synthesize(coeffs)
    recovered = basis.expand(op)
    assert np.abs(recovered - coeffs).max() < 1e-12
    residual = fock.frobenius(op.matrix - basis.synthesize(recovered).matrix)
    assert residual < 1e-12


@pytest.mark.parametrize(
    "modes", [(0, 2, 5), (3,), (0, 1, 2, 3, 4, 5), (1, 4, 6), tuple(range(7))]
)
def test_compression_inverts_embedding_exactly(modes):
    subsystem = ModeSet(modes, 7)
    rng = np.random.default_rng(len(modes) + sum(modes))
    dk = 2 ** len(modes)
    for _ in range(5):
        small = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
        lifted = algebra.embed_local_operator(small, subsystem)
        assert np.array_equal(algebra.compress_local_operator(lifted, subsystem), small)
        assert algebra.locality_residual(lifted, subsystem) == 0.0


def test_parity_grade_examples():
    f0 = fock.annihilator(2, 0)
    even = fock.creator(2, 0) @ fock.annihilator(2, 1)
    assert algebra.parity_grade(f0) == algebra.GRADE_ODD
    assert algebra.parity_grade(even) == algebra.GRADE_EVEN
    assert algebra.parity_grade(f0 + even) == algebra.GRADE_MIXED


def test_parity_grade_of_raw_matrices_and_vectors():
    f0 = fock.annihilator(2, 0)
    assert algebra.parity_grade(f0.matrix) == algebra.GRADE_ODD
    assert algebra.parity_grade(fock.parity_operator(2).matrix) == algebra.GRADE_EVEN
    even, odd = fock.basis_index(2, [1, 1]), fock.basis_index(2, [0, 1])
    for amplitudes, grade in (
        ({even: 1.0}, algebra.GRADE_EVEN),
        ({odd: 1.0}, algebra.GRADE_ODD),
        ({even: 0.6, odd: 0.8}, algebra.GRADE_MIXED),
    ):
        v = np.zeros(4, dtype=complex)
        for index, amplitude in amplitudes.items():
            v[index] = amplitude
        assert algebra.parity_grade(v) == grade


def test_parity_grade_reads_no_mode_cap(monkeypatch):
    from conftest import count_calls

    f0 = fock.annihilator(3, 0)
    caps = count_calls(monkeypatch, fock, "mode_cap")
    assert algebra.parity_grade(f0) == algebra.GRADE_ODD
    assert algebra.parity_grade(f0.matrix @ f0.matrix.conj().T) == algebra.GRADE_EVEN
    assert algebra.parity_grade(f0.matrix[:, 0]) == algebra.GRADE_EVEN
    assert caps == []


def test_validated_inputs_read_no_mode_cap(monkeypatch):
    from conftest import count_calls

    sub = ModeSet((0, 2), 4)
    u = tf.local_random_ps_unitary(sub, 3)
    op = u.as_operator()
    target = np.eye(16, dtype=complex)
    caps = count_calls(monkeypatch, fock, "mode_cap")
    u.heisenberg(1)
    assert tf.invariance_support(u) == sub
    algebra.fold_local(target, np.eye(4), ModeSet((1, 3), 4))
    assert algebra.locality_residual(op, sub) < 1e-12
    assert caps == []


@pytest.mark.parametrize("rows", [4, 16])
def test_fold_local_refuses_a_target_of_the_wrong_row_count(monkeypatch, rows):
    from conftest import count_calls

    reorders = count_calls(monkeypatch, algebra, "_reorder_to_front")
    with pytest.raises(ValidationError) as err:
        algebra.fold_local(np.eye(rows, dtype=complex), np.eye(2), ModeSet((0,), 3))
    assert err.value.code == "dimension_mismatch"
    assert err.value.args[0] == f"target needs 8 rows, not {rows}"
    assert reorders == []  # refused before the reorder is built


def _product_over_cap():
    a = states.PhenomenalState(ModeSet((0, 1, 2, 3, 4), 10), np.eye(32, dtype=complex) / 32)
    b = states.PhenomenalState(ModeSet((5, 6, 7, 8, 9), 10), np.eye(32, dtype=complex) / 32)
    return states.product_state(a, b)


@pytest.mark.parametrize(
    "cap, build",
    [
        ("3", lambda: algebra.embed_local_operator(np.eye(2), ModeSet((0,), 11))),
        ("3", lambda: tf.named_gate("phase", 11, modes=(0,), theta=0.1)),
        ("3", lambda: tf.local_random_ps_unitary(ModeSet((0, 1), 11), 3)),
        ("8", _product_over_cap),
    ],
    ids=["embed_local_operator", "named_gate", "local_random_ps_unitary", "product_state"],
)
def test_cap_is_refused_before_the_identity_is_allocated(monkeypatch, cap, build):
    import tracemalloc

    monkeypatch.setenv(fock.MODE_CAP_ENV, cap)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == "cap_exceeded"
    assert peak < 2 * 2**20  # the 2^N identity alone is 16 MB at N = 10


@pytest.mark.filterwarnings("error")
def test_scaled_to_unit_scales_by_the_largest_part():
    m = np.array([[1.7e308 + 1.7e308j, 3.0], [0.0, -2.5j]])  # finite parts, no finite modulus
    g, e = algebra.scaled_to_unit(m)
    assert np.abs(g.view(float)).max() < 2
    assert np.array_equal(np.ldexp(g.view(float), e), m.view(float))


def test_is_local_examples():
    n0 = fock.creator(3, 0) @ fock.annihilator(3, 0)
    assert algebra.is_local_to(n0, ModeSet((0,), 3))
    hop = fock.creator(2, 0) @ fock.annihilator(2, 1)
    assert not algebra.is_local_to(hop, ModeSet((0,), 2))
    assert not algebra.is_local_to(fock.parity_operator(2), ModeSet((0,), 2))
    assert algebra.is_local_to(fock.parity_operator(2), ModeSet.full(2))


def test_odd_operators_are_localizable():
    # the span test must work where the commutation criterion cannot
    f1 = fock.annihilator(3, 1)
    assert algebra.is_local_to(f1, ModeSet((1,), 3))
    assert not algebra.is_local_to(f1, ModeSet((0,), 3))


@pytest.mark.parametrize("seed", range(6))
def test_even_locality_agrees_with_commutation_criterion(seed):
    rng = np.random.default_rng(seed)
    n_modes = 4
    subset = ModeSet(tuple(sorted(rng.choice(n_modes, size=2, replace=False))), n_modes)
    basis = MonomialBasis.of(subset)
    coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # keep only parity-even monomials so the commutation criterion applies
    for k, (l_pat, p_pat) in enumerate(basis.labels):
        if (sum(l_pat) + sum(p_pat)) % 2:
            coeffs[k // 4, k % 4] = 0.0
    op = basis.synthesize(coeffs)
    assert algebra.parity_grade(op) == algebra.GRADE_EVEN
    assert algebra.is_local_to(op, subset)
    for j in subset.complement().indices:
        f = fock.annihilator(n_modes, j)
        assert fock.frobenius(fock.commutator(op, f).matrix) < 1e-10
        assert fock.frobenius(fock.commutator(op, f.dag()).matrix) < 1e-10
    # a generic global operator fails both criteria
    glob = fock.FockOperator(n_modes, rng.standard_normal((16, 16)) + 0j)
    assert not algebra.is_local_to(glob, subset)
    assert any(
        fock.frobenius(fock.commutator(glob, fock.annihilator(n_modes, j)).matrix) > 1e-6
        for j in subset.complement().indices
    )


def test_wedge_examples():
    a, b = ModeSet((0,), 2), ModeSet((1,), 2)
    out = algebra.wedge(fock.identity(2), a, fock.identity(2), b)
    assert np.array_equal(out.matrix, fock.identity(2).matrix)

    n0 = fock.creator(2, 0) @ fock.annihilator(2, 0)
    n1 = fock.creator(2, 1) @ fock.annihilator(2, 1)
    nn = algebra.wedge(n0, a, n1, b)
    assert np.array_equal(np.diag(nn.matrix).real, [0, 0, 0, 1])

    vac0 = fock.annihilator(2, 0) @ fock.creator(2, 0)
    vac1 = fock.annihilator(2, 1) @ fock.creator(2, 1)
    proj = algebra.wedge(vac0, a, vac1, b)
    assert np.array_equal(np.diag(proj.matrix).real, [1, 0, 0, 0])


def test_wedge_even_even_is_symmetric():
    rng = np.random.default_rng(3)
    a, b = ModeSet((0,), 3), ModeSet((2,), 3)

    def random_even_local(subset, seed_offset):
        basis = MonomialBasis.of(subset)
        coeffs = np.zeros((2, 2), dtype=complex)
        local_rng = np.random.default_rng(3 + seed_offset)
        for k, (l_pat, p_pat) in enumerate(basis.labels):
            if (sum(l_pat) + sum(p_pat)) % 2 == 0:
                coeffs[k // 2, k % 2] = local_rng.standard_normal() + 1j * local_rng.standard_normal()
        return basis.synthesize(coeffs)

    oa, ob = random_even_local(a, 0), random_even_local(b, 1)
    left = algebra.wedge(oa, a, ob, b)
    right = algebra.wedge(ob, b, oa, a)
    assert fock.frobenius(left.matrix - right.matrix) < 1e-12


def test_wedge_associative_over_three_subsystems():
    subsets = [ModeSet((0,), 3), ModeSet((1,), 3), ModeSet((2,), 3)]
    ops = [
        fock.creator(3, i) @ fock.annihilator(3, i) + 0.3 * fock.identity(3)
        for i in range(3)
    ]
    ab = algebra.wedge(ops[0], subsets[0], ops[1], subsets[1])
    ab_sub = subsets[0].union(subsets[1])
    left = algebra.wedge(ab, ab_sub, ops[2], subsets[2])
    bc = algebra.wedge(ops[1], subsets[1], ops[2], subsets[2])
    right = algebra.wedge(ops[0], subsets[0], bc, subsets[1].union(subsets[2]))
    assert fock.frobenius(left.matrix - right.matrix) < 1e-12


def test_wedge_rejections():
    a, b = ModeSet((0,), 2), ModeSet((1,), 2)
    with pytest.raises(ValidationError) as err:
        algebra.wedge(fock.identity(2), a, fock.identity(2), a)
    assert err.value.code == "overlapping_subsystems"
    with pytest.raises(ValidationError) as err:
        algebra.wedge(fock.annihilator(2, 0), a, fock.annihilator(2, 1), b)
    assert err.value.code == "parity_ambiguous"
    with pytest.raises(ValidationError) as err:
        algebra.wedge(fock.annihilator(2, 1), a, fock.identity(2), b)
    assert err.value.code == "not_local"


def test_qubit_ladder_relations_exact():
    q0 = algebra.qubit_ladder(1, 0)
    assert np.array_equal(q0.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
    for n_qubits in (1, 2, 3):
        ground = fock.fock_basis_state(n_qubits, [0] * n_qubits).amplitudes
        for j in range(n_qubits):
            q = algebra.qubit_ladder(n_qubits, j)
            assert fock.frobenius((q @ q).matrix) == 0.0
            assert (
                fock.frobenius(
                    fock.anticommutator(q, q.dag()).matrix - fock.identity(n_qubits).matrix
                )
                == 0.0
            )
            assert np.linalg.norm(q.matrix @ ground) == 0.0
            for i in range(j):
                qi = algebra.qubit_ladder(n_qubits, i)
                assert fock.frobenius(fock.commutator(qi, q).matrix) == 0.0


def test_qubit_ladder_regenerates_paulis():
    q = algebra.qubit_ladder(1, 0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    assert np.array_equal((q + q.dag()).matrix, sx)
    assert np.array_equal((-1j * (q - q.dag())).matrix, sy)


def test_qubit_vs_fermion_statistics():
    # same-looking generators, opposite cross-mode statistics
    q0, q1 = algebra.qubit_ladder(2, 0), algebra.qubit_ladder(2, 1)
    f0, f1 = fock.annihilator(2, 0), fock.annihilator(2, 1)
    assert fock.frobenius(fock.commutator(q0, q1).matrix) == 0.0
    assert fock.frobenius(fock.anticommutator(f0, f1).matrix) == 0.0
    assert fock.frobenius(fock.anticommutator(q0, q1).matrix) != 0.0
    assert fock.frobenius(fock.commutator(f0, f1).matrix) != 0.0


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.mark.parametrize("n_modes", range(1, 7))
def test_reorder_kernel_agrees_with_monomial_oracle(n_modes):
    rng = np.random.default_rng(40 + n_modes)
    dim = 2 ** n_modes
    for size in range(1, n_modes + 1):
        for subset in itertools.combinations(range(n_modes), size):
            subsystem = ModeSet(subset, n_modes)
            basis = MonomialBasis.of(subsystem)
            small = _random_matrix(rng, 2 ** size)

            lifted = algebra.embed_local_operator(small, subsystem)
            oracle = basis.synthesize(small)
            assert np.abs(lifted.matrix - oracle.matrix).max() <= 1e-12
            assert np.abs(algebra.compress_local_operator(lifted, subsystem) - small).max() <= 1e-12
            assert algebra.locality_residual(lifted, subsystem) <= 1e-12 * fock.frobenius(small)
            assert algebra.is_local_to(lifted, subsystem)

            generic = fock.FockOperator(n_modes, _random_matrix(rng, dim))
            scale = fock.frobenius(generic.matrix)
            projected = basis.synthesize(basis.expand(generic))
            expected = fock.frobenius(generic.matrix - projected.matrix)
            residual = algebra.locality_residual(generic, subsystem)
            if subsystem.is_full:  # both residuals are rounding noise
                assert max(residual, expected) <= 1e-12 * scale
            else:
                assert abs(residual - expected) <= 1e-12 * expected
            oracle_local = expected <= algebra.LOCALITY_TOL * max(1.0, scale)
            assert algebra.is_local_to(generic, subsystem) == oracle_local
            # only the full set contains every operator
            assert oracle_local == subsystem.is_full
    algebra._basis_arrays.cache_clear()  # stacks reach 4^N x 2^N x 2^N


def kron_scatter_lift(small: np.ndarray, subsystem: ModeSet) -> np.ndarray:
    """Oracle lift: ``small (x) I`` formed densely, scattered through the signed reorder."""
    n, m = subsystem.ambient_n, len(subsystem)
    src, sign = states.mode_sort_permutation(n, subsystem.indices)
    lifted = np.kron(np.asarray(small, dtype=complex), np.eye(2 ** (n - m)))
    out = np.empty_like(lifted)
    out[np.ix_(src, src)] = sign[:, None] * lifted * sign[None, :] + 0.0
    return out


def _with_signed_zeros(rng, small: np.ndarray) -> np.ndarray:
    """``small`` with about a quarter of its real and imaginary parts set to 0.0 or -0.0."""
    for part in (small.real, small.imag):
        hit = rng.random(part.shape) < 0.25
        part[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return small


@pytest.mark.parametrize("n_modes", range(1, 8))
def test_fold_lift_equals_the_kron_scatter_oracle_bit_for_bit(n_modes):
    """All 2^N - 1 subsets; complex and real small matrices with signed zeros."""
    rng = np.random.default_rng(70 + n_modes)
    for size in range(1, n_modes + 1):
        for subset in itertools.combinations(range(n_modes), size):
            subsystem = ModeSet(subset, n_modes)
            small = _with_signed_zeros(rng, _random_matrix(rng, 2 ** size))
            for matrix in (small, small.real.copy()):
                lifted = algebra.embed_local_operator(matrix, subsystem).matrix
                assert lifted.tobytes() == kron_scatter_lift(matrix, subsystem).tobytes()


def test_every_library_lift_is_one_kernel_call(monkeypatch):
    from conftest import count_calls

    folds = count_calls(monkeypatch, algebra, "fold_local")
    tf.named_gate("tunneling", 4, modes=(3, 1), theta=0.3)
    assert [(len(small), modes) for _, small, modes in folds] == [(4, ModeSet((1, 3), 4))]

    folds.clear()
    tf.local_random_ps_unitary(ModeSet((0, 2), 4), 5)
    assert [(len(small), modes) for _, small, modes in folds] == [(4, ModeSet((0, 2), 4))]
    folds.clear()
    tf.local_random_ps_unitary(ModeSet.full(3), 5)  # already the whole space: nothing to lift
    assert folds == []

    sub_a, sub_b = ModeSet((1, 4), 5), ModeSet((2,), 5)
    a = states.PhenomenalState(sub_a, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    b = states.PhenomenalState(sub_b, np.diag([0.25, 0.75]).astype(complex))
    states.product_state(a, b)
    # each state at its positions in the union (1, 2, 4)
    assert [modes for _, _, modes in folds] == [ModeSet((0, 2), 3), ModeSet((1,), 3)]


def test_locality_error_codes():
    op = fock.identity(3)
    empty = ModeSet((), 3)
    other = ModeSet((0,), 2)
    hop = fock.creator(3, 0) @ fock.annihilator(3, 2)
    checks = [
        (lambda: algebra.embed_local_operator(np.eye(2), empty), "empty_subsystem"),
        (lambda: algebra.embed_local_operator(np.eye(4), ModeSet((1,), 3)), "dimension_mismatch"),
        (lambda: algebra.compress_local_operator(op, empty), "empty_subsystem"),
        (lambda: algebra.compress_local_operator(op, other), "dimension_mismatch"),
        (lambda: algebra.compress_local_operator(hop, ModeSet((0, 1), 3)), "not_local"),
        (lambda: algebra.locality_residual(op, empty), "empty_subsystem"),
        (lambda: algebra.locality_residual(op, other), "dimension_mismatch"),
        (lambda: algebra.is_local_to(op, empty), "empty_subsystem"),
        (lambda: algebra.is_local_to(op, other), "dimension_mismatch"),
    ]
    for call, code in checks:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == code


def test_locality_at_mode_cap(monkeypatch):
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    # six of eight modes raised MemoryError when locality used dense monomial stacks
    assert tf.local_random_ps_unitary(ModeSet((0, 2, 3, 5, 6, 7), 8), 0).n_modes == 8
    n_modes = fock.DEFAULT_MODE_CAP
    rng = np.random.default_rng(10)
    for size in (5, 7, 9):
        subsystem = ModeSet.of(rng.choice(n_modes, size, replace=False), n_modes)
        u = tf.local_random_ps_unitary(subsystem, size)
        assert tf.is_local_unitary(u, subsystem)
        assert not tf.is_local_unitary(u, ModeSet(subsystem.indices[1:], n_modes))
        small = algebra.compress_local_operator(u.as_operator(), subsystem)
        back = algebra.embed_local_operator(small, subsystem)
        assert np.abs(back.matrix - u.matrix).max() <= 1e-12
        assert tf.invariance_support(u) == subsystem
