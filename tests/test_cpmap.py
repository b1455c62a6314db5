import numpy as np
import pytest

import fcstates.cpmap
from fcstates import (
    EigenDecomposition,
    NumericalHealthError,
    coinvariance_check,
    commutant,
    fixed_points,
    gauge_group_order,
    generated_algebra,
    invariant_state,
    is_algebra,
    kernel,
    mixed_fixed_points,
    peripheral_eigenunitary,
    peripheral_spectrum,
    predual_matrix,
    random_system,
    real_transfer,
    sigma_matrix,
    spectral_sets_match,
    unvec,
    vec,
)
from fcstates.cpmap import (
    DensityState,
    OperatorSubspace,
    _commutant_constraints,
    _commutant_constraints_within,
    real_form,
)

from scipy.linalg import block_diag

from conftest import direct_sum, eij, random_psd, scalar
from oracles import (
    frontier_generated_algebra,
    vec_commutant,
    vec_commutant_constraints,
    vec_fixed_points,
    vec_invariant_state,
)


# ----------------------------------------------------------------------
# superoperator matrices and the vec convention
# ----------------------------------------------------------------------

def test_vec_convention():
    rng = np.random.default_rng(0)
    a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(unvec(vec(x), (3, 3)), x)


def test_sigma_on_matrix_units_swap(swap2):
    sop = sigma_matrix(swap2)
    assert np.allclose(sop.apply(eij(0, 0, 2)), eij(1, 1, 2))
    assert np.allclose(sop.apply(eij(1, 1, 2)), eij(0, 0, 2))
    assert np.linalg.norm(sop.apply(eij(0, 1, 2))) < 1e-14
    assert np.linalg.norm(sop.apply(eij(1, 0, 2))) < 1e-14


def test_sigma_rank_one_action(rank_one2):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(sigma_matrix(rank_one2).apply(x), x[0, 0] * np.eye(2))


def test_sigma_averaging_action(averaging3):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    expected = np.diag([x[0, 0], x[1, 1], 0.5 * (x[0, 0] + x[1, 1])])
    assert np.linalg.norm(sigma_matrix(averaging3).apply(x) - expected) <= 1e-12


def test_unitality_random_systems():
    for seed in range(6):
        sys_ = random_system(3, 3, seed)
        sop = sigma_matrix(sys_)
        assert np.linalg.norm(sop.apply(np.eye(3)) - np.eye(3), 2) <= 1e-10


def test_predual_trace_pairing():
    rng = np.random.default_rng(3)
    sys_ = random_system(2, 3, 23)
    sig, pre = sigma_matrix(sys_), predual_matrix(sys_)
    assert np.allclose(pre.matrix, sig.matrix.conj().T, atol=1e-12)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(sig.apply(x).conj().T @ rho)
        rhs = np.trace(x.conj().T @ pre.apply(rho))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_predual_trace_preserving():
    sys_ = random_system(3, 4, 77)
    pre = predual_matrix(sys_)
    rng = np.random.default_rng(4)
    rho = random_psd(rng, 4)
    assert abs(np.trace(pre.apply(rho)) - np.trace(rho)) <= 1e-10


# ----------------------------------------------------------------------
# Hermitian coordinates and the real forms
# ----------------------------------------------------------------------

def test_hermitian_basis_is_orthonormal_and_real_form_is_its_product():
    n = 4
    basis = OperatorSubspace.from_hermitian(np.eye(n * n), n)
    assert np.allclose(basis.gram(), np.eye(n * n), atol=1e-14)
    assert all(np.array_equal(b, b.conj().T) for b in basis.basis)
    assert np.allclose(basis.hermitian_columns(), np.eye(n * n), rtol=0.0, atol=1e-15)
    # the index gather equals the dense change of basis B* M B
    b = basis.to_columns()
    m = sigma_matrix(random_system(3, n, 5)).matrix
    dense = b.conj().T @ m @ b
    assert np.linalg.norm(dense.imag) <= 1e-14
    assert np.linalg.norm(real_form(m) - dense.real) <= 1e-14
    with pytest.raises(ValueError):
        OperatorSubspace((1j * np.eye(n),), (n, n)).hermitian_columns()


def test_real_forms_match_vec_oracles(known_system):
    n, ops = known_system.n, known_system.operators
    sig = sigma_matrix(known_system).matrix
    sig_r = real_transfer(known_system).matrix
    assert sig_r.dtype == np.float64
    assert np.linalg.norm(real_form(predual_matrix(known_system).matrix) - sig_r.T) <= 1e-14

    def svals(m):
        return np.linalg.svd(m, compute_uv=False)

    eye = np.eye(n * n)
    assert np.max(np.abs(svals(sig_r - eye) - svals(sig - eye))) <= 1e-12
    stack = _commutant_constraints(list(ops))
    assert stack.dtype == np.float64
    assert np.max(np.abs(svals(stack) - svals(vec_commutant_constraints(ops)))) <= 1e-12
    assert spectral_sets_match(np.linalg.eigvals(sig_r), np.linalg.eigvals(sig), 1e-10)
    fx, comm = fixed_points(known_system), commutant(ops)
    assert fx.span_equals(vec_fixed_points(known_system))
    assert comm.span_equals(vec_commutant(ops))
    for b in fx.basis + comm.basis:
        assert np.linalg.norm(b - b.conj().T) <= 1e-12


# ----------------------------------------------------------------------
# fixed points, commutants, generated algebras
# ----------------------------------------------------------------------

def test_fixed_points_averaging(averaging3):
    fx = fixed_points(averaging3)
    assert fx.dim == 2
    # basis spans {diag(a, b, (a+b)/2)}
    assert fx.contains(np.diag([1.0, 0.0, 0.5]))
    assert fx.contains(np.diag([0.0, 1.0, 0.5]))
    assert not fx.contains(np.diag([1.0, 0.0, 0.0]))
    gram = fx.gram()
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_fixed_points_swap_and_scalar(swap2, scalar_half):
    assert fixed_points(swap2).dim == 1
    assert fixed_points(scalar_half).dim == 1


def test_is_algebra_verdicts(averaging3, swap2):
    assert is_algebra(fixed_points(averaging3)) is False
    assert is_algebra(fixed_points(swap2)) is True
    n = 3
    full = OperatorSubspace.from_vectors(np.eye(n * n, dtype=complex), (n, n))
    assert is_algebra(full) is True


def test_commutant_dimensions(averaging3, swap2):
    assert commutant(averaging3.operators).dim == 1
    assert commutant(swap2.operators).dim == 1
    assert commutant([np.eye(3)]).dim == 9


def test_commutant_inside_fixed_points():
    for seed in range(5):
        sys_ = random_system(2, 4, seed)
        sop = sigma_matrix(sys_)
        for b in commutant(sys_.operators).basis:
            assert np.linalg.norm(sop.apply(b) - b) <= 1e-9


def test_fixed_algebra_iff_commutant():
    # when the fixed set is an algebra it coincides with the commutant;
    # a faithful invariant state forces this branch
    for seed in range(6):
        sys_ = random_system(2, 3, seed + 50)
        fx = fixed_points(sys_)
        if is_algebra(fx):
            assert fx.span_equals(commutant(sys_.operators), 1e-8)


def test_commutant_within_the_fixed_space_is_the_commutant(known_system):
    ops = known_system.operators
    inside = commutant(ops, within=fixed_points(known_system))
    assert inside.span_equals(commutant(ops))
    for b in inside.basis:
        assert np.linalg.norm(b - b.conj().T) <= 1e-12


def test_commutant_constraints_within_are_the_full_stack_on_the_basis(known_system):
    ops, n = list(known_system.operators), known_system.n
    rng = np.random.default_rng(5)
    spread = np.linalg.qr(rng.standard_normal((n * n, min(4, n * n))))[0]
    full = _commutant_constraints(ops)
    for within in (fixed_points(known_system), OperatorSubspace.from_hermitian(spread, n)):
        direct = _commutant_constraints_within(ops, within)
        assert direct.dtype == np.float64
        assert np.linalg.norm(direct - full @ within.hermitian_columns()) <= 1e-12


def test_commutant_within_a_subspace_is_the_intersection():
    n = 3
    diagonal = OperatorSubspace(tuple(eij(j, j, n) for j in range(n)), (n, n))
    assert commutant([np.eye(n)], within=diagonal).span_equals(diagonal)
    # a diagonal matrix with distinct entries commutes only with diagonals
    shift = np.roll(np.eye(n), 1, axis=0)
    assert commutant([np.diag([1.0, 2.0, 3.0])], within=diagonal).dim == n
    assert commutant([shift], within=diagonal).span_equals(
        OperatorSubspace((np.eye(n) / np.sqrt(n),), (n, n))
    )


def _projector(sub: OperatorSubspace) -> np.ndarray:
    q = sub.to_columns()
    return q @ q.conj().T


def test_fixed_kernels_match_separate_kernels(known_system):
    n = known_system.n
    form = real_transfer(known_system)
    fixed, predual_fixed = form.fixed_kernels(1e-8)
    assert fixed.shape == predual_fixed.shape
    separate = kernel(form.matrix.T - np.eye(n * n), 1e-8, scale=1.0)
    assert separate.shape == predual_fixed.shape
    gap = predual_fixed @ predual_fixed.T - separate @ separate.T
    assert np.linalg.norm(gap, 2) <= 1e-12
    oracle = _projector(vec_fixed_points(known_system))
    assert np.linalg.norm(_projector(fixed_points(form)) - oracle, 2) <= 1e-12
    state = invariant_state(form)
    assert np.linalg.norm(state.rho - vec_invariant_state(known_system).rho, 2) <= 1e-12


def test_generated_algebra_dimensions(swap2, rank_one2, scalar_half):
    assert generated_algebra(swap2.operators).dim == 4
    assert generated_algebra(rank_one2.operators).dim == 4
    assert generated_algebra(scalar_half.operators).dim == 1


def test_generated_algebra_is_closed():
    sys_ = random_system(2, 3, 31)
    alg = generated_algebra(sys_.operators)
    assert is_algebra(alg, 1e-8)


def test_generated_algebra_matches_frontier_oracle(known_system):
    ops = known_system.operators
    assert generated_algebra(ops).span_equals(frontier_generated_algebra(ops))


# ----------------------------------------------------------------------
# invariant states
# ----------------------------------------------------------------------

def test_invariant_state_rank_one(rank_one2):
    state = invariant_state(rank_one2)
    assert np.linalg.norm(state.rho - eij(0, 0, 2), 2) <= 1e-10
    assert state.rank == 1 and not state.faithful


def test_invariant_state_swap(swap2):
    state = invariant_state(swap2)
    assert np.linalg.norm(state.rho - np.eye(2) / 2, 2) <= 1e-10
    assert state.faithful and state.unique


def test_invariant_state_averaging(averaging3):
    state = invariant_state(averaging3)
    assert np.linalg.norm(state.rho - np.diag([0.5, 0.5, 0.0]), 2) <= 1e-10
    assert state.rank == 2 and state.unique is False


def test_invariant_state_unique_and_start_independent():
    rng = np.random.default_rng(5)
    for seed in (2, 12):
        sys_ = random_system(2, 3, seed)
        if fixed_points(sys_).dim != 1:
            continue
        base = invariant_state(sys_)
        assert base.unique  # predual eigenvalue-1 space is one-dimensional too
        for _ in range(5):
            other = invariant_state(sys_, rho0=random_psd(rng, 3))
            assert np.linalg.norm(other.rho - base.rho, 2) <= 1e-8


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 3), (4, 4), (6, 6)])
def test_invariant_state_of_direct_sum_is_exact_limit(n1, n2):
    # from I/n the Cesaro limit weighs each ergodic block by its share of the
    # trace; from a start on block A it is A's own state
    a, b = random_system(2, n1, 80 + n1), random_system(2, n2, 90 + n2)
    rho_a, rho_b = invariant_state(a).rho, invariant_state(b).rho
    both = direct_sum(a, b)
    n = n1 + n2
    state = invariant_state(both)
    assert state.unique is False
    expect = block_diag(n1 / n * rho_a, n2 / n * rho_b)
    assert np.linalg.norm(state.rho - expect, 2) <= 1e-12
    start = block_diag(random_psd(np.random.default_rng(n), n1), np.zeros((n2, n2)))
    on_a = invariant_state(both, rho0=start)
    assert np.linalg.norm(on_a.rho - block_diag(rho_a, np.zeros((n2, n2))), 2) <= 1e-12


def test_invariant_state_really_invariant():
    for seed in range(5):
        sys_ = random_system(3, 4, seed)
        state = invariant_state(sys_)
        resid = np.linalg.norm(
            sum(v.conj().T @ state.rho @ v for v in sys_.operators) - state.rho, 2
        )
        assert resid <= 1e-10


# ----------------------------------------------------------------------
# coinvariance conditions
# ----------------------------------------------------------------------

def test_coinvariance_rank_one(rank_one2):
    res = coinvariance_check(rank_one2, eij(1, 1, 2))
    assert res.cond1 and res.cond2 and res.cond3
    res = coinvariance_check(rank_one2, eij(0, 0, 2))
    assert not (res.cond1 or res.cond2 or res.cond3)


def test_coinvariance_identity(swap2):
    res = coinvariance_check(swap2, np.eye(2))
    assert res.cond1 and res.cond2 and res.cond3


def test_coinvariance_rejects_non_projection(swap2):
    with pytest.raises(ValueError):
        coinvariance_check(swap2, np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_support_complement_is_coinvariant():
    # conditions agree on the complement of an invariant-state support
    for seed in (1, 3, 8):
        sys_ = random_system(2, 4, seed)
        state = invariant_state(sys_)
        res = coinvariance_check(sys_, np.eye(4) - state.support)
        assert res.cond1 == res.cond2 == res.cond3 is True


def test_coinvariance_block_projection():
    # direct sum of two systems: the block projection satisfies all three
    a = random_system(2, 2, 40)
    b = random_system(2, 3, 41)
    ops = []
    for va, vb in zip(a.operators, b.operators):
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = va
        m[2:, 2:] = vb
        ops.append(m)
    from fcstates import PopescuSystem

    big = PopescuSystem.from_operators(ops)
    p = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
    res = coinvariance_check(big, p)
    assert res.cond1 and res.cond2 and res.cond3


# ----------------------------------------------------------------------
# peripheral spectrum, eigenunitaries, group order
# ----------------------------------------------------------------------

def test_peripheral_swap(swap2):
    peri = peripheral_spectrum(swap2)
    assert spectral_sets_match([p.value for p in peri], [1.0, -1.0], 1e-9)
    assert all(p.multiplicity == 1 and p.semisimple for p in peri)


def test_peripheral_scalar(scalar_half):
    peri = peripheral_spectrum(scalar_half)
    assert spectral_sets_match([p.value for p in peri], [1.0], 1e-9)


def test_peripheral_averaging(averaging3):
    peri = peripheral_spectrum(averaging3)
    assert len(peri) == 1
    assert abs(peri[0].value - 1.0) <= 1e-9
    assert peri[0].multiplicity == 2


def test_peripheral_algebraic_multiplicity_counts_the_whole_cluster(monkeypatch):
    # three fixed points; eig is made to place them 0.6e-8 apart along the
    # circle, so at set_tol = 1e-8 they form one cluster whose ends are
    # 1.2e-8 apart
    sys_ = direct_sum(direct_sum(random_system(2, 2, 1), random_system(2, 2, 2)), random_system(2, 2, 3))
    chained = np.exp(1j * np.array([0.0, 0.6e-8, 1.2e-8]))
    exact_eig = fcstates.cpmap.eig

    def chained_eig(a):
        dec = exact_eig(a)
        vals = dec.eigenvalues.astype(complex)
        near = np.flatnonzero(np.abs(vals - 1.0) <= 1e-6)
        assert near.size == 3
        vals[near] = chained
        return EigenDecomposition(vals, dec.eigenvectors, dec.residual)

    monkeypatch.setattr(fcstates.cpmap, "eig", chained_eig)
    (p,) = peripheral_spectrum(sys_, set_tol=1e-8)
    assert (p.multiplicity, p.algebraic, p.semisimple) == (3, 3, True)


def test_peripheral_kernel_miss_reports_geometric_zero():
    # a kernel threshold below roundoff misses the value 1 that eig finds;
    # the eigenvector still serves as the representative operator
    (p,) = peripheral_spectrum(random_system(2, 4, 1), set_tol=1e-18)
    assert (p.multiplicity, p.algebraic, p.semisimple) == (0, 1, False)
    assert abs(np.linalg.norm(p.operator, "nuc") - 1.0) <= 1e-10


def test_eigenunitary_swap(swap2):
    state = invariant_state(swap2)
    u = peripheral_eigenunitary(swap2, state, -1.0)
    # unique up to phase; compare projectively against diag(1, -1)
    target = np.diag([1.0, -1.0])
    phase = u[0, 0] / target[0, 0]
    assert abs(abs(phase) - 1.0) <= 1e-10
    assert np.linalg.norm(u - phase * target, 2) <= 1e-10
    for t, v in [(-1.0, swap2.operators[0]), (-1.0, swap2.operators[1])]:
        assert np.linalg.norm(u @ v @ u.conj().T - t * v, 2) <= 1e-10


def test_eigenunitary_trivial_values(swap2, scalar_half):
    state = invariant_state(swap2)
    u = peripheral_eigenunitary(swap2, state, 1.0)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2), 2) <= 1e-10
    assert np.linalg.norm(u - u[0, 0] * np.eye(2), 2) <= 1e-10  # scalar, phase free
    s_state = invariant_state(scalar_half)
    u1 = peripheral_eigenunitary(scalar_half, s_state, 1.0)
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-12


def test_eigenunitary_requires_faithful(rank_one2):
    state = invariant_state(rank_one2)
    with pytest.raises(ValueError):
        peripheral_eigenunitary(rank_one2, state, 1.0)


def test_peripheral_unitary_eigenvectors_random_faithful():
    # ergodic + faithful: every peripheral eigenvalue has multiplicity one
    # and a unitary eigenvector
    found = 0
    for seed in range(10):
        sys_ = random_system(2, 3, 300 + seed)
        state = invariant_state(sys_)
        if not state.faithful or fixed_points(sys_).dim != 1:
            continue
        found += 1
        for p in peripheral_spectrum(sys_):
            assert p.multiplicity == 1
            u = peripheral_eigenunitary(sys_, state, p.value)
            assert np.linalg.norm(u.conj().T @ u - np.eye(3), 2) <= 1e-8
    assert found >= 5


def test_gauge_group_order_values():
    assert gauge_group_order([1.0]) == 1
    assert gauge_group_order([1.0, -1.0]) == 2
    third = np.exp(2j * np.pi / 3)
    assert gauge_group_order([1.0, third, third**2]) == 3


def test_gauge_group_order_rejects_irrational():
    with pytest.raises(NumericalHealthError):
        gauge_group_order([1.0, np.exp(1j * np.pi * np.sqrt(2))], max_denominator=4)


def test_gauge_group_order_rejects_an_order_above_the_cap():
    third = np.exp(2j * np.pi / 3)
    with pytest.raises(NumericalHealthError):
        gauge_group_order([1.0, third, third**2], max_denominator=2)


def test_gauge_group_order_rejects_non_group():
    third = np.exp(2j * np.pi / 3)
    with pytest.raises(NumericalHealthError):
        gauge_group_order([1.0, third], max_denominator=9)


# ----------------------------------------------------------------------
# intertwiners
# ----------------------------------------------------------------------

def test_mixed_fixed_points_disjoint(swap2, rank_one2):
    assert mixed_fixed_points(swap2, rank_one2).dim == 0


def test_mixed_fixed_points_self_case(swap2, averaging3):
    for sys_ in (swap2, averaging3, random_system(2, 3, 61)):
        assert mixed_fixed_points(sys_, sys_).dim == fixed_points(sys_).dim


def test_mixed_fixed_points_scalar():
    s = scalar(1.0, 0.0)
    assert mixed_fixed_points(s, s).dim == 1


def test_mixed_fixed_points_rejects_d_mismatch(swap2):
    with pytest.raises(ValueError):
        mixed_fixed_points(swap2, random_system(3, 2, 0))


def test_mixed_fixed_points_rectangular():
    a = random_system(2, 2, 71)
    b = random_system(2, 4, 72)
    sub = mixed_fixed_points(a, b)
    assert sub.shape == (2, 4)
    for x in sub.basis:
        out = sum(w @ x @ v.conj().T for w, v in zip(a.operators, b.operators))
        assert np.linalg.norm(out - x) <= 1e-8


# ----------------------------------------------------------------------
# density-state plumbing
# ----------------------------------------------------------------------

def test_density_state_support_projection():
    state = DensityState.from_matrix(np.diag([0.5, 0.5, 0.0]))
    assert state.rank == 2 and not state.faithful
    assert np.linalg.norm(state.support @ state.rho @ state.support - state.rho, 2) <= 1e-10


def test_density_state_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityState.from_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        DensityState.from_matrix(np.diag([0.2, 0.2]))


def test_peripheral_operator_trace_norm_scaling(swap2):
    for p in peripheral_spectrum(swap2):
        assert abs(np.linalg.norm(p.operator, "nuc") - 1.0) <= 1e-10


def test_subspace_span_equals_is_basis_independent(swap2):
    fx = fixed_points(swap2)
    rotated = OperatorSubspace(tuple(1j * b for b in fx.basis), fx.shape)
    assert fx.span_equals(rotated)
