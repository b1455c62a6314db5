import dataclasses
import gc
import weakref

import numpy as np
import pytest

import fcstates.cpmap
from fcstates import (
    EigenDecomposition,
    NumericalHealthError,
    PopescuSystem,
    classify_chain,
    coinvariance_check,
    commutant,
    compress,
    fixed_points,
    gauge_group_order,
    invariant_state,
    kernel,
    mixed_fixed_points,
    peripheral_eigenunitary,
    peripheral_spectrum,
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
    PeripheralEigenvalue,
    _commutant_constraints_within,
    _from_hermitian,
    _to_hermitian,
    invariance_residual,
    real_form,
)

from scipy.linalg import block_diag

from conftest import (
    ancilla,
    assert_fixed_kernels_match_svd_route,
    assert_peripheral_spectrum_matches_kernel_oracle,
    block_shift,
    direct_sum,
    eij,
    nonfaithful,
    pauli_channel,
    random_psd,
    random_unitary,
    record_kernels,
    record_transfer_factorizations,
    scalar,
    slow_mixer,
    span_projector,
)
from oracles import (
    apply_map,
    bordered_ergodic_kernels,
    frontier_generated_algebra,
    generated_algebra,
    is_algebra,
    kernel_eigenunitary,
    predual_matrix,
    shifted,
    squared_certificate,
    svd_fixed_dimension,
    svd_invariant_state,
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
    assert np.allclose(apply_map(sop, eij(0, 0, 2)), eij(1, 1, 2))
    assert np.allclose(apply_map(sop, eij(1, 1, 2)), eij(0, 0, 2))
    assert np.linalg.norm(apply_map(sop, eij(0, 1, 2))) < 1e-14
    assert np.linalg.norm(apply_map(sop, eij(1, 0, 2))) < 1e-14


def test_sigma_rank_one_action(rank_one2):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(apply_map(sigma_matrix(rank_one2), x), x[0, 0] * np.eye(2))


def test_sigma_averaging_action(averaging3):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    expected = np.diag([x[0, 0], x[1, 1], 0.5 * (x[0, 0] + x[1, 1])])
    assert np.linalg.norm(apply_map(sigma_matrix(averaging3), x) - expected) <= 1e-12


def test_unitality_random_systems():
    for seed in range(6):
        sys_ = random_system(3, 3, seed)
        sop = sigma_matrix(sys_)
        assert np.linalg.norm(apply_map(sop, np.eye(3)) - np.eye(3), 2) <= 1e-10


def test_predual_trace_pairing():
    rng = np.random.default_rng(3)
    sys_ = random_system(2, 3, 23)
    sig, pre = sigma_matrix(sys_), predual_matrix(sys_)
    assert np.allclose(pre, sig.conj().T, atol=1e-12)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(apply_map(sig, x).conj().T @ rho)
        rhs = np.trace(x.conj().T @ apply_map(pre, rho))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_predual_trace_preserving():
    sys_ = random_system(3, 4, 77)
    pre = predual_matrix(sys_)
    rng = np.random.default_rng(4)
    rho = random_psd(rng, 4)
    assert abs(np.trace(apply_map(pre, rho)) - np.trace(rho)) <= 1e-10


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
    m = sigma_matrix(random_system(3, n, 5))
    dense = b.conj().T @ m @ b
    assert np.linalg.norm(dense.imag) <= 1e-14
    assert np.linalg.norm(real_form(m) - dense.real) <= 1e-14
    with pytest.raises(ValueError):
        OperatorSubspace((1j * np.eye(n),), (n, n)).hermitian_columns()


def _all_matrices(n: int) -> OperatorSubspace:
    """All n x n matrices, spanned by the Hermitian basis."""
    return OperatorSubspace.from_hermitian(np.eye(n * n), n)


def test_real_forms_match_vec_oracles(known_system):
    n, ops = known_system.n, known_system.operators
    sig = sigma_matrix(known_system)
    sig_r = real_transfer(known_system).matrix
    assert sig_r.dtype == np.float64
    assert np.linalg.norm(real_form(predual_matrix(known_system)) - sig_r.T) <= 1e-14

    def svals(m):
        return np.linalg.svd(m, compute_uv=False)

    eye = np.eye(n * n)
    assert np.max(np.abs(svals(sig_r - eye) - svals(sig - eye))) <= 1e-12
    stack = _commutant_constraints_within(list(ops), _all_matrices(n))
    assert stack.dtype == np.float64
    assert np.max(np.abs(svals(stack) - svals(vec_commutant_constraints(ops)))) <= 1e-12
    assert spectral_sets_match(np.linalg.eigvals(sig_r), np.linalg.eigvals(sig), 1e-10)
    fx, comm = fixed_points(known_system), commutant(ops)
    assert fx.span_equals(vec_fixed_points(known_system))
    assert comm.span_equals(vec_commutant(ops))
    for b in [*fx.basis, *comm.basis]:
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
            assert np.linalg.norm(apply_map(sop, b) - b) <= 1e-9


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
    full = _commutant_constraints_within(ops, _all_matrices(n))
    # the (A, A*) stack is a unitary recombination of the i[X, K] stack, so
    # the two have one Gram matrix
    oracle = vec_commutant_constraints(ops)
    assert np.linalg.norm(full.T @ full - real_form(oracle.conj().T @ oracle)) <= 1e-12
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


def test_the_stages_read_one_transfer_map_per_system(monkeypatch):
    # the fixed space, the state and the peripheral spectrum of one system
    # read the map it holds, built on the first of them
    calls = record_transfer_factorizations(monkeypatch)
    system = random_system(2, 4, 5)
    fixed_points(system)
    invariant_state(system)
    peripheral_spectrum(system)
    assert system.transfer is system.transfer
    assert [call for call in calls if call[0] == "real_transfer"] == [("real_transfer", 16)]


def test_a_system_and_its_transfer_map_are_freed_together():
    # the map holds no reference to its system, so no reference cycle keeps
    # either alive: with the cycle collector off, both go on del, also after
    # a classification that compresses (the map is neither ergodic nor
    # faithful) and builds a second map on the compression
    system = ancilla(nonfaithful(2, 3, 2, 22), 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        classify_chain(system)
        refs = weakref.ref(system), weakref.ref(system.transfer)
        del system
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_fixed_kernels_match_separate_kernels(known_system):
    n = known_system.n
    form = known_system.transfer
    fixed, predual_fixed = form.fixed_kernels(1e-8)
    assert fixed.shape == predual_fixed.shape
    separate = kernel(form.matrix.T - np.eye(n * n), 1e-8, scale=1.0)
    assert separate.shape == predual_fixed.shape
    gap = span_projector(predual_fixed) - separate @ separate.T
    assert np.linalg.norm(gap, 2) <= 1e-12
    oracle = _projector(vec_fixed_points(known_system))
    assert np.linalg.norm(_projector(fixed_points(known_system)) - oracle, 2) <= 1e-12
    state = invariant_state(known_system)
    assert np.linalg.norm(state.rho - vec_invariant_state(known_system).rho, 2) <= 1e-12
    assert_fixed_kernels_match_svd_route(known_system)
    if fixed.shape[1] == 1:
        assert np.linalg.norm(state.rho - svd_invariant_state(form).rho, 2) <= 1e-12


def _compressed(system):
    return compress(system, invariant_state(system).carrier)


ERGODIC_FAMILIES = {
    "block_shift(3,2,3)": lambda: block_shift(3, 2, 3, 71),
    "block_shift(4,3,2)": lambda: block_shift(4, 3, 2, 72),
    "block_shift(6,2,2)": lambda: block_shift(6, 2, 2, 73),
    "compressed nonfaithful(2,3,2,22)": lambda: _compressed(nonfaithful(2, 3, 2, 22)),
    "pauli_channel(1e-6)": lambda: pauli_channel(1e-6),
    **{
        f"random n={n} d={d} seed={seed}": lambda d=d, n=n, seed=seed: random_system(d, n, seed)
        for seed, n, d in ((1100 + i, 2 + (7 * i) % 15, 2 + i % 3) for i in range(20))
    },
}


@pytest.mark.parametrize("name, make", ERGODIC_FAMILIES.items(), ids=ERGODIC_FAMILIES.keys())
def test_ritz_kernels_match_the_closed_form_on_ergodic_families(monkeypatch, name, make):
    # an ergodic map has the closed forms e, the coordinates of I/sqrt(n),
    # and the bordered solve h of (sigma^T - I + e e^T) h = e. Worst gaps
    # (1 BLAS thread): 1.0e-15 for F against e and 1.8e-15 for H against h,
    # except pauli_channel(1e-6), whose second singular value 1e-6 leaves
    # the SVD oracles 3.3e-11 from every route
    system = make()
    calls = record_transfer_factorizations(monkeypatch)
    form = system.transfer
    fixed, predual_fixed = form.fixed_kernels(1e-8)
    state = invariant_state(system)
    whole = form.ritz_matrix(1e-9)[0].shape[1] == form.n**2
    monkeypatch.undo()
    # one solve of the bordered n^2 x n^2 matrix per call of fixed_kernels,
    # and no other factorization of that size unless p = n^2
    solves = [("real_transfer", form.n**2)] + [("solve", form.n**2)] * 2
    assert [c for c in calls if c[0] != "svd" or not whole] == solves
    bound = 1e-9 if name == "pauli_channel(1e-6)" else 1e-12
    e, h = bordered_ergodic_kernels(form)
    assert fixed.shape == predual_fixed.shape == (form.n**2, 1)
    assert np.linalg.norm(fixed @ fixed.T - e @ e.T, 2) <= bound
    assert np.linalg.norm(span_projector(predual_fixed) - h @ h.T, 2) <= bound
    assert_fixed_kernels_match_svd_route(system, bound=bound)
    assert np.linalg.norm(state.rho - svd_invariant_state(form).rho, 2) <= bound


def test_bordered_solve_survives_a_small_second_singular_value():
    # sigma - I of pauli_channel(p) has singular values 0, p, p, 2p
    form = real_transfer(pauli_channel(1e-6))
    s = np.linalg.svd(shifted(form, 1.0), compute_uv=False)
    assert s[-2] == pytest.approx(1e-6, rel=1e-6)
    (h,) = form.fixed_kernels(1e-8)[1].T
    assert np.linalg.norm(form.matrix.T @ h - h) <= 1e-15


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_system(2, 4, 1),
        lambda: random_system(3, 9, 2),
        lambda: random_system(2, 16, 3),
        lambda: block_shift(3, 2, 3, 71),
        lambda: _compressed(nonfaithful(2, 3, 2, 22)),
    ],
    ids=["random n=4", "random n=9", "random n=16", "block_shift(3,2,3)", "compressed nonfaithful"],
)
def test_a_threshold_above_the_second_singular_value_counts_only_ritz_directions(make):
    # at 2 s[-2] the SVD of sigma - I keeps its two smallest singular
    # values; the fixed space is read from S - I, and the certificate puts
    # every eigenvalue outside X inside the circle, so the near-null
    # direction of sigma - I outside X is not counted
    form = real_transfer(make())
    s = np.linalg.svd(shifted(form, 1.0), compute_uv=False)
    assert s[-1] <= 1e-8 < s[-2]
    ritz = form.ritz_matrix(1e-9)[1]
    near_null = np.linalg.svd(ritz - np.eye(ritz.shape[0]), compute_uv=False)
    for tol in (1e-8, 2.0 * s[-2]):
        fixed, predual_fixed = form.fixed_kernels(tol)
        assert fixed.shape[1] == predual_fixed.shape[1] == 1
        assert (svd_fixed_dimension(form, tol) >= 2) == (tol != 1e-8)
        assert fixed.shape[1] == int(np.sum(near_null <= tol))
        assert np.linalg.norm(fixed.T @ predual_fixed - 1.0) <= 1e-13
        assert np.linalg.norm(form.matrix.T @ predual_fixed - predual_fixed) <= 1e-14


def test_threshold_below_the_smallest_singular_value_aborts():
    # no fixed point is kept, while eig puts the value 1 on the circle; the
    # singular value is that of the 1 x 1 matrix S - I, roundoff
    system = random_system(2, 4, 1)
    ritz = system.transfer.ritz_matrix(1e-9)[1]
    smallest = np.linalg.svd(ritz - np.eye(ritz.shape[0]), compute_uv=False)[-1]
    assert smallest > 0
    assert system.transfer.fixed_kernels(0.5 * smallest)[1].shape[1] == 0
    with pytest.raises(NumericalHealthError, match="geometric 0, algebraic 1"):
        peripheral_spectrum(system, set_tol=0.5 * smallest)


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: ancilla(random_system(2, 4, 5), 3), 1e-12),
        *((lambda eps=eps: slow_mixer(eps), 1e-9) for eps in (1e-2, 1e-4, 1e-6)),
    ],
    ids=["random(2,4,5) x I3", "slow_mixer(1e-2)", "slow_mixer(1e-4)", "slow_mixer(1e-6)"],
)
def test_fixed_points_and_state_match_oracles(make, bound):
    # dim Fix = 9 above the first sample width, and second eigenvalues
    # 1 - O(eps): worst gaps 4.0e-15 on the ancilla, and 2.1e-10 on the slow
    # mixers, where the gap eps leaves the SVD oracle itself eps_mach / eps
    # from the fixed space (1 BLAS thread)
    system = make()
    assert_fixed_kernels_match_svd_route(system, bound=bound)
    oracle = _projector(vec_fixed_points(system))
    assert np.linalg.norm(_projector(fixed_points(system)) - oracle, 2) <= bound
    state = invariant_state(system)
    assert np.linalg.norm(state.rho - vec_invariant_state(system).rho, 2) <= bound
    assert invariance_residual(system, state.rho) <= 1e-14


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

def predual_fixed_dim(system) -> int:
    """Dimension of the kernel of sigma_* - I in vec coordinates."""
    m = predual_matrix(system)
    return kernel(m - np.eye(m.shape[0]), 1e-8, scale=1.0).shape[1]


def test_invariant_state_rank_one(rank_one2):
    state = invariant_state(rank_one2)
    assert np.linalg.norm(state.rho - eij(0, 0, 2), 2) <= 1e-10
    assert state.rank == 1 and not state.faithful


def test_invariant_state_swap(swap2):
    state = invariant_state(swap2)
    assert np.linalg.norm(state.rho - np.eye(2) / 2, 2) <= 1e-10
    assert state.faithful and predual_fixed_dim(swap2) == 1


def test_invariant_state_averaging(averaging3):
    state = invariant_state(averaging3)
    assert np.linalg.norm(state.rho - np.diag([0.5, 0.5, 0.0]), 2) <= 1e-10
    assert state.rank == 2 and predual_fixed_dim(averaging3) > 1


def test_invariant_state_unique_and_start_independent():
    rng = np.random.default_rng(5)
    for seed in (2, 12):
        sys_ = random_system(2, 3, seed)
        if fixed_points(sys_).dim != 1:
            continue
        base = invariant_state(sys_)
        assert predual_fixed_dim(sys_) == 1  # predual eigenvalue-1 space is one-dimensional too
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
    assert predual_fixed_dim(both) > 1
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
    # the three conditions are evaluated and must agree, else the check raises
    assert coinvariance_check(rank_one2, eij(1, 1, 2)) is True
    assert coinvariance_check(rank_one2, eij(0, 0, 2)) is False


def test_coinvariance_identity(swap2):
    assert coinvariance_check(swap2, np.eye(2)) is True


def test_coinvariance_rejects_non_projection(swap2):
    with pytest.raises(ValueError):
        coinvariance_check(swap2, np.array([[0.5, 0.0], [0.0, 0.5]]))


def test_support_complement_is_coinvariant():
    # conditions agree on the complement of an invariant-state support
    for seed in (1, 3, 8):
        sys_ = random_system(2, 4, seed)
        state = invariant_state(sys_)
        assert coinvariance_check(sys_, np.eye(4) - state.support) is True


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
    assert coinvariance_check(big, p) is True


# ----------------------------------------------------------------------
# peripheral spectrum, eigenunitaries, group order
# ----------------------------------------------------------------------

def test_peripheral_swap(swap2):
    peri = peripheral_spectrum(swap2)
    assert spectral_sets_match([p.value for p in peri], [1.0, -1.0], 1e-9)
    assert all(p.multiplicity == 1 for p in peri)


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
    assert p.multiplicity == 3


def test_peripheral_kernel_miss_aborts():
    # a kernel threshold below roundoff misses the value 1 that eig finds:
    # an empty eigenspace beside a cluster of one
    with pytest.raises(NumericalHealthError, match="geometric 0, algebraic 1"):
        peripheral_spectrum(random_system(2, 4, 1), set_tol=1e-18)


@pytest.mark.parametrize("factor, semisimple", [(2.0, False), (0.5, True)])
def test_peripheral_eigenspace_kernel_at_its_threshold(monkeypatch, factor, semisimple):
    # eig's value at t = e^{2 pi i/3}, a value whose cluster has one member,
    # is turned along the circle until the least singular value of S - t,
    # for the 3 x 3 Ritz matrix S, is factor * set_tol
    sys_ = block_shift(3, 2, 2, 64)
    t = np.exp(2j * np.pi / 3)
    set_tol = 1e-8
    exact_eig = fcstates.cpmap.eig
    least = []

    def turned_eig(a):
        dec = exact_eig(a)
        j = int(np.argmin(np.abs(dec.eigenvalues - t)))

        def gap(angle):
            value = dec.eigenvalues[j] * np.exp(1j * angle)
            return np.linalg.svd(a - value * np.eye(a.shape[0]), compute_uv=False)[-1]

        # the least singular value grows linearly with the angle
        angle = factor * set_tol * 1e-6 / gap(1e-6)
        least.append(gap(angle))
        vals = dec.eigenvalues.astype(complex)
        vals[j] *= np.exp(1j * angle)
        return EigenDecomposition(vals, dec.eigenvectors, dec.residual)

    monkeypatch.setattr(fcstates.cpmap, "eig", turned_eig)
    if not semisimple:
        with pytest.raises(NumericalHealthError, match="geometric 0, algebraic 1"):
            peripheral_spectrum(sys_, set_tol=set_tol)
        assert least[0] == pytest.approx(factor * set_tol, rel=1e-3)
        return
    peri = peripheral_spectrum(sys_, set_tol=set_tol)
    assert least[0] == pytest.approx(factor * set_tol, rel=1e-3)
    (p,) = [p for p in peri if abs(p.value - t) <= 1e-6]
    assert p.multiplicity == 1
    assert abs(np.linalg.norm(p.operator, "nuc") - 1.0) <= 1e-10


def test_a_peripheral_entry_holds_its_value_and_space(swap2):
    # each decided value is held once: the multiplicity is the column count
    # of the space, and the representative is formed when first read
    assert [f.name for f in dataclasses.fields(PeripheralEigenvalue)] == ["value", "space"]
    one, minus = peripheral_spectrum(swap2)
    assert one.value == pytest.approx(1.0) and minus.value == pytest.approx(-1.0)
    assert minus.multiplicity == minus.space.shape[1] == 1
    assert "operator" not in vars(minus)
    op = minus.operator
    assert vars(minus)["operator"] is op and minus.operator is op
    assert np.allclose(op, np.diag([0.5, -0.5]))


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


EIGENUNITARY_CASES = {
    "block_shift(3,2,2)": (lambda: block_shift(3, 2, 2, 64), np.exp(2j * np.pi / 3)),
    "block_shift(4,2,3)": (lambda: block_shift(4, 2, 3, 65), 1j),
    "block_shift(6,2,2)": (lambda: block_shift(6, 2, 2, 73), np.exp(-2j * np.pi / 6)),
    "random(2,4)": (lambda: random_system(2, 4, 66), 1.0),
}


@pytest.mark.parametrize("make, t", EIGENUNITARY_CASES.values(), ids=EIGENUNITARY_CASES.keys())
def test_eigenunitary_matches_kernel_oracle(monkeypatch, make, t):
    # the operator at conj(t) comes from the peripheral spectrum, rescaled:
    # the only kernels are those of the p x p Ritz matrix S - t, one per
    # peripheral value, and the unitary is the oracle's own kernel vector
    system = make()
    state = invariant_state(system)
    want = kernel_eigenunitary(system, state, t)
    kernels = record_kernels(monkeypatch)
    got = peripheral_eigenunitary(system, state, t)
    p = system.transfer.ritz_matrix(1e-9)[0].shape[1]
    assert p < system.n**2
    assert [shape for _, shape in kernels] == [(p, p)] * p
    assert np.linalg.norm(got - want, 2) <= 1e-8


def test_eigenunitary_rejects_a_value_off_the_spectrum():
    system = block_shift(3, 2, 2, 64)
    with pytest.raises(ValueError, match="not in the peripheral spectrum"):
        peripheral_eigenunitary(system, invariant_state(system), 1j)


def test_eigenunitary_rejects_a_map_that_is_not_ergodic():
    system = direct_sum(random_system(2, 2, 1), random_system(2, 3, 2))
    with pytest.raises(ValueError, match="not ergodic"):
        peripheral_eigenunitary(system, invariant_state(system), 1.0)


# ----------------------------------------------------------------------
# the certified peripheral subspace
# ----------------------------------------------------------------------

def _ritz_dimension(system) -> int:
    return system.transfer.ritz_matrix(1e-9)[0].shape[1]


def test_ritz_sample_widens_past_its_first_block():
    # dim Fix = 9 exceeds the first sample of 8 columns: the sample stops
    # changing without a gap and is redrawn with 16
    system = ancilla(random_system(2, 4, 5), 3)
    assert _ritz_dimension(system) == 9 > fcstates.cpmap._RITZ_BLOCK
    assert_peripheral_spectrum_matches_kernel_oracle(system)
    (p,) = peripheral_spectrum(system)
    assert p.multiplicity == 9


def test_ritz_sample_widens_past_a_cycling_power():
    # 12 values on the circle: 1, t and conj(t), t = e^{2 pi i/3}, each 4
    # times; the powers of sigma cycle through t and conj(t), so the sample
    # repeats every second squaring and is widened to 16
    system = ancilla(block_shift(3, 2, 2, 7), 2)
    assert _ritz_dimension(system) == 12
    assert_peripheral_spectrum_matches_kernel_oracle(system)


def test_ritz_subspace_is_everything_when_every_value_is_on_the_circle(monkeypatch):
    # V_i = c_i U: sigma = Ad U is orthogonal, every one of its n^2
    # eigenvalues is unimodular, and eig runs on sigma itself
    u = random_unitary(np.random.default_rng(4), 3)
    system = fcstates.PopescuSystem.from_operators([0.6 * u, 0.8 * u])
    dims = []
    original = fcstates.cpmap.eig

    def recording(a, *args, **kwargs):
        dims.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(fcstates.cpmap, "eig", recording)
    form = system.transfer
    basis, ritz = form.ritz_matrix(1e-9)
    assert np.array_equal(basis, np.eye(9)) and ritz is form.matrix
    assert_peripheral_spectrum_matches_kernel_oracle(system)
    assert dims[0] == (9, 9)
    peri = peripheral_spectrum(system)
    assert sum(p.multiplicity for p in peri) == 9
    assert peri[0].multiplicity == 3  # the diagonal of U's basis


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_ritz_sample_squares_through_slow_mixing(eps):
    # sigma = (1 - eps) id + eps sigma_V on 3 x 3 matrices: the second
    # eigenvalue is 1 - O(eps), and squaring runs until it has decayed,
    # leaving the one fixed point, not the whole space
    system = slow_mixer(eps)
    assert _ritz_dimension(system) == 1
    assert_peripheral_spectrum_matches_kernel_oracle(system)
    (p,) = peripheral_spectrum(system)
    assert abs(p.value - 1.0) <= 1e-12


def _sampled(monkeypatch, basis, squarings):
    # the sampling returns the given basis with the power P = sigma^m,
    # m = 2^squarings, from which the certificate is read; only a map built
    # after the patch samples this way, so each use takes a new system
    # object (PopescuSystem(system.operators)), which builds its own
    def sampled(form):
        power = form.matrix
        for _ in range(squarings):
            power = power @ power
        return basis, power, 2**squarings

    monkeypatch.setattr(fcstates.cpmap.RealTransfer, "_sampled_basis", sampled)


def _identity_direction(n):
    e = np.zeros((n * n, 1))
    e[:n, 0] = 1.0 / np.sqrt(n)
    return e


def test_a_certificate_that_cannot_close_aborts(monkeypatch):
    # the sampled subspace is replaced by the fixed direction of a block
    # shift alone, which misses its values t and conj(t) on the circle:
    # they stay unimodular in the complement, so c >= ||T^m||_F >= sqrt(2)
    # at every power, and no fixed space, state or spectrum is reported
    system = block_shift(3, 2, 2, 64)
    for squarings in (0, 7, 20):
        _sampled(monkeypatch, _identity_direction(system.n), squarings)
        sampled = PopescuSystem(system.operators)
        assert sampled.transfer._dominant_subspace[2] >= np.sqrt(2)
        for stage in (fixed_points, invariant_state):
            with pytest.raises(NumericalHealthError, match="fixed space of sigma is not certified"):
                stage(sampled)
        with pytest.raises(NumericalHealthError, match=r"not certified below 1 - 1\.0e-09"):
            peripheral_spectrum(sampled)
        with pytest.raises(NumericalHealthError, match=r"not certified below 1 - 1\.0e-06"):
            peripheral_spectrum(sampled, tol=1e-6)
    # the squaring loop that the certificate replaces fails as well
    assert squared_certificate(sampled.transfer, _identity_direction(system.n), 1e-9) is None
    # tol = 0 leaves no room below 1, and at tol = 1/2 the peripheral set
    # would reach eigenvalues of modulus 1/2
    for tol in (0.0, 0.5):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\)"):
            peripheral_spectrum(sampled, tol=tol)


@pytest.mark.parametrize("squarings, closes", [(2, False), (3, True), (4, True), (5, True)])
def test_the_certificate_bounds_every_other_eigenvalue(monkeypatch, squarings, closes):
    # the sampled fixed direction of random_system(2, 4, 5), read at powers
    # below the 2^7 that its sampling reaches: c = 1.02, 0.36, 0.059 and
    # 0.0018, and c^(1/m) = 1.006, 0.880, 0.838 and 0.821 against the
    # second modulus 0.809 of the dense eig
    system = random_system(2, 4, 5)
    basis = system.transfer._dominant_subspace[0]
    _sampled(monkeypatch, basis, squarings)
    sampled = PopescuSystem(system.operators)
    form = sampled.transfer
    _, _, certificate, m = form._dominant_subspace
    assert (certificate < 1.0) is closes
    if not closes:
        for stage in (fixed_points, invariant_state):
            with pytest.raises(NumericalHealthError, match="fixed space of sigma is not certified"):
                stage(sampled)
        return
    bound = certificate ** (1.0 / m)
    assert np.sort(np.abs(np.linalg.eigvals(form.matrix)))[-2] <= bound < 0.9
    # c < 1 certifies the fixed space; the peripheral set needs
    # c^(1/m) < 1 - tol
    assert fixed_points(sampled).dim == 1
    assert form.ritz_matrix(0.99 * (1.0 - bound))[0] is basis
    with pytest.raises(NumericalHealthError, match="not certified below"):
        form.ritz_matrix(1.01 * (1.0 - bound))


def test_a_certificate_whose_drift_bound_fails_aborts(monkeypatch):
    # the drift bound 2 m n ||R||_F on ||sigma^m - A^m|| needs
    # m sqrt(n) ||R||_F <= 1/2 and m ||sum_i V_i V_i* - I|| <= 1/16
    system = random_system(2, 4, 5)
    basis = system.transfer._dominant_subspace[0]
    w = np.random.default_rng(7).standard_normal(basis.shape)
    w -= basis @ (basis.T @ w)
    moved = basis + 1e-12 * w / np.linalg.norm(w)
    moved /= np.linalg.norm(moved)
    # an invariance residual of about 1e-12 passes the gate at 1e-10 and
    # the bound at m = 2^30, and fails it at m = 2^40
    _sampled(monkeypatch, moved, 30)
    assert fixed_points(PopescuSystem(system.operators)).dim == 1
    _sampled(monkeypatch, moved, 40)
    with pytest.raises(NumericalHealthError, match=r"no certificate at sigma\^1099511627776"):
        fixed_points(PopescuSystem(system.operators))
    # a system unital to 9e-10 passes at m = 2^25 (m r = 0.03) and fails
    # at m = 2^27 (m r = 0.12)
    scaled = tuple(v * np.sqrt(1 + 9e-10) for v in system.operators)
    _sampled(monkeypatch, basis, 25)
    assert fixed_points(PopescuSystem(scaled)).dim == 1
    _sampled(monkeypatch, basis, 27)
    with pytest.raises(NumericalHealthError, match=r"m \|\|sum_i V_i V_i\* - I\|\| = 1\.2"):
        invariant_state(PopescuSystem(scaled))


def test_a_fixed_basis_that_sigma_does_not_fix_aborts():
    # the held Ritz pair is replaced by one that claims the Ritz value 1,
    # certified by c = 1/2, on a direction F. The identity map fixes every
    # direction, so F = I/sqrt(3) spans too little and the bordered matrix
    # sigma^T - I + F F^T = F F^T is singular
    system = PopescuSystem.from_operators([0.6 * np.eye(3), 0.8 * np.eye(3)])
    held = (_identity_direction(3), np.ones((1, 1)), 0.5, 1)
    system.transfer.__dict__["_dominant_subspace"] = held
    with pytest.raises(NumericalHealthError, match=r"sigma\^T - I \+ F F\^T is singular"):
        invariant_state(system)
    # two directions claimed fixed where sigma fixes one: the predual's
    # fixed space is one-dimensional, so (sigma^T - I) H is far above
    # tol ||H||_F. One direction would pass, as the bordered solve then
    # gives the invariant state over its pairing with F, whatever F is
    system = random_system(2, 4, 5)
    x = np.linalg.qr(np.random.default_rng(8).standard_normal((16, 2)))[0]
    system.transfer.__dict__["_dominant_subspace"] = (x, np.eye(2), 0.5, 1)
    with pytest.raises(NumericalHealthError, match="the bordered solve H has residual"):
        invariant_state(system)


def test_a_subspace_that_is_not_invariant_aborts(monkeypatch):
    # with no least size for a kept singular value, the sample keeps
    # decaying directions whose singular values lie near roundoff, and
    # whose singular vectors roundoff moves: the invariance gate fails. The
    # patch reaches only a map built after it, so a new system object is
    # sampled
    system = random_system(2, 3, 1)
    assert_peripheral_spectrum_matches_kernel_oracle(system)
    monkeypatch.setattr(fcstates.cpmap, "_RITZ_KEEP", 0.0)
    with pytest.raises(NumericalHealthError, match="invariance residual .*, above 1e-10"):
        peripheral_spectrum(PopescuSystem(system.operators))


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


def test_gauge_group_order_rejects_distinct_values_that_snap_to_one_phase():
    # -1 and -1 + 2e-8 i are distinct at tol = 1e-8, and both snap to 1/2:
    # three values are not the group of order 2
    with pytest.raises(NumericalHealthError):
        gauge_group_order([1.0, -1.0, -1.0 + 2e-8j], tol=1e-8, max_denominator=3)


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


def test_density_state_holds_its_eigendecomposition():
    # ascending weights that sum to 1; the support basis is the eigenvectors
    # of weight above 1e-8 times the largest, and rho is rebuilt from both
    rho = np.diag([0.5, 1e-12, 0.5]) / (1 + 1e-12)
    state = DensityState.from_matrix(rho)
    assert np.all(np.diff(state.weights) >= 0) and state.weights.sum() == pytest.approx(1.0)
    assert state.carrier.shape == (3, 2) and state.rank == 2 and not state.faithful
    assert np.linalg.norm(state.carrier.conj().T @ state.carrier - np.eye(2)) <= 1e-15
    assert np.linalg.norm(state.support - np.diag([1.0, 0.0, 1.0])) <= 1e-15
    assert np.linalg.norm(state.rho - rho) <= 1e-15


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


def test_hermitian_coordinates_round_trip_on_stacks():
    # the converters act on the last two axes and on the last axis: a stack
    # of stacks converts bit for bit as its matrices do one at a time, and
    # comes back to roundoff (sqrt(1/2)^2 is not 1/2 in doubles, so the
    # off-diagonal entries can move by an ulp)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    c = _to_hermitian(x)
    assert c.shape == (2, 3, 16)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(c[i, j], _to_hermitian(x[i, j]))
        assert np.array_equal(_from_hermitian(c[i, j]), _from_hermitian(c)[i, j])
    assert np.max(np.abs(_from_hermitian(c) - x)) <= 4 * np.finfo(float).eps * np.abs(x).max()
    # entries that are 0 or on the diagonal come back bit for bit
    d = np.diag([1.0, -2.0, 3.5, 0.0]).astype(complex)
    assert np.array_equal(_from_hermitian(_to_hermitian(d)), d)


def test_hermitian_coordinates_are_b_star_vec():
    # B, the Hermitian basis in vec coordinates, is the subspace whose
    # Hermitian coordinates are the identity
    n = 4
    b = OperatorSubspace.from_hermitian(np.eye(n * n), n).to_columns()
    assert np.linalg.norm(b.conj().T @ b - np.eye(n * n)) <= 1e-14
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    want = b.conj().T @ np.stack([vec(m) for m in x], axis=1)
    assert np.linalg.norm(_to_hermitian(x).T - want) <= 1e-14


def test_subspace_holds_one_array_and_rejects_other_shapes():
    eye = np.eye(3)
    sub = OperatorSubspace((eye, 2 * eye), (3, 3))
    assert sub.basis.shape == (2, 3, 3) and sub.basis.dtype == complex
    assert OperatorSubspace((), (3, 3)).basis.shape == (0, 3, 3)
    for bad in ((np.eye(2),), np.eye(3), (np.ones((3, 2)),)):
        with pytest.raises(ValueError):
            OperatorSubspace(bad, (3, 3))
