import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcstates import (
    LocalObservable,
    clustering_defect,
    commutant,
    compress,
    expectation,
    fixed_points,
    invariant_state,
    peripheral_eigenunitary,
    random_system,
    sigma_matrix,
    two_point,
    v_word,
    words_up_to,
)

from conftest import direct_sum, eij
from oracles import dense_expectation, e_map, generated_algebra, padded_product, vec_commutant


def obs(*factors, start=1):
    return LocalObservable(start, tuple(factors))


def test_e_map_identity_is_transfer(swap2):
    sys_ = random_system(2, 3, 5)
    assert np.allclose(e_map(sys_, np.eye(2)), sigma_matrix(sys_), atol=1e-12)
    assert np.allclose(e_map(swap2, np.eye(2)), sigma_matrix(swap2), atol=1e-14)


def test_e_map_matrix_units():
    sys_ = random_system(2, 3, 6)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    from fcstates import unvec, vec

    for i in range(2):
        for j in range(2):
            out = unvec(e_map(sys_, eij(i, j, 2)) @ vec(b), (3, 3))
            expected = sys_.operators[i] @ b @ sys_.operators[j].conj().T
            assert np.allclose(out, expected, atol=1e-12)


def test_e_map_swap_example(swap2):
    from fcstates import unvec, vec

    out = unvec(e_map(swap2, eij(0, 0, 2)) @ vec(np.eye(2)), (2, 2))
    assert np.allclose(out, eij(0, 0, 2))


def test_chain_rejects_bad_factor_shape(swap2):
    state = invariant_state(swap2)
    good, bad = obs(np.eye(2)), obs(np.eye(3))
    for call in (
        lambda: expectation(swap2, state, bad),
        lambda: two_point(swap2, state, good, bad, gap=1),
        lambda: two_point(swap2, state, bad, good, gap=1),
        lambda: clustering_defect(swap2, state, good, bad, n_max=3),
        lambda: clustering_defect(swap2, state, bad, good, n_max=3),
    ):
        with pytest.raises(ValueError, match="site observable must be 2x2"):
            call()


def _assert_chain_matches_dense_oracle(system, state, x, y, gap):
    rho, d = state.rho, system.d
    ex = dense_expectation(system, rho, x.factors)
    ey = dense_expectation(system, rho, y.factors)
    assert abs(expectation(system, state, x) - ex) <= 1e-12
    assert abs(expectation(system, state, y) - ey) <= 1e-12
    shifted = dense_expectation(system, rho, padded_product(x.factors, y.factors, x.width + gap, d))
    assert abs(two_point(system, state, x, y, gap) - shifted) <= 1e-12
    n_max = x.width + gap
    rep = clustering_defect(system, state, x, y, n_max=n_max)
    oracle = [
        abs(dense_expectation(system, rho, padded_product(x.factors, y.factors, n, d)) - ex * ey)
        for n in range(n_max + 1)
    ]
    assert len(rep.defects) == n_max + 1
    assert max(abs(a - b) for a, b in zip(rep.defects, oracle)) <= 1e-12


def test_chain_matches_dense_oracle(known_system):
    state = invariant_state(known_system)
    rng = np.random.default_rng(known_system.n)
    d = known_system.d
    fac = lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _assert_chain_matches_dense_oracle(known_system, state, obs(fac(), fac()), obs(fac()), 3)


def test_chain_layer_makes_no_kron_call(monkeypatch):
    # the state builds the system's transfer map (a Kronecker sum) before
    # the patch; every evaluation after it steps that held map
    sys_ = random_system(2, 5, 41)
    state = invariant_state(sys_)
    x, y = obs(eij(0, 1, 2), np.eye(2)), obs(eij(1, 1, 2))
    expected = two_point(sys_, state, x, y, gap=4)

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    ex, ey = expectation(sys_, state, x), expectation(sys_, state, y)
    assert two_point(sys_, state, x, y, gap=4) == expected
    rep = clustering_defect(sys_, state, x, y, n_max=20)
    assert abs(rep.defects[6] - abs(expected - ex * ey)) <= 1e-14


def test_commutant_makes_no_kron_call(monkeypatch):
    sys_ = direct_sum(random_system(2, 2, 61), random_system(2, 3, 62))
    ops = sys_.operators
    fixed = fixed_points(sys_)
    expected = vec_commutant(ops)

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    assert commutant(ops).span_equals(expected)
    assert commutant(ops, within=fixed).span_equals(expected)
    # M = M_2 (+) M_3 for two inequivalent ergodic blocks
    assert generated_algebra(ops).dim == 4 + 9


def test_expectation_swap_pairs(swap2):
    state = invariant_state(swap2)
    e11, e22 = eij(0, 0, 2), eij(1, 1, 2)
    assert abs(expectation(swap2, state, obs(e11, e11))) <= 1e-12
    assert abs(expectation(swap2, state, obs(e11, e22)) - 0.5) <= 1e-12


def test_expectation_scalar_offdiagonal(scalar_half):
    state = invariant_state(scalar_half)
    val = expectation(scalar_half, state, obs(eij(0, 1, 2)))
    assert abs(val - 0.5) <= 1e-12


def test_expectation_rejects_non_invariant(swap2):
    from fcstates.cpmap import DensityState

    bad = DensityState.from_matrix(np.diag([0.9, 0.1]))
    with pytest.raises(ValueError):
        expectation(swap2, bad, obs(eij(0, 0, 2)))


def test_chain_and_eigenunitary_gate_invariance_by_the_states_bound(swap2):
    # sigma_* swaps the diagonal, so diag(1/2 + e, 1/2 - e) has residual
    # 2e = 5.0e-9: below the fixed 1e-8 that the chain layer used to allow,
    # and far above invariance_bound = 1e-10 n + r = 2e-10 (r = 0 here),
    # the bound that invariant_state gates and every stage now shares
    from fcstates.cpmap import DensityState, invariance_bound, invariance_residual

    near = DensityState.from_matrix(np.diag([0.5 + 2.5e-9, 0.5 - 2.5e-9]))
    assert invariance_residual(swap2, near.rho) == pytest.approx(5e-9, rel=1e-6)
    assert invariance_bound(swap2) == pytest.approx(2e-10)
    x = obs(eij(0, 0, 2))
    for call in (
        lambda: expectation(swap2, near, x),
        lambda: two_point(swap2, near, x, x, gap=1),
        lambda: clustering_defect(swap2, near, x, x, n_max=3),
        lambda: peripheral_eigenunitary(swap2, near, -1.0),
    ):
        with pytest.raises(ValueError, match="not invariant.*above its bound 2.000e-10"):
            call()


def test_expectation_normalization_and_translation():
    for seed in (0, 3):
        sys_ = random_system(2, 3, 90 + seed)
        state = invariant_state(sys_)
        ident = np.eye(2)
        val = expectation(sys_, state, obs(ident, ident, ident))
        assert abs(val - 1.0) <= 1e-10
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = expectation(sys_, state, obs(a, ident, start=-3))
        right = expectation(sys_, state, obs(a, ident, start=1))
        assert left == right  # start site never enters the formula


def test_expectation_positivity():
    rng = np.random.default_rng(7)
    sys_ = random_system(2, 2, 17)
    state = invariant_state(sys_)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        val = expectation(sys_, state, obs(a.conj().T @ a))
        assert val.real >= -1e-10
        assert abs(val.imag) <= 1e-10


def test_expectation_matches_word_moments():
    # matrix-unit factors reproduce phi(V_I V_J*)
    sys_ = random_system(2, 3, 55)
    state = invariant_state(sys_)
    for wi in words_up_to(2, 2):
        for wj in words_up_to(2, 2):
            if len(wi) != len(wj) or not wi:
                continue
            factors = tuple(eij(a, b, 2) for a, b in zip(wi, wj))
            val = expectation(sys_, state, obs(*factors))
            target = np.trace(state.rho @ v_word(sys_, wi) @ v_word(sys_, wj).conj().T)
            assert abs(val - target) <= 1e-12


def test_two_point_swap_alternation(swap2):
    state = invariant_state(swap2)
    e11 = eij(0, 0, 2)
    # omega(e11 at 1, e11 at 1+n) is 1/2 for even n, 0 for odd n; the
    # distance n equals gap + 1 here
    for n in range(1, 8):
        val = two_point(swap2, state, obs(e11), obs(e11), gap=n - 1)
        expected = 0.5 if n % 2 == 0 else 0.0
        assert abs(val - expected) <= 1e-12


def test_two_point_identity_right_factor():
    sys_ = random_system(2, 3, 12)
    state = invariant_state(sys_)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = obs(a)
    val = two_point(sys_, state, x, obs(np.eye(2)), gap=3)
    assert abs(val - expectation(sys_, state, x)) <= 1e-12


def test_two_point_scalar_factorizes(scalar_half):
    state = invariant_state(scalar_half)
    a, b = eij(0, 0, 2), eij(0, 1, 2)
    val = two_point(scalar_half, state, obs(a), obs(b), gap=6)
    target = expectation(scalar_half, state, obs(a)) * expectation(
        scalar_half, state, obs(b)
    )
    assert abs(val - target) <= 1e-14


def test_clustering_swap_constant_quarter(swap2):
    state = invariant_state(swap2)
    e11 = eij(0, 0, 2)
    rep = clustering_defect(swap2, state, obs(e11), obs(e11), n_max=50)
    assert not rep.decayed
    for n in range(1, 51):
        assert abs(rep.defects[n] - 0.25) <= 1e-10


def test_clustering_scalar_product_state(scalar_half):
    state = invariant_state(scalar_half)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rep = clustering_defect(scalar_half, state, obs(a), obs(b), n_max=10)
    assert rep.decayed
    assert all(d <= 1e-12 for d in rep.defects[1:])


def test_clustering_compressed_rank_one(rank_one2):
    small = compress(rank_one2, invariant_state(rank_one2).carrier)
    state = invariant_state(small)
    e11 = eij(0, 0, 2)
    rep = clustering_defect(small, state, obs(e11), obs(e11), n_max=10)
    assert rep.decayed
    assert all(d <= 1e-12 for d in rep.defects[1:])


def test_clustering_overlap_values(swap2):
    # n = 0 compares against the product value: |omega(e11) - 1/4| = 1/4
    state = invariant_state(swap2)
    e11 = eij(0, 0, 2)
    rep = clustering_defect(swap2, state, obs(e11), obs(e11), n_max=3)
    assert abs(rep.defects[0] - 0.25) <= 1e-12


def test_clustering_rejects_negative_n_max():
    # n_max = -1 would leave no defect, and an empty tail would read as decayed
    sys_ = random_system(2, 3, 1)
    state = invariant_state(sys_)
    x = obs(eij(0, 0, 2))
    with pytest.raises(ValueError, match="n_max"):
        clustering_defect(sys_, state, x, x, n_max=-1)
    rep = clustering_defect(sys_, state, x, x, n_max=0)
    assert len(rep.defects) == 1 and rep.n_max == 0


def test_clustering_multisite_observables():
    sys_ = random_system(2, 3, 13)
    state = invariant_state(sys_)
    rng = np.random.default_rng(9)
    fac = lambda: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x, y = obs(fac(), fac()), obs(fac(), fac(), fac())
    rep = clustering_defect(sys_, state, x, y, n_max=150)
    # cross-check one overlap and one separated value directly
    val2 = two_point(sys_, state, x, y, gap=1)  # n = width(x) + 1 = 3
    target = expectation(sys_, state, x) * expectation(sys_, state, y)
    assert abs(rep.defects[3] - abs(val2 - target)) <= 1e-12


def test_expectation_against_word_enumeration_oracle():
    # independent oracle: expand every factor in matrix units and sum
    # omega(A_1 x ... x A_m) = sum_{I,J} prod_k A_k[i_k, j_k] * phi(V_I V_J*)
    from itertools import product as iproduct

    sys_ = random_system(2, 3, 64)
    state = invariant_state(sys_)
    rng = np.random.default_rng(11)
    factors = tuple(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)
    )
    oracle = 0.0 + 0.0j
    m = len(factors)
    for wi in iproduct(range(2), repeat=m):
        for wj in iproduct(range(2), repeat=m):
            coeff = 1.0 + 0.0j
            for k in range(m):
                coeff *= factors[k][wi[k], wj[k]]
            oracle += coeff * np.trace(
                state.rho @ v_word(sys_, wi) @ v_word(sys_, wj).conj().T
            )
    val = expectation(sys_, state, obs(*factors))
    assert abs(val - oracle) <= 1e-11 * max(1.0, abs(oracle))


def swap_product_mixture_oracle(factors, offset):
    """The swap-system chain state is the even mixture of the two
    alternating product states (delta_0, delta_1, delta_0, ...) and its
    shift; evaluate a window of factors starting at the given parity."""
    val = 0.0 + 0.0j
    for phase in (0, 1):
        term = 1.0 + 0.0j
        for k, f in enumerate(factors):
            term *= f[(k + offset + phase) % 2, (k + offset + phase) % 2]
        val += 0.5 * term
    return val


def test_swap_chain_matches_alternating_product_mixture(swap2):
    state = invariant_state(swap2)
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 4):
        factors = tuple(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(m)
        )
        val = expectation(swap2, state, obs(*factors))
        oracle = swap_product_mixture_oracle(factors, 0)
        assert abs(val - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_swap_two_point_matches_product_mixture(swap2):
    state = invariant_state(swap2)
    rng = np.random.default_rng(13)
    x = tuple(rng.standard_normal((2, 2)) for _ in range(2))
    y = tuple(rng.standard_normal((2, 2)) for _ in range(1))
    eye = np.eye(2)
    for gap in range(5):
        val = two_point(swap2, state, obs(*x), obs(*y), gap)
        window = x + (eye,) * gap + y
        oracle = swap_product_mixture_oracle(window, 0)
        assert abs(val - oracle) <= 1e-12 * max(1.0, abs(oracle))


# Systems over d in {2, 3} and n in 1..6, observables of width 1..3 with
# complex factors, and gaps 0..5; derandomized, so the suite stays
# deterministic.
@st.composite
def chain_cases(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    def observable(width):
        return LocalObservable(
            1, tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(width))
        )

    x = observable(draw(st.integers(1, 3)))
    y = observable(draw(st.integers(1, 3)))
    return random_system(d, n, seed), x, y, draw(st.integers(0, 5))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(chain_cases())
def test_chain_layer_matches_dense_oracle(case):
    system, x, y, gap = case
    _assert_chain_matches_dense_oracle(system, invariant_state(system), x, y, gap)
