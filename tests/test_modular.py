from dataclasses import asdict

import numpy as np
import pytest

from fcstates import (
    DensityState,
    PopescuSystem,
    compare_duals,
    dual_system,
    fixed_points,
    gns,
    invariant_state,
    random_system,
    real_transfer,
    spectral_sets_match,
    verify_duality,
)

from conftest import eij
from oracles import kron_dual_generators, kron_duality_residuals


def diagonal_dephasing() -> PopescuSystem:
    """Mixture of identity and diag(1,-1) conjugation; every diagonal
    density matrix is invariant, so faithful non-tracial states exist."""
    z = np.diag([1.0, -1.0]).astype(complex)
    return PopescuSystem.from_operators([np.eye(2) / np.sqrt(2), z / np.sqrt(2)])


def faithful_random(seed: int, d: int = 2, n: int = 3):
    sys_ = random_system(d, n, seed)
    state = invariant_state(sys_)
    return (sys_, state) if state.faithful else (None, None)


def matrix_units(n: int) -> np.ndarray:
    return np.stack([eij(a, b, n) for b in range(n) for a in range(n)])


def test_gns_swap_tracial(swap2):
    state = invariant_state(swap2)
    md = gns(swap2, state)
    assert np.allclose(md.phi_vector, np.eye(2) / np.sqrt(2), atol=1e-12)
    # Delta^{1/2} is the identity; the Frobenius norm over the matrix units
    # bounds the operator norm from above
    units = matrix_units(2)
    assert np.linalg.norm(md.apply_delta_half(units) - units) <= 1e-12


def test_gns_delta_action_on_offdiagonal():
    sys_ = diagonal_dephasing()
    p = 0.3
    state = DensityState.from_matrix(np.diag([p, 1 - p]))
    md = gns(sys_, state)
    out = md.apply_delta_half(md.apply_delta_half(eij(0, 1, 2)))
    assert abs(out[0, 1] - p / (1 - p)) <= 1e-12
    assert abs(out[0, 0]) + abs(out[1, 0]) + abs(out[1, 1]) <= 1e-12


def test_gns_tomita_identities():
    sys_, state = faithful_random(101)
    assert sys_ is not None
    md = gns(sys_, state)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # J^2 = 1
    assert np.linalg.norm(md.apply_j(md.apply_j(x)) - x) <= 1e-12
    # J Delta J = Delta^{-1}, on every matrix unit
    units = matrix_units(3)
    j_delta_j = md.apply_j(md.apply_delta_half(md.apply_delta_half(md.apply_j(units))))
    delta_inv = md.apply_delta_minus_half(md.apply_delta_minus_half(units))
    assert np.linalg.norm(j_delta_j - delta_inv) <= 1e-10
    # S(X Phi) = X* Phi with S = J Delta^{1/2}
    s_of = md.apply_j(md.apply_delta_half(x @ md.phi_vector))
    assert np.linalg.norm(s_of - x.conj().T @ md.phi_vector) <= 1e-10


def test_gns_rejects_non_faithful(rank_one2):
    state = invariant_state(rank_one2)
    with pytest.raises(ValueError, match="faithful"):
        gns(rank_one2, state)


def test_gns_rejects_non_invariant(swap2):
    bad = DensityState.from_matrix(np.diag([0.9, 0.1]))
    with pytest.raises(ValueError, match="invariant"):
        gns(swap2, bad)


def test_dual_parameters_tracial_case(swap2, scalar_half):
    for sys_ in (swap2, scalar_half):
        state = invariant_state(sys_)
        dual = dual_system(sys_, state)
        for w, v in zip(dual.parameters, sys_.operators):
            assert np.linalg.norm(w - v, 2) <= 1e-12


def test_dual_parameter_isometry_random():
    found = 0
    for seed in range(6):
        sys_, state = faithful_random(500 + seed)
        if sys_ is None:
            continue
        found += 1
        dual = dual_system(sys_, state)
        acc = sum(w.conj().T @ w for w in dual.parameters)
        assert np.linalg.norm(acc - np.eye(3), 2) <= 1e-10
    assert found >= 4


def test_verify_duality_swap_collapses(swap2):
    state = invariant_state(swap2)
    rep = verify_duality(dual_system(swap2, state))
    assert rep.max_residual() <= 1e-12


def test_verify_duality_random():
    sys_, state = faithful_random(321)
    assert sys_ is not None
    rep = verify_duality(dual_system(sys_, state))
    assert rep.completeness <= 1e-9
    assert rep.double_dual <= 1e-8
    assert rep.dual_invariance <= 1e-10
    assert rep.vector_consistency <= 1e-10
    assert rep.commutation <= 1e-10
    # the two equivalent invariance residuals agree
    assert abs(rep.parameter_isometry - rep.predual_invariance) <= 1e-12 + max(
        rep.parameter_isometry, rep.predual_invariance
    )


def test_verify_duality_rejects_bad_state(swap2):
    bad = DensityState.from_matrix(np.diag([0.9, 0.1]))
    with pytest.raises(ValueError):
        verify_duality(dual_system(swap2, bad))


def test_double_dual_parameters_return():
    sys_, state = faithful_random(222)
    assert sys_ is not None
    dual = dual_system(sys_, state)
    # the parameter system of the dual has rho invariant again; dualizing it
    # must return the original generators
    dsys = dual.parameter_system()
    ddual = dual_system(dsys, DensityState.from_matrix(state.rho))
    back = ddual.parameter_system()
    for v, w in zip(sys_.operators, back.operators):
        assert np.linalg.norm(v - w, 2) <= 1e-9


def test_compare_duals_swap(swap2):
    state = invariant_state(swap2)
    cmp_ = compare_duals(dual_system(swap2, state))
    assert cmp_.ergodic_match and cmp_.psp_match
    assert spectral_sets_match(cmp_.peripheral, [1.0, -1.0], 1e-9)
    assert spectral_sets_match(cmp_.dual_peripheral, [1.0, -1.0], 1e-9)


def test_compare_duals_scalar(scalar_half):
    state = invariant_state(scalar_half)
    cmp_ = compare_duals(dual_system(scalar_half, state))
    assert cmp_.ergodic_match and cmp_.psp_match
    assert spectral_sets_match(cmp_.peripheral, [1.0], 1e-9)


def test_compare_duals_non_ergodic_dephasing():
    sys_ = diagonal_dephasing()
    state = invariant_state(sys_)
    assert fixed_points(sys_).dim > 1
    cmp_ = compare_duals(dual_system(sys_, state))
    assert cmp_.ergodic_match and cmp_.psp_match


def test_compare_duals_random_batch():
    found = 0
    for seed in range(8):
        sys_, state = faithful_random(700 + seed)
        if sys_ is None:
            continue
        found += 1
        cmp_ = compare_duals(dual_system(sys_, state))
        assert cmp_.ergodic_match and cmp_.psp_match
    assert found >= 5


def test_compare_duals_reads_the_given_transfer_map(swap2):
    sys_, state = faithful_random(700)
    assert sys_ is not None
    form = real_transfer(sys_)
    dual = dual_system(sys_, invariant_state(form))
    assert compare_duals(dual, form=form) == compare_duals(dual)
    with pytest.raises(ValueError, match="dualized system"):
        compare_duals(dual, form=real_transfer(swap2))


def ill_conditioned(n: int, d: int = 2, seed: int = 0) -> tuple[PopescuSystem, DensityState]:
    """Diagonal phases conjugated by a random unitary Q, with the invariant
    state Q diag(geomspace(1e-7, 1, n)) Q* (normalized): cond(rho) = 1e7."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ops = [
        q @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ q.conj().T / np.sqrt(d)
        for _ in range(d)
    ]
    lam = np.geomspace(1e-7, 1.0, n)
    rho = q @ np.diag(lam / lam.sum()) @ q.conj().T
    return PopescuSystem.from_operators(ops), DensityState.from_matrix(rho)


@pytest.mark.parametrize("n", [2, 8, 16])
def test_ill_conditioned_state_keeps_every_residual_small(n):
    # the Kronecker route loses up to cond(rho) * eps in the double dual;
    # the n x n closed forms keep every residual at roundoff
    sys_, state = ill_conditioned(n)
    assert state.faithful
    assert np.linalg.cond(state.rho) >= 1e6
    dual = dual_system(sys_, state)
    assert dual.collapse <= 1e-9
    assert verify_duality(dual).max_residual() <= 1e-9


def _assert_matches_kron_oracle(system):
    state = invariant_state(system)
    if not state.faithful:
        with pytest.raises(ValueError, match="faithful"):
            dual_system(system, state)
        return
    dual = dual_system(system, state)
    got = {**asdict(verify_duality(dual)), "collapse": dual.collapse}
    oracle = kron_duality_residuals(system, state)
    assert got.keys() == oracle.keys()
    for key, want in oracle.items():
        assert abs(got[key] - want) <= 1e-12 or max(got[key], want) < 1e-12, key
    # the Frobenius norms over the matrix units bound the spectral norms
    assert dual.collapse >= oracle["collapse"]
    assert got["commutation"] >= oracle["commutation"]
    # the unit images are the columns of the composed n^2 x n^2 operator
    n = system.n
    for images, composed in zip(dual.unit_images, kron_dual_generators(system, state)):
        columns = images.swapaxes(1, 2).reshape(n * n, n * n).T
        assert np.linalg.norm(columns - composed, 2) <= 1e-12


def test_duality_residuals_match_kron_oracle(known_system):
    _assert_matches_kron_oracle(known_system)


def test_completeness_is_parameter_isometry(known_system):
    # sum_j R_{W_j} R_{W_j}* = R_{sum_j W_j* W_j}: one identity, one number;
    # the Kronecker route measures the two sides separately
    state = invariant_state(known_system)
    if not state.faithful:
        return
    rep = verify_duality(dual_system(known_system, state))
    assert rep.completeness == rep.parameter_isometry
    oracle = kron_duality_residuals(known_system, state)
    assert abs(oracle["completeness"] - oracle["parameter_isometry"]) <= 1e-12


@pytest.mark.parametrize(
    "n, seed", [(n, 900 + i) for i, n in enumerate((4, 6, 8, 8, 10, 12, 12, 14, 16, 16))]
)
def test_duality_residuals_match_kron_oracle_on_random_systems(n, seed):
    sys_ = random_system(2, n, seed)
    assert invariant_state(sys_).faithful
    _assert_matches_kron_oracle(sys_)


def test_dual_layer_makes_no_kron_call(monkeypatch):
    sys_ = random_system(2, 6, 31)
    state = invariant_state(sys_)

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    rep = verify_duality(dual_system(sys_, state))
    assert rep.max_residual() <= 1e-10
