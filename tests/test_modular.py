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
    spectral_sets_match,
    unvec,
    vec,
    verify_duality,
)

from conftest import eij


def diagonal_dephasing() -> PopescuSystem:
    """Mixture of identity and diag(1,-1) conjugation; every diagonal
    density matrix is invariant, so faithful non-tracial states exist."""
    z = np.diag([1.0, -1.0]).astype(complex)
    return PopescuSystem.from_operators([np.eye(2) / np.sqrt(2), z / np.sqrt(2)])


def faithful_random(seed: int, d: int = 2, n: int = 3):
    sys_ = random_system(d, n, seed)
    state = invariant_state(sys_)
    return (sys_, state) if state.faithful else (None, None)


def test_gns_swap_tracial(swap2):
    state = invariant_state(swap2)
    md = gns(swap2, state)
    assert np.allclose(md.phi_vector, np.eye(2) / np.sqrt(2), atol=1e-12)
    assert np.linalg.norm(md.delta_half - np.eye(4), 2) <= 1e-12


def test_gns_delta_action_on_offdiagonal():
    sys_ = diagonal_dephasing()
    p = 0.3
    state = DensityState.from_matrix(np.diag([p, 1 - p]))
    md = gns(sys_, state)
    delta = md.delta_half @ md.delta_half
    out = unvec(delta @ vec(eij(0, 1, 2)), (2, 2))
    assert abs(out[0, 1] - p / (1 - p)) <= 1e-12
    assert abs(out[0, 0]) + abs(out[1, 0]) + abs(out[1, 1]) <= 1e-12


def test_gns_tomita_identities():
    sys_, state = faithful_random(101)
    assert sys_ is not None
    md = gns(sys_, state)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = vec(x)
    # J^2 = 1
    assert np.linalg.norm(md.apply_j(md.apply_j(v)) - v) <= 1e-12
    # J Delta J = Delta^{-1}
    delta = md.delta_half @ md.delta_half
    delta_inv = md.delta_minus_half @ md.delta_minus_half
    assert np.linalg.norm(md.conjugate_by_j(delta) - delta_inv, 2) <= 1e-10
    # S(X Phi) = X* Phi with S = J Delta^{1/2}
    s_of = md.apply_j(md.delta_half @ vec(x @ md.phi_vector))
    assert np.linalg.norm(s_of - vec(x.conj().T @ md.phi_vector)) <= 1e-10


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
    rep = verify_duality(swap2, state)
    assert rep.max_residual() <= 1e-12


def test_verify_duality_random():
    sys_, state = faithful_random(321)
    assert sys_ is not None
    rep = verify_duality(sys_, state)
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
        verify_duality(swap2, bad)


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
    cmp_ = compare_duals(swap2, state)
    assert cmp_.ergodic_match and cmp_.psp_match
    assert spectral_sets_match(cmp_.peripheral, [1.0, -1.0], 1e-9)
    assert spectral_sets_match(cmp_.dual_peripheral, [1.0, -1.0], 1e-9)


def test_compare_duals_scalar(scalar_half):
    state = invariant_state(scalar_half)
    cmp_ = compare_duals(scalar_half, state)
    assert cmp_.ergodic_match and cmp_.psp_match
    assert spectral_sets_match(cmp_.peripheral, [1.0], 1e-9)


def test_compare_duals_non_ergodic_dephasing():
    sys_ = diagonal_dephasing()
    state = invariant_state(sys_)
    assert fixed_points(sys_).dim > 1
    cmp_ = compare_duals(sys_, state)
    assert cmp_.ergodic_match and cmp_.psp_match


def test_compare_duals_random_batch():
    found = 0
    for seed in range(8):
        sys_, state = faithful_random(700 + seed)
        if sys_ is None:
            continue
        found += 1
        cmp_ = compare_duals(sys_, state)
        assert cmp_.ergodic_match and cmp_.psp_match
    assert found >= 5
