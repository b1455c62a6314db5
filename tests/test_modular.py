import json
from dataclasses import asdict, replace

import numpy as np
import pytest

import fcstates.modular
from fcstates import (
    DensityState,
    NumericalHealthError,
    PopescuSystem,
    compare_duals,
    dual_system,
    fixed_points,
    gns,
    invariant_state,
    random_system,
    spectral_sets_match,
    verify_duality,
)

from fcstates.cli import main, system_to_json

from conftest import block_shift, direct_sum, eij
from oracles import kron_dual_generators, kron_duality_residuals, two_eig_compare_duals


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


def test_gns_reads_faithfulness_from_the_state():
    # a smallest eigenvalue of 1e-9 is above an absolute floor of 1e-10 but
    # below the relative 1e-8 of DensityState.from_matrix: not faithful
    state = DensityState.from_matrix(np.diag([1 - 1e-9, 1e-9]))
    assert not state.faithful
    with pytest.raises(ValueError, match="faithful"):
        gns(diagonal_dephasing(), state)


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
    # the two equivalent invariance residuals agree; completeness is the
    # parameter isometry residual ||sum_j W_j* W_j - I||
    assert abs(rep.completeness - rep.predual_invariance) <= 1e-12 + max(
        rep.completeness, rep.predual_invariance
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


def _assert_dual_matches(dual):
    # compare_duals returns only when the pair agrees; the match flags are
    # decided independently by the two-eigensolve oracle
    cmp_ = compare_duals(dual)
    oracle = two_eig_compare_duals(dual)
    assert oracle["ergodic_match"] and oracle["psp_match"]
    return cmp_, oracle


def test_compare_duals_swap(swap2):
    state = invariant_state(swap2)
    cmp_, oracle = _assert_dual_matches(dual_system(swap2, state))
    assert spectral_sets_match(cmp_.peripheral, [1.0, -1.0], 1e-9)
    assert spectral_sets_match(oracle["dual_peripheral"], [1.0, -1.0], 1e-9)


def test_compare_duals_scalar(scalar_half):
    state = invariant_state(scalar_half)
    cmp_, _ = _assert_dual_matches(dual_system(scalar_half, state))
    assert spectral_sets_match(cmp_.peripheral, [1.0], 1e-9)


def test_compare_duals_non_ergodic_dephasing():
    sys_ = diagonal_dephasing()
    state = invariant_state(sys_)
    assert fixed_points(sys_).dim > 1
    _assert_dual_matches(dual_system(sys_, state))


def test_compare_duals_random_batch():
    found = 0
    for seed in range(8):
        sys_, state = faithful_random(700 + seed)
        if sys_ is None:
            continue
        found += 1
        _assert_dual_matches(dual_system(sys_, state))
    assert found >= 5


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
    assert verify_duality(dual_system(sys_, state)).max_residual() <= 1e-9


def _assert_matches_kron_oracle(system):
    state = invariant_state(system)
    if not state.faithful:
        with pytest.raises(ValueError, match="faithful"):
            dual_system(system, state)
        return
    dual = dual_system(system, state)
    rep = verify_duality(dual)
    # the Kronecker compositions are right multiplications by the W_j of
    # dual_system, and commute with left multiplication, both to roundoff
    n = system.n
    for composed, w in zip(kron_dual_generators(system, state), dual.parameters):
        assert np.linalg.norm(composed - np.kron(w.T, np.eye(n)), 2) <= 1e-12
    oracle = kron_duality_residuals(system, state)
    assert oracle.pop("commutation") <= 1e-12
    # completeness is the parameter isometry residual; the CLI prints it under both keys
    got = {**asdict(rep), "parameter_isometry": rep.completeness}
    assert got.keys() == oracle.keys()
    for key, want in oracle.items():
        assert abs(got[key] - want) <= 1e-12 or max(got[key], want) < 1e-12, key


def test_duality_residuals_match_kron_oracle(known_system):
    _assert_matches_kron_oracle(known_system)


def test_completeness_is_parameter_isometry(known_system):
    # sum_j R_{W_j} R_{W_j}* = R_{sum_j W_j* W_j}: one identity, one number;
    # the Kronecker route measures the two sides separately
    state = invariant_state(known_system)
    if not state.faithful:
        return
    rep = verify_duality(dual_system(known_system, state))
    oracle = kron_duality_residuals(known_system, state)
    assert abs(oracle["completeness"] - oracle["parameter_isometry"]) <= 1e-12
    for key in ("completeness", "parameter_isometry"):
        assert abs(rep.completeness - oracle[key]) <= 1e-12, key


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


def _assert_matches_two_eig_oracle(system, state=None):
    state = invariant_state(system) if state is None else state
    if not state.faithful:
        return
    dual = dual_system(system, state)
    got, oracle = _assert_dual_matches(dual)
    assert spectral_sets_match(got.peripheral, oracle["peripheral"], 1e-8)
    # each system value moves to its conjugate in the dual
    moved = [z.conjugate() for z in got.peripheral]
    assert spectral_sets_match(moved, oracle["dual_peripheral"], 1e-8)
    # every moved eigenpair is an eigenpair of the dual's adjoint to roundoff
    assert got.similarity <= 1e-12


def test_compare_duals_matches_two_eig_oracle(known_system):
    _assert_matches_two_eig_oracle(known_system)


DUAL_FAMILIES = {
    "block_shift(3,2,3)": lambda: (block_shift(3, 2, 3, 71), None),
    "block_shift(4,3,2)": lambda: (block_shift(4, 3, 2, 72), None),
    "block_shift(6,2,2)": lambda: (block_shift(6, 2, 2, 73), None),
    **{f"ill_conditioned({n})": lambda n=n: ill_conditioned(n) for n in (2, 8, 16)},
    **{
        f"random n={n} d={d} seed={seed}": lambda d=d, n=n, seed=seed: (
            random_system(d, n, seed),
            None,
        )
        for seed, n, d in ((1900 + i, 2 + (7 * i) % 15, 2 + i % 2) for i in range(20))
    },
}


@pytest.mark.parametrize("make", DUAL_FAMILIES.values(), ids=DUAL_FAMILIES.keys())
def test_compare_duals_matches_two_eig_oracle_on_families(make):
    system, state = make()
    assert (state or invariant_state(system)).faithful
    _assert_matches_two_eig_oracle(system, state)


def test_compare_duals_rejects_a_corrupted_dual_parameter():
    # scaling W_0 breaks tau = Gamma^{-1} sigma_* Gamma; the moved eigenpairs
    # leave the dual's eigenspaces at the size of the corruption
    sys_, state = faithful_random(700)
    dual = dual_system(sys_, state)
    assert compare_duals(dual).similarity <= 1e-12
    bad = replace(dual, parameters=(1.001 * dual.parameters[0], *dual.parameters[1:]))
    with pytest.raises(NumericalHealthError, match="do not move to the dual"):
        compare_duals(bad)


def test_compare_duals_multiplicity_mismatch_aborts(monkeypatch, tmp_path, capsys):
    # the kernel of S - I, for the 1 x 1 Ritz matrix S, taken at a threshold
    # just below its singular value finds no fixed point, where eig puts the
    # value 1 on the circle; both sides would read the one peripheral
    # spectrum, so it must raise itself
    system = random_system(2, 4, 1)
    state = invariant_state(system)
    dual = dual_system(system, state)
    _assert_dual_matches(dual)
    original = fcstates.modular.peripheral_spectrum

    def at_boundary(system, tol, set_tol):
        ritz = system.transfer.ritz_matrix(tol)[1]
        smallest = np.linalg.svd(ritz - np.eye(ritz.shape[0]), compute_uv=False)[-1]
        return original(system, tol, 0.5 * smallest)

    monkeypatch.setattr(fcstates.modular, "peripheral_spectrum", at_boundary)
    with pytest.raises(NumericalHealthError, match="geometric 0, algebraic 1"):
        compare_duals(dual)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert main(["dual", str(path)]) == 3
    assert "geometric 0, algebraic 1" in capsys.readouterr().err


def test_compare_duals_moves_each_eigenvector_once(monkeypatch):
    # the values 1 and -1 each have multiplicity 2: every column of every
    # peripheral space moves once, as one stack of 4 independent matrices,
    # and no representative operator is formed
    system = direct_sum(block_shift(2, 2, 2, 5), block_shift(2, 2, 2, 6))
    dual = dual_system(system, invariant_state(system))
    peri = fcstates.peripheral_spectrum(system)
    assert [(round(p.value.real), p.multiplicity) for p in peri] == [(1, 2), (-1, 2)]

    def no_operator(self):
        raise AssertionError("PeripheralEigenvalue.operator formed")

    monkeypatch.setattr(fcstates.cpmap.PeripheralEigenvalue, "operator", property(no_operator))
    norm, stacks = np.linalg.norm, []

    def recorded(x, *args, **kwargs):
        if kwargs.get("axis") == (1, 2):
            stacks.append(np.asarray(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    got = compare_duals(dual)
    monkeypatch.undo()
    assert got.peripheral == tuple(p.value for p in peri)
    assert got.similarity <= 1e-12
    z = stacks[-1]  # the denominator ||Z||_F: the moved eigenvectors
    assert z.shape == (4, system.n, system.n)
    assert np.linalg.matrix_rank(z.reshape(4, -1), tol=1e-8) == 4
