"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest``; the per-criterion lines are written to the real
terminal so they are visible regardless of capture settings.
"""

import json
import sys
import time

import numpy as np
import pytest

from fcstates import (
    LocalObservable,
    build,
    classify_chain,
    clustering_defect,
    commutant,
    compare_duals,
    cuntz_residuals,
    dilation_moments,
    dual_system,
    expectation,
    fixed_points,
    invariant_state,
    mixed_fixed_points,
    moment_checks,
    moment_psd_with_D,
    moments,
    peripheral_eigenunitary,
    peripheral_spectrum,
    random_system,
    sigma_matrix,
    spectral_sets_match,
    v_word,
    verify_duality,
    words_up_to,
)
from fcstates.cli import main, system_to_json

from conftest import eij
from oracles import apply_map, is_algebra, two_eig_compare_duals


@pytest.fixture(autouse=True)
def _announcer(capfd):
    # bypass pytest's fd-level capture so the verdict lines always show
    global _report
    def _report(num: int, name: str, failures: list) -> None:
        verdict = "PASS" if not failures else "FAIL"
        with capfd.disabled():
            print(f"[ACCEPTANCE] criterion {num} ({name}): {verdict}")
            sys.stdout.flush()
        assert not failures, f"criterion {num}: {failures}"
    yield


def announce(num: int, name: str, failures: list) -> None:
    _report(num, name, failures)


def _suite_systems():
    # 25 random systems with d <= 3, n <= 4, deterministic seeds
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 1), (3, 1)]
    out = []
    for k in range(25):
        d, n = shapes[k % len(shapes)]
        out.append(random_system(d, n, 1000 + k))
    return out


@pytest.fixture(scope="module")
def suite25():
    return _suite_systems()


@pytest.fixture(scope="module")
def faithful50():
    # rejection sampling: keep systems whose Cesaro state is faithful
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
    found = []
    seed = 0
    while len(found) < 50 and seed < 500:
        d, n = shapes[seed % len(shapes)]
        sys_ = random_system(d, n, 2000 + seed)
        state = invariant_state(sys_)
        if state.faithful:
            found.append((sys_, state))
        seed += 1
    assert len(found) == 50
    return found


def test_criterion_1_averaging_example(averaging3):
    failures = []
    fx = fixed_points(averaging3)
    if fx.dim != 2:
        failures.append(f"fixed dim {fx.dim} != 2")
    if is_algebra(fx):
        failures.append("fixed set reported as an algebra")
    if commutant(averaging3.operators).dim != 1:
        failures.append("commutant dim != 1")
    rng = np.random.default_rng(0)
    sop = sigma_matrix(averaging3)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = np.diag([x[0, 0], x[1, 1], 0.5 * (x[0, 0] + x[1, 1])])
        if np.max(np.abs(apply_map(sop, x) - expected)) > 1e-12:
            failures.append("transfer action deviates from the diagonal form")
            break
    state = invariant_state(averaging3)
    if np.linalg.norm(state.rho - np.diag([0.5, 0.5, 0.0]), 2) > 1e-10:
        failures.append("Cesaro state != diag(1/2, 1/2, 0)")
    if state.rank != 2:
        failures.append(f"support rank {state.rank} != 2")
    announce(1, "three-dimensional averaging example", failures)


def test_criterion_2_rank_one_example(rank_one2):
    failures = []
    rep = classify_chain(rank_one2)
    if not rep.ergodic:
        failures.append("not ergodic")
    if np.linalg.norm(rep.invariant_state.rho - eij(0, 0, 2), 2) > 1e-10:
        failures.append("invariant state != e11")
    if rep.k != 1:
        failures.append(f"k {rep.k} != 1")
    if rep.chain_pure is not True:
        failures.append(f"chain_pure {rep.chain_pure!r} != True")
    omega = np.array([1.0, 0.0])
    via_dilation = dilation_moments(build(rank_one2, 4), omega, 4)
    worst = 0.0
    for wi in words_up_to(2, 4):
        for wj in words_up_to(2, 4):
            target = (v_word(rank_one2, wi) @ v_word(rank_one2, wj).conj().T)[0, 0]
            worst = max(worst, abs(via_dilation.value(wi, wj) - target))
    if worst > 1e-10:
        failures.append(f"dilation moments deviate from (V_I V_J*)_11 by {worst:.2e}")
    announce(2, "rank-one example", failures)


def test_criterion_3_swap_example(swap2):
    failures = []
    peri = [p.value for p in peripheral_spectrum(swap2, tol=1e-9)]
    if not spectral_sets_match(peri, [1.0, -1.0], 1e-9):
        failures.append(f"peripheral set {peri} != {{1, -1}}")
    rep = classify_chain(swap2)
    if rep.k != 2:
        failures.append(f"k {rep.k} != 2")
    state = invariant_state(swap2)
    u = peripheral_eigenunitary(swap2, state, -1.0)
    cov = max(np.linalg.norm(u @ v @ u.conj().T + v, 2) for v in swap2.operators)
    if cov > 1e-10:
        failures.append(f"eigenunitary covariance residual {cov:.2e}")
    if rep.chain_pure is not False:
        failures.append(f"chain_pure {rep.chain_pure!r} != False")
    e11, e22 = eij(0, 0, 2), eij(1, 1, 2)
    one_site = LocalObservable(1, (e11,))
    defects = clustering_defect(swap2, state, one_site, one_site, n_max=50).defects
    if any(abs(defects[n] - 0.25) > 1e-10 for n in range(1, 51)):
        failures.append("clustering defect deviates from 1/4")
    val = expectation(swap2, state, LocalObservable(1, (e11, e11)))
    if abs(val) > 1e-12:
        failures.append(f"omega(e11 x e11) = {val} != 0")
    val = expectation(swap2, state, LocalObservable(1, (e11, e22)))
    if abs(val - 0.5) > 1e-12:
        failures.append(f"omega(e11 x e22) = {val} != 1/2")
    announce(3, "swap example", failures)


def test_criterion_4_moment_structure(suite25):
    failures = []
    for idx, sys_ in enumerate(suite25):
        sources = [invariant_state(sys_)]
        rng = np.random.default_rng(idx)
        omega = rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n)
        sources.append(omega / np.linalg.norm(omega))
        for source in sources:
            table = moments(sys_, source, 4)
            checks = moment_checks(table, sys_)
            if checks.recursion_residual > 1e-10:
                failures.append(f"system {idx}: recursion {checks.recursion_residual:.2e}")
            if checks.psd_min_eig < -1e-9:
                failures.append(f"system {idx}: Gram min eig {checks.psd_min_eig:.2e}")
    announce(4, "moment structure on 25 random systems", failures)


def test_criterion_5_dilation_suite(suite25):
    failures = []
    for idx, sys_ in enumerate(suite25):
        dil = build(sys_, 4)
        res = cuntz_residuals(dil)
        if max(res.isometry_residual, res.completeness_residual) > 1e-9:
            failures.append(f"system {idx}: residuals {res}")
        emb = dil.base_embedding
        comp = max(
            np.linalg.norm(emb.conj().T @ dil.apply_adjoint(i, emb) - v.conj().T, 2)
            for i, v in enumerate(sys_.operators)
        )
        if comp > 1e-10:
            failures.append(f"system {idx}: adjoint compression {comp:.2e}")
        rng = np.random.default_rng(100 + idx)
        omega = rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n)
        omega /= np.linalg.norm(omega)
        direct = moments(sys_, omega, 3)
        via_dil = dilation_moments(dil, omega, 3)
        dev = float(np.max(np.abs(direct.values - via_dil.values)))
        if dev > 1e-10:
            failures.append(f"system {idx}: dilation/moment deviation {dev:.2e}")
    announce(5, "level-4 dilation suite on 25 random systems", failures)


def test_criterion_6_commutant_lifting(suite25, swap2, rank_one2, averaging3):
    failures = []
    for idx, sys_ in enumerate([swap2, rank_one2, averaging3] + suite25):
        if mixed_fixed_points(sys_, sys_).dim != fixed_points(sys_).dim:
            failures.append(f"system {idx}: self-intertwiner dim != fixed dim")
    if mixed_fixed_points(swap2, rank_one2).dim != 0:
        failures.append("swap/rank-one intertwiner space not trivial")
    check = moment_psd_with_D(
        averaging3, np.array([1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.5]), 3
    )
    if not (check.psd and check.dominated):
        failures.append(f"domination check failed: {check}")
    announce(6, "commutant-lifting dimensional checks", failures)


def test_criterion_7_duality_suite(faithful50):
    failures = []
    for idx, (sys_, state) in enumerate(faithful50):
        dual = dual_system(sys_, state)
        rep = verify_duality(dual)
        if rep.completeness > 1e-9:
            failures.append(f"seed {idx}: completeness {rep.completeness:.2e}")
        if rep.double_dual > 1e-8:
            failures.append(f"seed {idx}: double dual {rep.double_dual:.2e}")
        if rep.dual_invariance > 1e-10:
            failures.append(f"seed {idx}: dual invariance {rep.dual_invariance:.2e}")
        if rep.vector_consistency > 1e-10:
            failures.append(f"seed {idx}: vector consistency {rep.vector_consistency:.2e}")
        # compare_duals raises unless the pair agrees; the two-eigensolve
        # oracle decides the match flags on its own
        compare_duals(dual, tol=1e-8)
        oracle = two_eig_compare_duals(dual, tol=1e-8)
        if not oracle["ergodic_match"]:
            failures.append(f"seed {idx}: ergodicity flags disagree")
        if not oracle["psp_match"]:
            failures.append(f"seed {idx}: peripheral sets disagree")
    announce(7, "duality suite on 50 faithful systems", failures)


def _unit_obs(d: int, i: int, j: int) -> LocalObservable:
    return LocalObservable(1, (eij(i, j, d),))


def _tail_max(defects, width: int = 10) -> float:
    width = min(width, max(1, len(defects) - 1))
    return max(defects[-width:])


def test_criterion_8_cross_consistency(suite25, swap2, rank_one2, scalar_half):
    failures = []
    systems = [swap2, rank_one2, scalar_half] + suite25
    for idx, sys_ in enumerate(systems):
        rep = classify_chain(sys_)
        if not rep.ergodic or not isinstance(rep.chain_pure, bool):
            continue
        if (rep.k == 1) != rep.chain_pure:
            failures.append(f"system {idx}: k = {rep.k} vs chain_pure = {rep.chain_pure}")
        state = invariant_state(sys_)
        n_max = 50 * sys_.n**2
        d = sys_.d
        if rep.chain_pure:
            rng = np.random.default_rng(idx)
            for _ in range(3):
                i, j = rng.integers(d, size=2)
                k, l = rng.integers(d, size=2)
                defs = clustering_defect(
                    sys_, state, _unit_obs(d, i, j), _unit_obs(d, k, l), n_max
                ).defects
                if _tail_max(defs) >= 1e-6:
                    failures.append(
                        f"system {idx}: pure but defect for units "
                        f"({i},{j}),({k},{l}) stuck at {_tail_max(defs):.2e}"
                    )
        else:
            persistent = False
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        for l in range(d):
                            defs = clustering_defect(
                                sys_, state, _unit_obs(d, i, j), _unit_obs(d, k, l), n_max
                            ).defects
                            if _tail_max(defs) >= 1e-6:
                                persistent = True
            if not persistent:
                failures.append(f"system {idx}: non-pure but every matrix-unit pair clusters")
    announce(8, "gauge order / purity / clustering consistency", failures)


def test_criterion_9_performance(tmp_path, capfd):
    failures = []
    system = random_system(4, 16, 1)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(system_to_json(system)))
    start = time.perf_counter()
    code = main(["analyze", str(path)])
    elapsed = time.perf_counter() - start
    capfd.readouterr()
    if code != 0:
        failures.append(f"analyze exited with {code}")
    if elapsed >= 10.0:
        failures.append(f"analyze took {elapsed:.1f}s >= 10s")
    announce(9, f"performance n=16 d=4 ({elapsed:.1f}s)", failures)
