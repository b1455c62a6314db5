import json

import numpy as np
import pytest

import fcstates.classify
from fcstates import (
    NumericalHealthError,
    PopescuSystem,
    classify_chain,
    classify_od,
    fixed_points,
    mixed_fixed_points,
    random_system,
    spectral_sets_match,
)
from fcstates.classify import HYPOTHESES_NOT_MET
from fcstates.cli import main, system_to_json

from conftest import ancilla, block_shift, conjugated, direct_sum, nonfaithful, pauli_channel, record_transfer_svds
from oracles import commutant_chain_verdicts


def test_classify_od_rank_one(rank_one2):
    rep = classify_od(rank_one2)
    assert rep.ergodic and rep.od_state_pure
    assert rep.invariant_state.rank == 1
    assert rep.compressed_ergodic
    assert rep.k == 1
    assert spectral_sets_match(rep.peripheral, [1.0], 1e-9)


def test_classify_od_swap(swap2):
    rep = classify_od(swap2)
    assert rep.ergodic
    assert rep.k == 2
    assert spectral_sets_match(rep.peripheral, [1.0, -1.0], 1e-9)


def test_classify_od_averaging(averaging3):
    rep = classify_od(averaging3)
    assert not rep.ergodic and not rep.od_state_pure
    assert rep.k is None
    assert any("informational" in note for note in rep.notes)


def test_purity_equals_ergodicity_everywhere(averaging3, rank_one2, swap2):
    systems = [averaging3, rank_one2, swap2] + [random_system(2, 3, s) for s in range(4)]
    for sys_ in systems:
        rep = classify_od(sys_)
        assert rep.od_state_pure == rep.ergodic


def test_k_one_iff_trivial_compressed_peripheral():
    systems = [random_system(2, n, s) for n in (2, 3) for s in (1, 5)]
    for sys_ in systems:
        rep = classify_od(sys_)
        if rep.k is None:
            continue
        trivial = spectral_sets_match(rep.peripheral, [1.0], 1e-8)
        assert (rep.k == 1) == trivial


def test_classify_chain_swap(swap2):
    rep = classify_chain(swap2)
    assert rep.chain_hypotheses.all_met()
    assert rep.chain_pure is False
    assert rep.chain_factor is False
    assert rep.k == 2


def test_classify_chain_scalar(scalar_half):
    rep = classify_chain(scalar_half)
    assert rep.chain_hypotheses.all_met()
    assert rep.chain_pure is True and rep.chain_factor is True


def test_classify_chain_rank_one_compresses(rank_one2):
    rep = classify_chain(rank_one2)
    assert any("compressed" in note for note in rep.notes)
    assert rep.chain_pure is True
    assert rep.k == 1


def test_classify_chain_averaging_hypotheses_fail(averaging3):
    rep = classify_chain(averaging3)
    assert rep.chain_pure == HYPOTHESES_NOT_MET
    assert rep.chain_factor is None
    assert not rep.chain_hypotheses.m_is_factor
    assert any("M_is_factor" in note for note in rep.notes)


def test_classify_chain_ancilla_degeneracy(swap2):
    # tensoring with an ancilla defines the same chain state but kills
    # ergodicity; the hypotheses still hold and the verdict is unchanged
    ops = [np.kron(v, np.eye(2)) for v in swap2.operators]
    big = PopescuSystem.from_operators(ops)
    rep = classify_chain(big)
    assert not rep.ergodic
    assert rep.k is None
    assert rep.chain_hypotheses.all_met()
    assert rep.chain_pure is False


def test_chain_pure_iff_k_one():
    systems = {
        "swap-like": PopescuSystem.from_operators(
            [np.array([[0, 1], [0, 0]], dtype=complex), np.array([[0, 0], [1, 0]], dtype=complex)]
        ),
        "r1": random_system(2, 2, 8),
        "r2": random_system(2, 3, 9),
        "r3": random_system(3, 2, 10),
    }
    for name, sys_ in systems.items():
        rep = classify_chain(sys_)
        if not rep.ergodic or rep.chain_pure == HYPOTHESES_NOT_MET:
            continue
        assert rep.chain_pure == (rep.k == 1), name


def test_self_intertwiner_dimension_matches_fixed(averaging3, swap2, rank_one2):
    for sys_ in (averaging3, swap2, rank_one2, random_system(2, 4, 2)):
        assert mixed_fixed_points(sys_, sys_).dim == fixed_points(sys_).dim


def test_report_is_deterministic(swap2):
    a = classify_chain(swap2)
    b = classify_chain(swap2)
    assert a.k == b.k and a.chain_pure == b.chain_pure and a.notes == b.notes
    assert np.array_equal(a.invariant_state.rho, b.invariant_state.rho)


@pytest.mark.parametrize("k, d, m", [(3, 2, 3), (4, 3, 2), (6, 2, 2)])
def test_block_shift_gauge_order_under_the_cap_at_n(k, d, m):
    # the phase snap is capped at n = k m, which still reaches every k <= n
    rep = classify_od(block_shift(k, d, m, 70 + k))
    assert rep.k == k


def test_k_equals_peripheral_cardinality(swap2, rank_one2):
    for sys_ in (swap2, rank_one2, random_system(2, 3, 77)):
        rep = classify_od(sys_)
        if rep.k is not None:
            assert rep.k == len(rep.peripheral)


def test_unimodular_jordan_block_aborts():
    from fcstates import NumericalHealthError, PeripheralEigenvalue
    from fcstates.cpmap import check_semisimple

    fake = [PeripheralEigenvalue(1.0 + 0j, 1, np.eye(2), semisimple=False)]
    with pytest.raises(NumericalHealthError, match="Jordan"):
        check_semisimple(fake)


def cyclic_system(m: int) -> PopescuSystem:
    """d = m generators V_i = e_{i, i+1 mod m}: ergodic with gauge order m."""
    ops = []
    for i in range(m):
        v = np.zeros((m, m), dtype=complex)
        v[i, (i + 1) % m] = 1.0
        ops.append(v)
    return PopescuSystem.from_operators(ops)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_cyclic_systems_have_gauge_order_m(m):
    rep = classify_chain(cyclic_system(m))
    assert rep.ergodic
    assert rep.k == m
    assert rep.chain_pure is False
    roots = [np.exp(2j * np.pi * l / m) for l in range(m)]
    assert spectral_sets_match(rep.peripheral, roots, 1e-9)


def test_multiplicity_mismatch_at_the_tolerance_boundary_aborts():
    # at p = 3e-9 the kernel counts 4 fixed points while eig places one
    # eigenvalue on the circle: the verdict must fail, not read "not ergodic"
    with pytest.raises(NumericalHealthError, match="geometric 4, algebraic 1"):
        classify_chain(pauli_channel(3e-9))
    # a kernel threshold below roundoff finds no fixed point, where eig puts
    # the value 1 on the circle
    with pytest.raises(NumericalHealthError, match="geometric 0, algebraic 1"):
        classify_chain(random_system(2, 4, 1), tol=1e-18)
    rep = classify_chain(pauli_channel(1e-6))
    assert rep.ergodic and rep.k == 1


def _compressed_kernel_at_the_boundary(system):
    # the compressed map's fixed-point kernel is taken at a threshold just
    # above its second singular value, as when that value sits at tol
    original = fcstates.classify.fixed_points

    def at_boundary(form, tol):
        if form.n < system.n:
            tol = 2.0 * np.linalg.svd(form.shifted(1.0), compute_uv=False)[-2]
        return original(form, tol)

    return "fixed_points", at_boundary


def _commutant_kernel_at_the_boundary(system):
    # M' is solved inside the fixed space at a threshold below roundoff
    original = fcstates.classify.commutant

    def at_boundary(generators, tol, within=None):
        return original(generators, 1e-30 if within is not None else tol, within)

    return "commutant", at_boundary


@pytest.mark.parametrize(
    "make, boundary, message",
    [
        (
            lambda: nonfaithful(2, 3, 2, 22),
            _compressed_kernel_at_the_boundary,
            "compression keeps ergodicity",
        ),
        (
            lambda: direct_sum(random_system(2, 2, 23), random_system(2, 3, 24)),
            _commutant_kernel_at_the_boundary,
            "smaller than the fixed space",
        ),
    ],
    ids=["lost_ergodicity", "commutant_below_fixed_space"],
)
def test_unreachable_chain_outcomes_abort(monkeypatch, tmp_path, capsys, make, boundary, message):
    # an ergodic map stays ergodic under compression, and Fix(sigma) = M'
    # under a faithful state: either outcome is a kernel at the tolerance
    # boundary, so classification aborts, and analyze exits 3
    system = make()
    rep = classify_chain(system)
    assert rep.chain_hypotheses.fixed_equals_m_prime
    monkeypatch.setattr(fcstates.classify, *boundary(system))
    with pytest.raises(NumericalHealthError, match=message):
        classify_chain(system)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert main(["analyze", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert message in doc["notes"][0]


def _assert_chain_verdicts_match_oracle(system):
    rep = classify_chain(system)
    hyp, pure, factor = commutant_chain_verdicts(system)
    assert rep.chain_hypotheses == hyp
    assert rep.chain_pure == pure
    assert rep.chain_factor == factor


def test_chain_verdicts_match_commutant_oracle(known_system):
    _assert_chain_verdicts_match_oracle(known_system)


def A():
    return random_system(2, 3, 1)


def B():
    return random_system(2, 2, 2)


# systems off the ergodic path at n <= 12: (make, M is a factor, chain pure)
OFF_ERGODIC = {
    "A+UAU*": (lambda: direct_sum(A(), conjugated(A(), 91)), True, True),
    "random(2,4,5)xI3": (lambda: ancilla(random_system(2, 4, 5), 3), True, True),
    # one block whose sigma has the cube roots of unity on the circle
    "block_shift(3,2,2)xI2": (lambda: ancilla(block_shift(3, 2, 2, 7), 2), True, False),
    "block_shift(3,2,3)+A": (lambda: direct_sum(block_shift(3, 2, 3, 7), A()), False, None),
    "(A+B)xI2": (lambda: ancilla(direct_sum(A(), B()), 2), False, None),
    "nonfaithful(2,3,2)xI2": (lambda: ancilla(nonfaithful(2, 3, 2, 22), 2), True, True),
    "nonfaithful(2,3,2)+A": (lambda: direct_sum(nonfaithful(2, 3, 2, 22), A()), False, None),
    "S+USU*": (
        lambda: direct_sum(block_shift(2, 2, 3, 11), conjugated(block_shift(2, 2, 3, 11), 92)),
        True,
        False,
    ),
}


@pytest.mark.parametrize("make, factor, pure", OFF_ERGODIC.values(), ids=OFF_ERGODIC.keys())
def test_off_ergodic_chain_verdicts(make, factor, pure):
    rep = classify_chain(make())
    assert not rep.ergodic
    assert rep.chain_hypotheses.m_is_factor is factor
    assert rep.chain_pure == (pure if factor else HYPOTHESES_NOT_MET)
    assert rep.chain_factor is (pure if factor else None)


ORACLE_FAMILIES = {
    **{name: make for name, (make, _, _) in OFF_ERGODIC.items()},
    "block_shift(3,2,3)": lambda: block_shift(3, 2, 3, 71),
    "block_shift(4,3,2)": lambda: block_shift(4, 3, 2, 72),
    "block_shift(6,2,2)": lambda: block_shift(6, 2, 2, 73),
    "nonfaithful": lambda: nonfaithful(2, 3, 2, 22),
    "pauli_channel(1e-6)": lambda: pauli_channel(1e-6),
    **{
        f"random n={n} d={d} seed={seed}": lambda d=d, n=n, seed=seed: random_system(d, n, seed)
        for seed, n, d in ((800 + i, (4, 9, 16)[i % 3], 2 + (i // 3) % 3) for i in range(20))
    },
}


@pytest.mark.parametrize("make", ORACLE_FAMILIES.values(), ids=ORACLE_FAMILIES.keys())
def test_chain_verdicts_match_commutant_oracle_on_families(make):
    _assert_chain_verdicts_match_oracle(make())


@pytest.mark.parametrize(
    "make, calls",
    [
        (
            lambda: random_system(3, 5, 21),
            {"fixed_points": 1, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 0, "eig": 1, "kernel": 0, "svd_values": 1, "svd_vectors": 0},
        ),
        (
            lambda: nonfaithful(2, 3, 2, 22),
            {"fixed_points": 2, "compress": 1, "invariant_state": 2, "sigma_matrix": 2,
             "commutant": 0, "eig": 1, "kernel": 0, "svd_values": 2, "svd_vectors": 0},
        ),
        (
            lambda: direct_sum(random_system(2, 2, 23), random_system(2, 3, 24)),
            {"fixed_points": 1, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 2, "eig": 1, "kernel": 2, "svd_values": 1, "svd_vectors": 1},
        ),
        (
            lambda: ancilla(random_system(2, 2, 63), 3),
            {"fixed_points": 1, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 2, "eig": 1, "kernel": 2, "svd_values": 1, "svd_vectors": 1},
        ),
    ],
    ids=["random", "nonfaithful", "direct_sum", "ancilla"],
)
def test_classify_chain_computes_each_object_once(monkeypatch, make, calls):
    # sigma_matrix, commutant, eig and kernel are counted where cpmap calls
    # them, the other stages (and commutant and eig again) where classify
    # does. Off the ergodic path the two
    # commutants are M' inside the fixed space and the centre of M' inside
    # M', and purity reads the one eig already taken: no commutant is solved
    # over all of M_n. svd_values and svd_vectors count the SVDs of
    # sigma_r - I or its transpose, for every sigma_r that classify builds,
    # by whatever route they are taken, without and with singular vectors. An
    # ergodic map takes no singular vector; a map with f > 1 (the direct sum,
    # the ancilla) pays one values-only SVD on top of the full one, at most
    # 0.7 ms at n <= 12 (1 BLAS thread).
    counts = dict.fromkeys(calls, 0)
    unrestricted = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "commutant" and len(args) < 3 and kwargs.get("within") is None:
                unrestricted.append(module.__name__)
            return original(*args, **kwargs)

        return wrapper

    for name in ("fixed_points", "compress", "invariant_state", "commutant", "eig"):
        monkeypatch.setattr(fcstates.classify, name, counted(fcstates.classify, name))
    for name in ("sigma_matrix", "commutant", "eig", "kernel"):
        monkeypatch.setattr(fcstates.cpmap, name, counted(fcstates.cpmap, name))
    flags = record_transfer_svds(monkeypatch, fcstates.classify)
    classify_chain(make())
    counts["svd_values"], counts["svd_vectors"] = flags.count(False), flags.count(True)
    assert counts == calls
    assert unrestricted == []
