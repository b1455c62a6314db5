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

from conftest import direct_sum, nonfaithful, pauli_channel


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


def test_k_equals_peripheral_cardinality(swap2, rank_one2):
    for sys_ in (swap2, rank_one2, random_system(2, 3, 77)):
        rep = classify_od(sys_)
        if rep.k is not None:
            assert rep.k == len(rep.peripheral)


def test_unimodular_jordan_block_aborts():
    from fcstates import NumericalHealthError, PeripheralEigenvalue
    from fcstates.classify import _check_semisimple

    fake = [PeripheralEigenvalue(1.0 + 0j, 1, np.eye(2), semisimple=False)]
    with pytest.raises(NumericalHealthError, match="Jordan"):
        _check_semisimple(fake, [])


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
    rep = classify_chain(cyclic_system(m), clustering_check=False)
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
    rep = classify_chain(pauli_channel(1e-6))
    assert rep.ergodic and rep.k == 1


@pytest.mark.parametrize(
    "make, calls",
    [
        (lambda: random_system(3, 5, 21), {"fixed_points": 1, "compress": 0, "invariant_state": 1}),
        (lambda: nonfaithful(2, 3, 2, 22), {"fixed_points": 2, "compress": 1, "invariant_state": 2}),
        (
            lambda: direct_sum(random_system(2, 2, 23), random_system(2, 3, 24)),
            {"fixed_points": 1, "compress": 0, "invariant_state": 1},
        ),
    ],
    ids=["random", "nonfaithful", "direct_sum"],
)
def test_classify_chain_computes_each_object_once(monkeypatch, make, calls):
    counts = dict.fromkeys(calls, 0)

    def counted(name):
        original = getattr(fcstates.classify, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fcstates.classify, name, counted(name))
    classify_chain(make())
    assert counts == calls
