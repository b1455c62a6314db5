import json
import re

import numpy as np
import pytest

import fcstates.classify
import fcstates.cpmap
from fcstates import (
    EigenDecomposition,
    NumericalHealthError,
    PopescuSystem,
    classify_chain,
    classify_od,
    commutant,
    fixed_points,
    invariant_state,
    mixed_fixed_points,
    peripheral_spectrum,
    random_system,
    spectral_sets_match,
    validate,
)
from fcstates.classify import HYPOTHESES_NOT_MET
from fcstates.cpmap import OperatorSubspace
from fcstates.popescu import compress
from fcstates.cli import main, report_to_json, system_to_json

from conftest import (
    ancilla,
    assert_fixed_kernels_match_svd_route,
    assert_peripheral_spectrum_matches_kernel_oracle,
    block_shift,
    conjugated,
    direct_sum,
    nonfaithful,
    pauli_channel,
    permutative_cycles,
    record_kernels,
    record_transfer_factorizations,
)
from oracles import (
    commutant_chain_verdicts,
    kernel_peripheral_spectrum,
    svd_fixed_kernels,
    vec_commutant,
)


ALL_HYPOTHESES_MET = {"M_is_factor": True, "fixed_equals_M_prime": True, "phi_faithful": True}


def analyze_json(system, tmp_path, capsys) -> dict:
    """The JSON document that ``fcstates analyze`` prints for the system."""
    path = tmp_path / "analyzed.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert main(["analyze", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_classify_od_rank_one(rank_one2, tmp_path, capsys):
    rep = classify_od(rank_one2)
    assert rep.ergodic
    assert rep.invariant_state.rank == 1
    assert rep.k == 1
    doc = analyze_json(rank_one2, tmp_path, capsys)
    assert doc["od_state_pure"] is True and doc["compressed_ergodic"] is True
    assert spectral_sets_match(rep.peripheral, [1.0], 1e-9)


def test_classify_od_swap(swap2):
    rep = classify_od(swap2)
    assert rep.ergodic
    assert rep.k == 2
    assert spectral_sets_match(rep.peripheral, [1.0, -1.0], 1e-9)


def test_classify_od_averaging(averaging3, tmp_path, capsys):
    rep = classify_od(averaging3)
    assert not rep.ergodic
    assert rep.k is None
    doc = analyze_json(averaging3, tmp_path, capsys)
    assert doc["od_state_pure"] is False and doc["compressed_ergodic"] is None
    assert any("informational" in note for note in rep.notes)


def test_purity_equals_ergodicity_everywhere(averaging3, rank_one2, swap2, tmp_path, capsys):
    systems = [averaging3, rank_one2, swap2] + [random_system(2, 3, s) for s in range(4)]
    for sys_ in systems:
        doc = analyze_json(sys_, tmp_path, capsys)
        assert doc["od_state_pure"] is doc["ergodic"] is classify_od(sys_).ergodic


def test_k_one_iff_trivial_compressed_peripheral():
    systems = [random_system(2, n, s) for n in (2, 3) for s in (1, 5)]
    for sys_ in systems:
        rep = classify_od(sys_)
        if rep.k is None:
            continue
        trivial = spectral_sets_match(rep.peripheral, [1.0], 1e-8)
        assert (rep.k == 1) == trivial


def test_classify_chain_swap(swap2, tmp_path, capsys):
    rep = classify_chain(swap2)
    assert rep.m_is_factor is True
    assert rep.chain_pure is False
    assert rep.k == 2
    doc = analyze_json(swap2, tmp_path, capsys)
    assert doc["chain_hypotheses"] == ALL_HYPOTHESES_MET
    assert doc["chain_factor"] is False


def test_classify_chain_scalar(scalar_half, tmp_path, capsys):
    rep = classify_chain(scalar_half)
    assert rep.m_is_factor is True
    assert rep.chain_pure is True
    doc = analyze_json(scalar_half, tmp_path, capsys)
    assert doc["chain_hypotheses"] == ALL_HYPOTHESES_MET
    assert doc["chain_pure"] is True and doc["chain_factor"] is True


def test_classify_chain_rank_one_compresses(rank_one2):
    rep = classify_chain(rank_one2)
    note = "invariant state has rank 1 < 2; verdicts after ergodicity are read on its support"
    assert note in rep.notes
    assert rep.chain_pure is True
    assert rep.k == 1


def test_classify_chain_averaging_hypotheses_fail(averaging3, tmp_path, capsys):
    rep = classify_chain(averaging3)
    assert rep.chain_pure == HYPOTHESES_NOT_MET
    assert rep.m_is_factor is False
    doc = analyze_json(averaging3, tmp_path, capsys)
    assert doc["chain_factor"] is None
    assert doc["chain_hypotheses"] == {**ALL_HYPOTHESES_MET, "M_is_factor": False}
    assert any("M_is_factor" in note for note in rep.notes)


def test_classify_chain_ancilla_degeneracy(swap2, tmp_path, capsys):
    # tensoring with an ancilla defines the same chain state but kills
    # ergodicity; the hypotheses still hold and the verdict is unchanged
    ops = [np.kron(v, np.eye(2)) for v in swap2.operators]
    big = PopescuSystem.from_operators(ops)
    rep = classify_chain(big)
    assert not rep.ergodic
    assert rep.k is None
    assert rep.m_is_factor is True
    assert rep.chain_pure is False
    assert analyze_json(big, tmp_path, capsys)["chain_hypotheses"] == ALL_HYPOTHESES_MET


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


def test_unimodular_jordan_block_aborts(monkeypatch, swap2):
    # eig is made to place both values of the swap on the circle, 1 and -1,
    # at 1, as a Jordan block at 1 would: a cluster of two beside the
    # one-dimensional kernel of S - I
    original = fcstates.cpmap.eig

    def jordan(a):
        dec = original(a)
        vals = dec.eigenvalues.astype(complex)
        vals[np.abs(np.abs(vals) - 1.0) <= 1e-9] = 1.0
        return EigenDecomposition(vals, dec.eigenvectors, dec.residual)

    monkeypatch.setattr(fcstates.cpmap, "eig", jordan)
    with pytest.raises(NumericalHealthError, match="geometric 1, algebraic 2.*Jordan"):
        classify_chain(swap2)


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


PERMUTATIVE = [
    (big_n, cycle, system)
    for big_n in range(3, 32, 2)
    for cycle, system in permutative_cycles(big_n)
]
# the cycles whose sigma has a nilpotent part that leaves the first sampled
# P U_p of lower rank than its gap (rank sigma^2 = 6, rank sigma^4 = 4 at
# N = 15, cycle -7), named by N and their largest element
NILPOTENT_GAPS = [(7, -1), (7, -3), (15, -1), (15, -7), (21, -3), (21, -9), (31, -3), (31, -7)]


@pytest.mark.parametrize(
    "big_n, cycle, system",
    PERMUTATIVE,
    ids=[f"N={big_n}:{cycle[0]}" for big_n, cycle, _ in PERMUTATIVE],
)
def test_permutative_cycles_have_gauge_order_their_length(big_n, cycle, system):
    # 64 systems at n <= 28, each ergodic with k the length of its cycle
    rep = classify_chain(system)
    assert rep.ergodic and rep.k == len(cycle)
    assert rep.m_is_factor is True
    assert rep.chain_pure is (len(cycle) == 1)


@pytest.mark.parametrize("big_n, start", NILPOTENT_GAPS, ids=[f"N={a}:{b}" for a, b in NILPOTENT_GAPS])
def test_a_gap_made_by_a_nilpotent_part_is_squared_past(big_n, start):
    (system,) = [system for cycle, system in permutative_cycles(big_n) if cycle[0] == start]
    form = system.transfer
    assert np.linalg.matrix_rank(form.matrix) < form.matrix.shape[0]
    assert_fixed_kernels_match_svd_route(system)
    assert_peripheral_spectrum_matches_kernel_oracle(system)


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


def _compressed_kernel_short_of_the_boundary(monkeypatch, system):
    # the compression's fixed space, read from Fix(sigma) as B* Fix(sigma) B,
    # is read one direction short, as a QR that loses rank would leave it
    original = OperatorSubspace.compressed

    def at_boundary(fixed, carrier):
        within = original(fixed, carrier)
        return OperatorSubspace(within.basis[:-1], within.shape)

    monkeypatch.setattr(OperatorSubspace, "compressed", at_boundary)


def _commutant_kernel_at_the_boundary(monkeypatch, system):
    # M' is solved inside the fixed space at a threshold below roundoff
    original = fcstates.classify.commutant

    def at_boundary(generators, tol, within=None):
        return original(generators, 1e-30 if within is not None else tol, within)

    monkeypatch.setattr(fcstates.classify, "commutant", at_boundary)


def _peripheral_value_doubled(monkeypatch, system):
    # eig is made to place its eigenvalue farthest from t = e^{2 pi i/3} at t
    # as well, so that value's cluster has two members; eig solves the Ritz
    # matrix, whose eigenvalues here are the three on the circle
    original = fcstates.cpmap.eig
    t = np.exp(2j * np.pi / 3)

    def doubled(a):
        dec = original(a)
        vals = dec.eigenvalues.astype(complex)
        vals[np.argmax(np.abs(vals - t))] = vals[np.argmin(np.abs(vals - t))]
        return EigenDecomposition(vals, dec.eigenvectors, dec.residual)

    monkeypatch.setattr(fcstates.cpmap, "eig", doubled)


def _peripheral_value_doubled_in_the_kernel_too(monkeypatch, system):
    # as above, and the kernel of S - t (the one complex kernel left) reads
    # its two least right singular directions, so that the eigenspace
    # matches its cluster of two
    _peripheral_value_doubled(monkeypatch, system)
    original = fcstates.cpmap.kernel

    def widened(a, tol, scale):
        if np.iscomplexobj(a):
            return np.linalg.svd(a)[2][-2:].conj().T
        return original(a, tol, scale=scale)

    monkeypatch.setattr(fcstates.cpmap, "kernel", widened)


@pytest.mark.parametrize(
    "make, boundary, message",
    [
        (
            lambda: ancilla(nonfaithful(2, 3, 2, 22), 2),
            _compressed_kernel_short_of_the_boundary,
            "commutant of the operators on the support of the state \\(3-dimensional\\) "
            "differs from the fixed space of sigma \\(4-dimensional\\)",
        ),
        (
            lambda: direct_sum(random_system(2, 2, 23), random_system(2, 3, 24)),
            _commutant_kernel_at_the_boundary,
            "differs from the fixed space of sigma",
        ),
        (
            lambda: block_shift(3, 2, 3, 71),
            _peripheral_value_doubled,
            "geometric 1, algebraic 2",
        ),
        (
            lambda: block_shift(3, 2, 3, 71),
            _peripheral_value_doubled_in_the_kernel_too,
            "eig places 2 eigenvalues at the peripheral value",
        ),
    ],
    ids=[
        "compressed_fixed_space_too_small",
        "commutant_below_fixed_space",
        "doubled_peripheral_value",
        "doubled_peripheral_value_and_eigenspace",
    ],
)
def test_unreachable_chain_outcomes_abort(monkeypatch, tmp_path, capsys, make, boundary, message):
    # Fix(sigma) = M' on the support of the state, whose compression keeps
    # the dimension of the fixed space, and an ergodic map has semisimple,
    # simple peripheral values: each outcome is a kernel or an eigensolver
    # at the tolerance boundary, so classification aborts, and analyze
    # exits 3
    system = make()
    hyp, _, _ = commutant_chain_verdicts(system)
    assert hyp.fixed_equals_m_prime and hyp.phi_faithful
    assert classify_chain(system).m_is_factor == hyp.m_is_factor
    boundary(monkeypatch, system)
    with pytest.raises(NumericalHealthError, match=message):
        classify_chain(system)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(system)))
    assert main(["analyze", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert re.search(message, doc["notes"][0])


@pytest.mark.parametrize("name", ["averaging3", "nonfaithful(2,3,2)xI2", "nonfaithful(2,3,2)+A"])
def test_peripheral_set_of_a_compressed_system_is_the_systems(request, name):
    # the predual's peripheral eigenvectors live on the support of the
    # state, so the compression there has the peripheral set of the system
    # as given, the one reported from the system's own map
    system = OFF_ERGODIC[name][0]() if name in OFF_ERGODIC else request.getfixturevalue(name)
    rep = classify_chain(system)
    assert not rep.ergodic and not rep.invariant_state.faithful
    compressed = compress(system, rep.invariant_state.carrier)
    for want in (kernel_peripheral_spectrum(system), kernel_peripheral_spectrum(compressed)):
        assert len(rep.peripheral) == len(want)
        assert all(abs(a - q.value) <= 1e-8 for a, q in zip(rep.peripheral, want))


@pytest.mark.parametrize("name", ["averaging3", "nonfaithful(2,3,2)xI2", "nonfaithful(2,3,2)+A"])
def test_fixed_space_of_a_compression_is_b_star_fix_b(request, name):
    # X -> pXp maps Fix(sigma) onto the fixed space of the compression to
    # the support p of the state, so in the support's basis B that space is
    # B* Fix(sigma) B, of dimension dim Fix(sigma): the oracle reads it from
    # the compression's own transfer map
    system = OFF_ERGODIC[name][0]() if name in OFF_ERGODIC else request.getfixturevalue(name)
    fixed, state = fixed_points(system), invariant_state(system)
    assert fixed.dim > 1 and not state.faithful
    form = compress(system, state.carrier).transfer
    want = OperatorSubspace.from_hermitian(svd_fixed_kernels(form)[0], form.n)
    got = fixed.compressed(state.carrier)
    assert got.dim == want.dim == fixed.dim
    assert got.span_equals(want)
    assert np.linalg.norm(got.gram() - np.eye(got.dim)) <= 1e-12


def _assert_chain_verdicts_match_oracle(system):
    rep = classify_chain(system)
    hyp, pure, factor = commutant_chain_verdicts(system)
    # the oracle decides the two hypotheses that the library holds as theorems
    assert hyp.fixed_equals_m_prime and hyp.phi_faithful
    assert rep.m_is_factor == hyp.m_is_factor
    assert rep.chain_pure == pure
    doc = report_to_json(rep, system, b"")
    assert doc["chain_hypotheses"] == {
        "M_is_factor": hyp.m_is_factor,
        "fixed_equals_M_prime": hyp.fixed_equals_m_prime,
        "phi_faithful": hyp.phi_faithful,
    }
    assert doc["chain_pure"] == pure
    assert doc["chain_factor"] == factor


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
    system = make()
    rep = classify_chain(system)
    assert not rep.ergodic
    assert rep.m_is_factor is factor
    assert rep.chain_pure == (pure if factor else HYPOTHESES_NOT_MET)
    assert report_to_json(rep, system, b"")["chain_factor"] is (pure if factor else None)


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


@pytest.mark.parametrize("name, make", ORACLE_FAMILIES.items(), ids=ORACLE_FAMILIES.keys())
def test_fixed_kernels_match_svd_route_on_families(name, make):
    # worst gap 4.7e-15, and 3.3e-11 at pauli_channel(1e-6), whose second
    # singular value 1e-6 leaves the SVD oracles that far from every route
    bound = 1e-9 if name == "pauli_channel(1e-6)" else 1e-12
    assert_fixed_kernels_match_svd_route(make(), bound=bound)


def _assert_value_one_carries_the_fixed_space(system):
    # the entry of the value 1 comes first, and its eigenspace, the one
    # kernel of S - I that classify reads, is the fixed space
    one, fixed = peripheral_spectrum(system)[0], fixed_points(system)
    assert abs(one.value - 1.0) <= 1e-8 and one.space.dtype.kind == "f"
    assert one.multiplicity == one.space.shape[1] == fixed.dim
    assert OperatorSubspace.from_hermitian(one.space, system.n).span_equals(fixed, 1e-12)


def test_value_one_carries_the_fixed_space(known_system):
    _assert_value_one_carries_the_fixed_space(known_system)


@pytest.mark.parametrize("make", ORACLE_FAMILIES.values(), ids=ORACLE_FAMILIES.keys())
def test_value_one_carries_the_fixed_space_on_families(make):
    _assert_value_one_carries_the_fixed_space(make())


def _unital_to(system, r, seed):
    # G^{1/2} V_i with G = I + r H, H a seeded Hermitian matrix of norm 1,
    # so sum_i V_i V_i* - I = r H: a residual r that is not uniform
    g = np.random.default_rng(seed).standard_normal((2, system.n, system.n))
    h = g[0] + 1j * g[1]
    h += h.conj().T
    w, u = np.linalg.eigh(np.eye(system.n) + r * h / np.linalg.norm(h, 2))
    root = (u * np.sqrt(w)) @ u.conj().T
    return PopescuSystem.from_operators([root @ v for v in system.operators])


DRIFTING = [(a, r) for a in (3, 4) for r in (1e-11, 1e-10, 3e-10, 9e-10)]


@pytest.mark.parametrize("a, r", DRIFTING, ids=[f"xI{a}:r={r:.0e}" for a, r in DRIFTING])
def test_a_residual_that_is_not_uniform_stops_the_squaring(a, r):
    # random(2,4,5) (x) I_a, unital only to r and unevenly: the a^2 largest
    # singular values of the sample grow at different rates (1 + O(r))^m,
    # so their ratios never repeat, and unless the squaring stops where one
    # more would take m r past 1/16 the certificate cannot close
    system = _unital_to(ancilla(random_system(2, 4, 5), a), r, seed=0)
    assert validate(system) == pytest.approx(r, rel=1e-3)
    rep = classify_chain(system)
    assert not rep.ergodic and rep.m_is_factor is True and rep.chain_pure is True
    basis, _, _, m = system.transfer._dominant_subspace
    assert basis.shape[1] == a * a and m * r <= 1 / 16


@pytest.mark.parametrize("make", ORACLE_FAMILIES.values(), ids=ORACLE_FAMILIES.keys())
def test_commutant_matches_vec_oracle_on_families(make):
    ops = make().operators
    assert commutant(ops).span_equals(vec_commutant(ops))


def test_peripheral_spectrum_matches_kernel_oracle(known_system):
    assert_peripheral_spectrum_matches_kernel_oracle(known_system)


@pytest.mark.parametrize(
    "make",
    [*ORACLE_FAMILIES.values(), lambda: block_shift(4, 2, 6, 74)],
    ids=[*ORACLE_FAMILIES.keys(), "block_shift(4,2,6)"],
)
def test_peripheral_spectrum_matches_kernel_oracle_on_families(make):
    assert_peripheral_spectrum_matches_kernel_oracle(make())


BLOCK_SHIFTS = {
    "block_shift(3,2,3)": lambda: block_shift(3, 2, 3, 71),
    "block_shift(4,3,3)": lambda: block_shift(4, 3, 3, 75),
    "block_shift(6,3,2)": lambda: block_shift(6, 3, 2, 76),
    "block_shift(4,2,6)": lambda: block_shift(4, 2, 6, 74),
}


@pytest.mark.parametrize("make", BLOCK_SHIFTS.values(), ids=BLOCK_SHIFTS.keys())
def test_classify_chain_takes_only_ritz_kernels_on_block_shifts(monkeypatch, make):
    # every peripheral value is simple, and its eigenspace is the kernel of
    # S - t for the k x k Ritz matrix S; invariant_state takes that of S - I
    # too, and the space of t = 1 is the fixed space, taken once
    kernels = record_kernels(monkeypatch)
    rep = classify_chain(make())
    assert rep.ergodic and rep.k == len(rep.peripheral) > 1
    assert [shape for _, shape in kernels] == [(rep.k, rep.k)] * (rep.k + 1)


def test_classify_chain_takes_no_kernel_of_the_whole_map(monkeypatch, known_system):
    # every eigenspace is a kernel of the p x p Ritz matrix, complex only
    # at a value off the real axis, and the commutants off the ergodic path
    # (averaging3, the direct sum, the ancilla) are real; no kernel of an
    # n^2 x n^2 matrix runs unless p = n^2, as at n^2 <= 8, the first
    # sample width
    kernels = record_kernels(monkeypatch)
    rep = classify_chain(known_system)
    off_axis = sum(abs(z.imag) > 1e-8 for z in rep.peripheral)
    assert sum(dtype.kind == "c" for dtype, _ in kernels) == off_axis
    whole = known_system.n**2
    assert whole <= 8 or all(shape != (whole, whole) for _, shape in kernels)


def _one_solve_each(*sizes):
    # each sigma_r that classify builds (n^2), then its one bordered solve
    return [call for size in sizes for call in (("real_transfer", size), ("solve", size))]


@pytest.mark.parametrize(
    "make, calls",
    [
        (
            lambda: random_system(3, 5, 21),
            {"fixed_points": 0, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 0, "eig": 1, "kernel": 2, "factorizations": _one_solve_each(25),
             "eig_dims": [1]},
        ),
        (
            lambda: nonfaithful(2, 3, 2, 22),
            {"fixed_points": 0, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 0, "eig": 1, "kernel": 2, "factorizations": _one_solve_each(25),
             "eig_dims": [1]},
        ),
        (
            lambda: direct_sum(random_system(2, 2, 23), random_system(2, 3, 24)),
            {"fixed_points": 0, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 2, "eig": 1, "kernel": 4, "factorizations": _one_solve_each(25),
             "eig_dims": [2]},
        ),
        (
            lambda: ancilla(random_system(2, 2, 63), 3),
            {"fixed_points": 0, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 2, "eig": 1, "kernel": 4, "factorizations": _one_solve_each(36),
             "eig_dims": [9]},
        ),
        (
            # off the ergodic path with a state that is not faithful, the
            # system is compressed once, and both commutants are taken on
            # the 6 x 6 compression, inside its fixed space, read from that
            # of the 100 x 100 map with no map of its own; eig runs on the
            # Ritz matrix of the 100 x 100 map, whose 4 Ritz values are its
            # 4 fixed points
            lambda: ancilla(nonfaithful(2, 3, 2, 22), 2),
            {"fixed_points": 0, "compress": 1, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 2, "eig": 1, "kernel": 4, "factorizations": _one_solve_each(100),
             "eig_dims": [4]},
        ),
        (
            lambda: block_shift(3, 2, 3, 71),
            {"fixed_points": 0, "compress": 0, "invariant_state": 1, "sigma_matrix": 1,
             "commutant": 0, "eig": 1, "kernel": 4, "factorizations": _one_solve_each(81),
             "eig_dims": [3]},
        ),
    ],
    ids=["random", "nonfaithful", "direct_sum", "ancilla", "nonfaithful_x_I2", "block_shift"],
)
def test_classify_chain_computes_each_object_once(monkeypatch, make, calls):
    # sigma_matrix, commutant, eig and kernel are counted where cpmap calls
    # them, the other stages (and commutant and eig again) where classify
    # does. Off the ergodic path the two
    # commutants are M' inside the fixed space and the centre of M' inside
    # M', and purity reads the one eig already taken: no commutant is solved
    # over all of M_n. factorizations lists each sigma_r that classify
    # builds, and the SVDs, eigs and solves of n^2 x n^2 matrices: one
    # sigma_r, the system's own, and one bordered solve, for its invariant
    # state, and nothing else. The other
    # kernels are of the p x p Ritz matrix: S - I for invariant_state, S - t
    # for each peripheral cluster (k = 3 of them for the block shift), about
    # 20 us each at p <= 9 (1 BLAS thread). The fixed space is the space of
    # t = 1, so fixed_points, counted where cpmap defines it, never runs.
    # The one eig runs on the p x p Ritz matrix, never on the n^2 x n^2 map:
    # p is 1 for a primitive map, dim Fix = 2, 9 or 4 where the peripheral
    # set is {1}, and k = 3 for the block shift.
    counts = dict.fromkeys(calls, 0)
    counts["eig_dims"] = []
    unrestricted = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "eig" and module is fcstates.cpmap:
                counts["eig_dims"].append(args[0].shape[0])
            if name == "commutant" and len(args) < 3 and kwargs.get("within") is None:
                unrestricted.append(module.__name__)
            return original(*args, **kwargs)

        return wrapper

    for name in ("compress", "invariant_state", "commutant", "eig"):
        monkeypatch.setattr(fcstates.classify, name, counted(fcstates.classify, name))
    for name in ("fixed_points", "sigma_matrix", "commutant", "eig"):
        monkeypatch.setattr(fcstates.cpmap, name, counted(fcstates.cpmap, name))
    kernels = record_kernels(monkeypatch)
    counts["factorizations"] = record_transfer_factorizations(monkeypatch)
    classify_chain(make())
    counts["kernel"] = len(kernels)
    assert counts == calls
    assert unrestricted == []
    assert not hasattr(fcstates.classify, "fixed_points")


def test_classify_reads_only_public_names_of_cpmap():
    private = [name for name, obj in vars(fcstates.classify).items()
               if name.startswith("_") and getattr(obj, "__module__", "") == "fcstates.cpmap"]
    assert private == []
