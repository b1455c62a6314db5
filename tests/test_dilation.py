import tracemalloc

import numpy as np
import pytest

from fcstates import (
    build,
    cuntz_residuals,
    dilation_moments,
    invariant_state,
    moment_checks,
    moment_psd_with_D,
    moments,
    random_system,
    v_word,
    words_up_to,
)
from fcstates.dilation import MomentTable, TruncatedDilation
from fcstates.popescu import words_of_length

from conftest import scalar
from oracles import (
    dense_shifts,
    loop_recursion_residual,
    matvec_dilation_moments,
    prefix_gram,
    prefix_quotient_rank,
    product_cuntz_residuals,
)


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    omega = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return omega / np.linalg.norm(omega)


def test_build_scalar_quotient_classes():
    # V = (1, 0): the empty word, (0) and (00) collapse to one class;
    # (1), (01), (11) survive; (10) collapses onto (1)
    dil = build(scalar(1.0, 0.0), 2)
    assert dil.dim == 4


def test_build_level_one_dimension_bound():
    for seed in range(4):
        sys_ = random_system(2, 3, seed)
        dil = build(sys_, 1)
        assert dil.dim <= (1 + 2) * 3


def test_build_monotone_in_level():
    sys_ = random_system(2, 2, 21)
    dims = [build(sys_, level).dim for level in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_build_gram_psd():
    # the prefix-rule Gram is PSD, and it is the Gram of the word-vector
    # images I (x) xi -> e_I (x) E_{L-|I|} xi, the column blocks of the level
    # subspaces in words_up_to order
    sys_ = random_system(3, 2, 33)
    dil = build(sys_, 3)
    gram = prefix_gram(sys_, 3)
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    assert vals[0] >= -1e-10 * vals[-1]
    images = np.hstack([dil.level_subspace(m) for m in range(4)])
    assert np.max(np.abs(images.conj().T @ images - gram)) <= 1e-12


def test_build_dimension_matches_prefix_quotient(known_system):
    level = 3
    dil = build(known_system, level)
    expected = known_system.d**level * known_system.n
    assert dil.dim == prefix_quotient_rank(known_system, level) == expected


def test_level_subspaces_are_isometries(known_system):
    dil = build(known_system, 3)
    for m in range(4):
        w = dil.level_subspace(m)
        assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]), 2) <= 1e-12


def test_build_rejects_bad_level(swap2):
    with pytest.raises(ValueError):
        build(swap2, 0)
    dil = build(swap2, 2)
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            dil.level_subspace(bad)


def test_cuntz_residuals_scalar_exact():
    dil = build(scalar(1.0, 0.0), 3)
    res = cuntz_residuals(dil)
    assert res.isometry_residual <= 1e-12
    assert res.completeness_residual <= 1e-12


def test_cuntz_residuals_random_level_four():
    for seed in (2, 5):
        sys_ = random_system(2, 3, 120 + seed)
        res = cuntz_residuals(build(sys_, 4))
        assert res.isometry_residual <= 1e-10
        assert res.completeness_residual <= 1e-10


def test_cuntz_residuals_level_one_boundary(swap2):
    res = cuntz_residuals(build(swap2, 1))
    assert res.isometry_residual <= 1e-10
    assert res.completeness_residual <= 1e-10


def test_cuntz_residuals_match_product_oracle(known_system):
    for level in (1, 2, 3):
        dil = build(known_system, level)
        res = cuntz_residuals(dil)
        iso, comp = product_cuntz_residuals(dil)
        assert abs(res.isometry_residual - iso) <= 1e-12
        assert abs(res.completeness_residual - comp) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cuntz_residuals_of_a_corrupted_dilation_match_product_oracle(d):
    # row -> 1.1 row + noise breaks both relations by O(0.1), so agreement is
    # not the trivial agreement of two roundoff-level numbers; the oracle
    # reads the same corrupted row through its dense shifts
    rng = np.random.default_rng(d)
    sys_ = random_system(d, 2, 70 + d)
    for level in (1, 2, 3):
        dil = build(sys_, level)
        shape = dil.row.shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        row = 1.1 * dil.row + 0.02 * noise / np.sqrt(shape[1])
        bad = TruncatedDilation(sys_, level, row, dil.base_embedding)
        res = cuntz_residuals(bad)
        iso, comp = product_cuntz_residuals(bad)
        assert min(iso, comp) >= 0.05
        assert abs(res.isometry_residual - iso) <= 1e-12 * iso
        assert abs(res.completeness_residual - comp) <= 1e-12 * comp


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc during ``call`` beyond what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_dilation_checks_form_no_square_temporaries():
    # at q = 512 one q x q complex array is 4 MB; the residuals and the moment
    # table need a few q x (q/d) blocks, not a q x q product, identity or adjoint
    dil = build(random_system(4, 2, 9), 4)
    q = dil.dim
    assert q == 512
    bound = 3 * q * q * 16
    assert _traced_peak(lambda: cuntz_residuals(dil)) < bound
    omega = unit_vector(np.random.default_rng(9), 2)
    assert _traced_peak(lambda: dilation_moments(dil, omega)) < bound


def test_build_holds_no_square_array():
    # the dilation keeps row = [V_1 ... V_d] (n x dn) and the q x n embedding;
    # building it never allocates a q x q complex array (4 MB at q = 512)
    system = random_system(4, 2, 9)
    dil = build(system, 4)
    q, n = dil.dim, system.n
    assert q == 512
    assert dil.row.nbytes + dil.base_embedding.nbytes < 4 * q * n * 16
    assert _traced_peak(lambda: build(system, 4)) < q * q * 16


def test_swap_completeness_on_level_two_image(swap2):
    dil = build(swap2, 3)
    w = dil.level_subspace(2)
    total = sum(s @ s.conj().T for s in dense_shifts(dil)) - np.eye(dil.dim)
    assert np.linalg.norm(total @ w, 2) <= 1e-10


def test_adjoint_compression_reproduces_system():
    sys_ = random_system(2, 4, 44)
    dil = build(sys_, 3)
    emb = dil.base_embedding
    for s, v in zip(dense_shifts(dil), sys_.operators):
        assert np.linalg.norm(emb.conj().T @ s.conj().T @ emb - v.conj().T, 2) <= 1e-10


def test_moments_rank_one_density(rank_one2):
    state = invariant_state(rank_one2)
    table = moments(rank_one2, state, 2)
    assert abs(table.value((0,), (0,)) - 1.0) <= 1e-12
    assert abs(table.value((1,), (1,))) <= 1e-12
    assert abs(table.value((), ()) - 1.0) <= 1e-12


def test_moments_vector_conjugation_pattern():
    alpha, beta = 0.6, complex(0.0, 0.8)
    sys_ = scalar(alpha, beta)
    table = moments(sys_, np.array([1.0]), 2)
    assert abs(table.value((0,), (1,)) - alpha * np.conj(beta)) <= 1e-12
    # Hermitian symmetry C(I, J) = conj(C(J, I))
    assert abs(table.value((1,), (0,)) - np.conj(table.value((0,), (1,)))) <= 1e-15


def test_moments_rejects_unnormalized_vector(swap2):
    with pytest.raises(ValueError):
        moments(swap2, np.array([1.0, 1.0]), 2)


def test_moment_checks_structural():
    for seed, source in ((1, "vec"), (6, "rho")):
        sys_ = random_system(2, 3, 200 + seed)
        if source == "vec":
            omega = np.zeros(3)
            omega[0] = 1.0
            table = moments(sys_, omega, 3)
        else:
            table = moments(sys_, invariant_state(sys_), 3)
        checks = moment_checks(table, sys_)
        assert checks.recursion_residual <= 1e-12
        assert checks.psd_min_eig >= -1e-10


def test_words_up_to_places_children_after_their_parent():
    # the child I + (i,) of the a-th word of length m sits at offset(m+1) + d a + i,
    # i.e. at d x + 1 + i for the word at index x; dilation_moments writes its
    # levels and moment_checks gathers the recursion by this rule
    for d in (2, 3, 4):
        words = words_up_to(d, 3)
        for m in range(3):
            offset_next = len(words_up_to(d, m))
            for a, word in enumerate(words_of_length(d, m)):
                parent = words.index(word)
                for i in range(d):
                    assert words[offset_next + d * a + i] == (*word, i)
                    assert words[d * parent + 1 + i] == (*word, i)


def test_moment_checks_match_loop_oracle(known_system):
    table = moments(known_system, unit_vector(np.random.default_rng(5), known_system.n), 3)
    checks = moment_checks(table, known_system)
    assert checks.recursion_residual == pytest.approx(loop_recursion_residual(table), abs=1e-15)
    # one corrupted entry per word length, on a pair with a common last letter
    # so that the entry enters the recursion also as a child
    for m in range(4):
        wi, wj = (0,) * m, (1,) * (m - 1) + (0,) if m else ()
        values = table.values.copy()
        values[table.index(wi), table.index(wj)] += 0.1
        corrupted = MomentTable(table.d, table.max_len, table.words, values)
        resid = moment_checks(corrupted, known_system).recursion_residual
        assert resid >= 0.05
        assert resid == pytest.approx(loop_recursion_residual(corrupted), abs=1e-15)


def test_moment_checks_detects_corruption(swap2):
    state = invariant_state(swap2)
    table = moments(swap2, state, 2)
    values = table.values.copy()
    values[1, 1] += 0.1
    corrupted = MomentTable(table.d, table.max_len, table.words, values)
    checks = moment_checks(corrupted, swap2)
    assert checks.recursion_residual >= 0.05


def test_moment_psd_with_D_averaging(averaging3):
    res = moment_psd_with_D(
        averaging3, np.array([1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.5]), 3
    )
    assert res.psd and res.dominated


def test_moment_psd_with_D_extremes(averaging3):
    omega = np.array([1.0, 0.0, 0.0])
    res = moment_psd_with_D(averaging3, omega, np.eye(3), 3)
    assert res.psd and res.dominated
    res = moment_psd_with_D(averaging3, omega, -np.eye(3), 3)
    assert not res.psd


def test_moment_psd_with_D_rejects_unfixed(averaging3):
    with pytest.raises(ValueError):
        moment_psd_with_D(averaging3, np.array([1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0]), 3)


def test_dilation_matches_moment_table():
    for seed in (3, 14):
        sys_ = random_system(2, 3, 400 + seed)
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        dil = build(sys_, 4)
        direct = moments(sys_, omega, 3)
        via_dilation = dilation_moments(dil, omega, 3)
        assert np.max(np.abs(direct.values - via_dilation.values)) <= 1e-10


def test_dilation_moments_match_matvec_oracle(known_system):
    omega = unit_vector(np.random.default_rng(4), known_system.n)
    for level in (1, 2, 3):
        dil = build(known_system, level)
        for max_len in range(level + 1):
            table = dilation_moments(dil, omega, max_len)
            assert table.words == tuple(words_up_to(known_system.d, max_len))
            oracle = matvec_dilation_moments(dil, omega, max_len)
            assert np.max(np.abs(table.values - oracle)) <= 1e-13


@pytest.mark.parametrize(
    "omega, message", [([2.0, 0.0, 0.0], "unit vector"), ([1.0, 0.0], "length 3")]
)
@pytest.mark.parametrize("route", ["moments", "dilation_moments", "moment_psd_with_D"])
def test_moment_routes_reject_a_bad_omega(averaging3, route, omega, message):
    calls = {
        "moments": lambda: moments(averaging3, omega, 2),
        "dilation_moments": lambda: dilation_moments(build(averaging3, 2), omega, 2),
        "moment_psd_with_D": lambda: moment_psd_with_D(averaging3, omega, np.eye(3), 2),
    }
    with pytest.raises(ValueError, match=message):
        calls[route]()


def test_dilation_moments_rejects_bad_max_len(swap2):
    dil = build(swap2, 2)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="max_len"):
            dilation_moments(dil, np.array([1.0, 0.0]), bad)


def test_moment_tables_reject_a_negative_max_len():
    system = random_system(2, 3, 1)
    omega = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="max_len"):
        moments(system, omega, -1)
    with pytest.raises(ValueError, match="max_len"):
        moments(system, invariant_state(system), -1)
    with pytest.raises(ValueError, match="max_len"):
        moment_psd_with_D(system, omega, np.eye(3), -1)


def test_dilation_moment_agreement_rank_one_length_four(rank_one2):
    omega = np.array([1.0, 0.0])
    dil = build(rank_one2, 4)
    via_dilation = dilation_moments(dil, omega, 4)
    for wi in words_up_to(2, 4):
        for wj in words_up_to(2, 4):
            target = (v_word(rank_one2, wi) @ v_word(rank_one2, wj).conj().T)[0, 0]
            assert abs(via_dilation.value(wi, wj) - target) <= 1e-10


def test_vector_and_rank_one_density_sources_agree():
    from fcstates.cpmap import DensityState

    sys_ = random_system(2, 3, 88)
    rng = np.random.default_rng(8)
    omega = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    omega /= np.linalg.norm(omega)
    via_vector = moments(sys_, omega, 3)
    rho = np.outer(omega, omega.conj())
    via_density = moments(sys_, DensityState.from_matrix(rho), 3)
    assert np.max(np.abs(via_vector.values - via_density.values)) <= 1e-12


def test_dilation_levels_extend_consistently():
    # a higher truncation level reproduces the lower level's moments
    sys_ = random_system(3, 2, 89)
    omega = np.array([1.0, 0.0])
    low = dilation_moments(build(sys_, 2), omega, 2)
    high = dilation_moments(build(sys_, 4), omega, 2)
    assert np.max(np.abs(low.values - high.values)) <= 1e-10
