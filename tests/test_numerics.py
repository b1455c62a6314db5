from itertools import permutations

import numpy as np
import pytest

from fcstates import (
    NumericalHealthError,
    eig,
    kernel,
    real_transfer,
    sigma_matrix,
    spectral_sets_match,
)
from fcstates.numerics import distinct_values, value_clusters

from conftest import eij
from oracles import herm_inv_sqrt, herm_sqrt, orthonormal_columns


def test_eig_diagonal():
    dec = eig(np.diag([1.0, 2.0]))
    assert spectral_sets_match(dec.eigenvalues, [1.0, 2.0], 1e-12)


def test_eig_residual_holds_without_diagonalizability(rank_one2):
    # eig is backward stable: the residual bound holds at a Jordan block,
    # where the eigenvector matrix is singular, as on any other input
    for a in (np.array([[1.0, 1.0], [0.0, 1.0]]), sigma_matrix(rank_one2)):
        dec = eig(a)
        assert dec.residual <= 1e-10


def _assert_residual_bounds_spectral_ratio(a):
    dec = eig(a)
    r = a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues[None, :]
    assert dec.residual == pytest.approx(
        np.linalg.norm(r) / np.linalg.norm(a, axis=0).max(), rel=1e-12
    )
    # ||R||_F >= ||R||_2 and the largest column norm is at most ||A||_2
    assert dec.residual >= (1 - 1e-12) * np.linalg.norm(r, 2) / np.linalg.norm(a, 2)


def test_eig_residual_bounds_the_spectral_norm_ratio():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 16, 40):
        real = rng.standard_normal((n, n))
        _assert_residual_bounds_spectral_ratio(real)
        _assert_residual_bounds_spectral_ratio(real + 1j * rng.standard_normal((n, n)))


def test_eig_residual_bounds_the_spectral_norm_ratio_on_transfer_maps(known_system):
    _assert_residual_bounds_spectral_ratio(real_transfer(known_system).matrix)


def test_eig_symmetric_flip():
    dec = eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spectral_sets_match(dec.eigenvalues, [1.0, -1.0], 1e-12)


def test_eig_swap_superoperator(swap2):
    # independent oracle: assemble the 4x4 matrix from the action on matrix
    # units, column by column, and eigensolve by brute force
    cols = []
    for j in range(2):
        for i in range(2):
            x = eij(i, j, 2)
            sx = sum(v @ x @ v.conj().T for v in swap2.operators)
            cols.append(sx.reshape(-1, order="F"))
    brute = np.column_stack(cols)
    assert np.allclose(brute, sigma_matrix(swap2))
    dec = eig(brute)
    assert spectral_sets_match(dec.eigenvalues, [1.0, -1.0, 0.0, 0.0], 1e-12)


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig(np.zeros((2, 3)))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_eig_residual_gate_rejects_a_wrong_eigenvector(monkeypatch, kind):
    # the gate reads the residual of the pairs LAPACK returns; one unit
    # eigenvector moved by about 3e-6 puts it far above the 1e-10 tolerance
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 8))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((8, 8))
    solve = np.linalg.eig

    def perturbed(m):
        vals, vecs = solve(m)
        vecs = vecs.copy()
        vecs[:, 3] += 1e-6 * rng.standard_normal(8)
        return vals, vecs

    assert eig(a).residual <= 1e-12
    monkeypatch.setattr(np.linalg, "eig", perturbed)
    with pytest.raises(NumericalHealthError, match="eigenpair residual"):
        eig(a)


def test_eig_hermitian_eigenvalues_real():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = g + g.conj().T
        dec = eig(h)
        assert np.max(np.abs(dec.eigenvalues.imag)) <= 1e-10 * np.linalg.norm(h, 2)


def test_kernel_rank_one_projection():
    null = kernel(np.diag([1.0, 0.0]))
    assert null.shape == (2, 1)
    assert abs(abs(null[1, 0]) - 1.0) < 1e-12 and abs(null[0, 0]) < 1e-12


def test_kernel_identity_empty():
    assert kernel(np.eye(3)).shape == (3, 0)


def test_kernel_of_averaging_fixed_equation(averaging3):
    null = kernel(sigma_matrix(averaging3) - np.eye(9), 1e-10, scale=1.0)
    assert null.shape[1] == 2


def test_kernel_residual_contract():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        a[:, 3] = a[:, 1]  # force rank deficiency
        null = kernel(a, 1e-10)
        smax = np.linalg.norm(a, 2)
        for k in range(null.shape[1]):
            assert np.linalg.norm(a @ null[:, k]) <= 1e-10 * smax
        gram = null.conj().T @ null
        assert np.allclose(gram, np.eye(null.shape[1]), atol=1e-12)


def test_solvers_keep_a_real_input_real():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5))
    a[:, 3] = a[:, 1]
    null = kernel(a, 1e-10)
    assert null.dtype == np.float64 and null.shape == (5, 1)
    assert np.linalg.norm(a @ null) <= 1e-10 * np.linalg.norm(a, 2)
    assert orthonormal_columns(a).dtype == np.float64
    # a real matrix with complex eigenvalues: the residual gate holds, and
    # real arithmetic returns the pairs exactly conjugate
    m = rng.standard_normal((8, 8))
    dec = eig(m)
    assert dec.residual <= 1e-10
    assert np.max(np.abs(dec.eigenvalues.imag)) > 1e-3
    assert spectral_sets_match(dec.eigenvalues, dec.eigenvalues.conj(), 0.0)


def test_kernel_wide_matrix():
    a = np.array([[1.0, 0.0, 0.0]])
    null = kernel(a)
    assert null.shape == (3, 2)
    assert np.linalg.norm(a @ null) < 1e-12


def test_herm_sqrt_examples():
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(herm_sqrt(0.5 * np.eye(2)), np.eye(2) / np.sqrt(2))


def test_herm_sqrt_random_psd_squares_back():
    rng = np.random.default_rng(2)
    for n in (2, 5, 11, 20):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        root = herm_sqrt(rho)
        assert np.linalg.norm(root @ root - rho, 2) <= 1e-10 * np.linalg.norm(rho, 2)
        assert np.linalg.norm(root - root.conj().T, 2) <= 1e-12 * np.linalg.norm(root, 2)


def test_herm_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        herm_sqrt(np.diag([1.0, -0.5]))


def test_herm_sqrt_rejects_nonhermitian():
    with pytest.raises(ValueError):
        herm_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_inv_sqrt():
    rho = np.diag([4.0, 0.25])
    inv_root = herm_inv_sqrt(rho)
    assert np.allclose(inv_root, np.diag([0.5, 2.0]))
    with pytest.raises(ValueError):
        herm_inv_sqrt(np.diag([1.0, 0.0]))


def test_spectral_sets_match():
    assert spectral_sets_match([1.0, -1.0], [-1.0, 1.0 + 1e-10])
    assert not spectral_sets_match([1.0, -1.0], [1.0, 1.0])
    assert not spectral_sets_match([1.0], [1.0, -1.0])
    # nearest-first pairing takes 0.4 for 0.5 and leaves 0.9 for 0; the
    # pairing 0.5-0.9, 0-0.4 is within tolerance
    assert spectral_sets_match([0.5, 0.0], [0.4, 0.9], 0.5)


def test_distinct_values_independent_of_order():
    # 0 and 1.2 are farther apart than tol but chained through 0.6
    counts = {len(distinct_values(p, 0.6)) for p in permutations([0.0, 0.6, 1.2])}
    assert counts == {1}
    # the component counts every member, not only those within tol of the first
    assert value_clusters([0.0, 0.6, 1.2, 5.0], 0.6) == [(0.0, 3), (5.0, 1)]
    assert distinct_values([1.0, -1.0, 1.0 + 1e-12]) == [1.0, -1.0]
