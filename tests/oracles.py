"""Reference constructions that the closed forms in fcstates replace.

Tests compare the library against these independent routes:

* the fixed space of the transfer map and the commutant of a set of
  matrices as complex kernels in vec coordinates, where the library solves
  real kernels in Hermitian coordinates;

* the unital *-algebra generated by a set of matrices, by closing the span
  of {I} + generators + adjoints under multiplication;
* the truncated dilation, as the quotient of the formal word vectors
  I (x) xi (|I| <= L) by the null space of the prefix-rule Gram matrix;
* the checks on a dilation and its moment table, by the direct
  constructions: Cuntz residuals from the q x q products S_i* S_j and
  sum_i S_i S_i*, dilation moments from one mat-vec per letter of every
  word, and the moment recursion from a double loop over word pairs.
"""

import numpy as np

from fcstates.cpmap import OperatorSubspace, sigma_matrix, unvec, vec
from fcstates.numerics import kernel, orthonormal_columns
from fcstates.dilation import MomentTable, TruncatedDilation
from fcstates.popescu import PopescuSystem, v_word, words_up_to


def vec_fixed_points(system: PopescuSystem, tol: float = 1e-8) -> OperatorSubspace:
    """Kernel of sigma - I in vec coordinates (complex arithmetic)."""
    m = sigma_matrix(system).matrix
    null = kernel(m - np.eye(system.n**2), tol, scale=1.0)
    return OperatorSubspace.from_vectors(null, (system.n, system.n))


def vec_commutant_constraints(generators) -> np.ndarray:
    """Stack of X -> XA - AX and X -> XA* - A*X in vec coordinates."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    eye = np.eye(gens[0].shape[0])
    rows = []
    for g in gens:
        for a in (g, g.conj().T):
            rows.append(np.kron(a.T, eye) - np.kron(eye, a))
    return np.vstack(rows)


def vec_commutant(generators, tol: float = 1e-8) -> OperatorSubspace:
    """Commutant as the complex kernel of :func:`vec_commutant_constraints`."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    gnorm = max(np.linalg.norm(g, 2) for g in gens)
    null = kernel(vec_commutant_constraints(gens), tol, scale=max(1.0, float(gnorm)))
    return OperatorSubspace.from_vectors(null, (n, n))


def frontier_generated_algebra(generators, tol: float = 1e-10) -> OperatorSubspace:
    """Span-closure of {I} + generators + adjoints under multiplication.

    Each round multiplies the newly found directions against the whole basis
    on both sides and re-orthonormalizes; terminates because the dimension is
    capped by n^2 and strictly increases while anything new appears.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    seed = [np.eye(n)] + gens + [g.conj().T for g in gens]
    basis = orthonormal_columns(np.stack([vec(m) for m in seed], axis=1), tol)
    frontier = basis
    while basis.shape[1] < n * n and frontier.shape[1] > 0:
        f_mats = [unvec(frontier[:, k], (n, n)) for k in range(frontier.shape[1])]
        b_mats = [unvec(basis[:, k], (n, n)) for k in range(basis.shape[1])]
        prods = []
        for f in f_mats:
            for b in b_mats:
                prods.append(vec(f @ b))
                prods.append(vec(b @ f))
        cand = np.stack(prods, axis=1)
        resid = cand - basis @ (basis.conj().T @ cand)
        # threshold against the candidate scale, not the residual's own
        # largest singular value: an all-noise residual must yield nothing
        scale = max(1.0, float(np.linalg.norm(cand, axis=0).max()))
        new = orthonormal_columns(resid, max(tol, 1e-12), scale=scale)
        if new.shape[1] == 0:
            break
        basis = np.concatenate([basis, new], axis=1)
        frontier = new
    return OperatorSubspace.from_vectors(basis, (n, n))


def prefix_gram(system: PopescuSystem, level: int) -> np.ndarray:
    """Prefix-rule Gram of the word vectors I (x) xi over ``words_up_to(d, level)``.

    <I (x) xi, IJ (x) eta> = <xi, V_J eta>, its adjoint when the second word
    is the shorter one, and 0 when neither word is a prefix of the other;
    one n x n block per word pair.
    """
    n = system.n
    words = words_up_to(system.d, level)
    g = np.zeros((len(words) * n, len(words) * n), dtype=complex)
    for a, wi in enumerate(words):
        for b, wj in enumerate(words):
            if len(wi) <= len(wj) and wj[: len(wi)] == wi:
                block = v_word(system, wj[len(wi):])
            elif len(wj) < len(wi) and wi[: len(wj)] == wj:
                block = v_word(system, wi[len(wj):]).conj().T
            else:
                continue
            g[a * n : (a + 1) * n, b * n : (b + 1) * n] = block
    return g


def prefix_quotient_rank(system: PopescuSystem, level: int, tol: float = 1e-10) -> int:
    """Dimension of the word-vector space modulo the null space of the prefix Gram."""
    gram = prefix_gram(system, level)
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return int(np.sum(vals > tol * vals[-1]))


def product_cuntz_residuals(dil: TruncatedDilation) -> tuple[float, float]:
    """Isometry and completeness residuals from the q x q operator products.

    max_ij ||(S_i* S_j - delta_ij I) w|| and ||(sum_i S_i S_i* - I) w|| with
    w = ``level_subspace(L-1)``.
    """
    w = dil.level_subspace(dil.level - 1)
    q = dil.dim
    iso = 0.0
    for i, si in enumerate(dil.operators):
        for j, sj in enumerate(dil.operators):
            delta = np.eye(q) if i == j else np.zeros((q, q))
            iso = max(iso, float(np.linalg.norm((si.conj().T @ sj - delta) @ w, 2)))
    comp_op = sum(s @ s.conj().T for s in dil.operators) - np.eye(q)
    return iso, float(np.linalg.norm(comp_op @ w, 2))


def matvec_dilation_moments(dil: TruncatedDilation, omega, max_len: int) -> np.ndarray:
    """C(I, J) = <S_I* root, S_J* root>, each S_I* root by |I| separate mat-vecs."""
    root = dil.base_embedding @ np.asarray(omega, dtype=complex)
    adj = []
    for word in words_up_to(dil.system.d, max_len):
        u = root
        for letter in word:  # S_I* applies S_{i_1}* first
            u = dil.operators[letter].conj().T @ u
        adj.append(u)
    cols = np.stack(adj, axis=1)
    return cols.conj().T @ cols


def loop_recursion_residual(table: MomentTable) -> float:
    """max over |I|, |J| < max_len of |sum_i C(Ii, Ji) - C(I, J)|, word pair by word pair."""
    resid = 0.0
    short = [w for w in table.words if len(w) < table.max_len]
    for wi in short:
        for wj in short:
            s = sum(table.value((*wi, i), (*wj, i)) for i in range(table.d))
            resid = max(resid, abs(s - table.value(wi, wj)))
    return float(resid)
