"""Reference constructions that the closed forms in fcstates replace.

Tests compare the library against these independent routes:

* the predual map and the chain's compression maps
  E_A(B) = sum_ij A_ij V_i B V_j* as dense n^2 x n^2 Kronecker sums in vec
  coordinates, where the library applies E_A and its adjoint to n x n
  matrices through Kraus operators and steps sigma in Hermitian
  coordinates;
* the fixed space of the transfer map and the commutant of a set of
  matrices as complex kernels in vec coordinates, where the library solves
  real kernels in Hermitian coordinates;
* the peripheral spectrum from one dense eig of the whole n^2 x n^2
  matrix and one kernel of sigma - t per peripheral value t, real at a
  real value, where the library solves the p x p Ritz matrix S of a
  certified invariant subspace and takes every eigenspace as a kernel of
  S - t;
* the eigenunitary at t as a kernel of sigma - conj(t), where the library
  rescales the operator that its peripheral spectrum reports;
* the invariant state as the Cesaro limit built from two separately
  factored kernels in vec coordinates, where the library reads them from
  the Ritz matrix and one bordered solve;
* the fixed spaces of sigma and sigma_* as the right and left singular
  vectors of one full SVD of sigma - I in Hermitian coordinates, their
  dimension from the singular values alone, the closed form span(I) with
  the bordered solve (sigma^T - I + e e^T) h = e of an ergodic map, and
  the unique invariant state as the one left singular vector, where the
  library reads the fixed space from the kernel of the p x p Ritz matrix
  S - I and the predual's from one bordered solve for every dimension;
* the certificate of the Ritz subspace by repeated squaring of
  (I - X X^T) sigma, where the library reads it from the power that its
  sampling holds;
* the chain hypotheses and verdicts by the full commutant route (M' and
  M'' as kernels over all of M_n, the factor test by principal angles,
  M' against the fixed space by mutual projection, and the spectrum of
  sigma restricted to M), where the library decides the ergodic case as a
  theorem and otherwise solves M' inside the fixed space, takes the centre
  of M' inside M' for the factor test and reads purity from the
  peripheral set of sigma;

* the unital *-algebra generated by a set of matrices, both as the double
  commutant and by closing the span of {I} + generators + adjoints under
  multiplication, and the test of a subspace for being a unital algebra;
  no verdict of the library forms M = M'' or asks whether a span is an
  algebra;
* the truncated dilation, as the quotient of the formal word vectors
  I (x) xi (|I| <= L) by the null space of the prefix-rule Gram matrix;
* the checks on a dilation and its moment table, by the direct
  constructions: the shifts S_i = e_i (x) (I (x) [V_1 ... V_d]) as dense
  q x q Kronecker products, Cuntz residuals from the q x q products
  S_i* S_j and sum_i S_i S_i*, dilation moments from one dense mat-vec per
  letter of every word, and the moment recursion from a double loop over
  word pairs;
* rho^{1/2} and rho^{-1/2} by an eigh of rho each, where the library
  reads them from the eigenpairs that the state holds;
* the fixed space of the compression to the support of the state by the
  compression's own transfer map, where the library reads it as
  B* Fix(sigma) B for the basis B of the support;
* the modular layer in vec coordinates, where the library applies
  Delta^{1/2} and J as n x n maps: Delta^{+-1/2} as Kronecker products, J
  as conjugation plus the vec-transposition permutation, the dual
  generators as composed n^2 x n^2 matrices and the duality residuals as
  spectral norms of n^2 x n^2 differences;
* the spectral comparison of a system with its dual by two eigensolves,
  one of sigma and one of the dual parameter system's transfer map, where
  the library reads the dual's peripheral spectrum from the system's
  through the similarity tau = Gamma^{-1} sigma_* Gamma.
"""

from dataclasses import dataclass

import numpy as np

from fcstates.classify import HYPOTHESES_NOT_MET
from fcstates.cpmap import (
    DEFAULT_PERIPHERAL_TOL,
    DEFAULT_SET_TOL,
    DensityState,
    OperatorSubspace,
    RealTransfer,
    _canonical_phase,
    _from_hermitian,
    commutant,
    fixed_points,
    invariance_residual,
    invariant_state,
    peripheral_spectrum,
    real_transfer,
    sigma_matrix,
    unvec,
    vec,
)
from fcstates.errors import NumericalHealthError
from fcstates.numerics import (
    as_matrix,
    distinct_values,
    eig,
    kernel,
    spectral_sets_match,
    value_clusters,
)
from fcstates.dilation import MomentTable, TruncatedDilation
from fcstates.modular import DualSystem
from fcstates.popescu import PopescuSystem, compress, v_word, words_up_to


def apply_map(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 matrix ``m`` of a map in vec coordinates, applied to
    the n x n matrix ``x``."""
    return unvec(m @ vec(x), x.shape)


def orthonormal_columns(a, tol: float = 1e-10, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``.

    Directions with singular value at most ``tol * scale`` are discarded;
    ``scale`` defaults to the largest singular value. Pass the natural scale
    of the problem when ``a`` may consist entirely of roundoff noise (e.g.
    residuals after projection), where a relative threshold keeps junk.
    The basis is real when ``a`` is real.
    """
    a = np.asarray(a)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * scale)) if scale > 0 else 0
    return u[:, :rank]


def _check_hermitian(rho: np.ndarray, tol: float) -> np.ndarray:
    scale = max(np.linalg.norm(rho, 2), 1.0)
    if np.linalg.norm(rho - rho.conj().T, 2) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (rho + rho.conj().T)


def herm_sqrt(rho, tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root via spectral calculus.

    Eigenvalues in [-tol*||rho||, 0) are treated as roundoff and clipped to
    zero; anything more negative is an error.
    """
    rho = _check_hermitian(as_matrix(rho), tol)
    vals, vecs = np.linalg.eigh(rho)
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    if vals[0] < -tol * scale:
        raise ValueError(f"matrix has negative eigenvalue {vals[0]:.3e} beyond -tol")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[None, :]) @ vecs.conj().T


def herm_inv_sqrt(rho, tol: float = 1e-10) -> np.ndarray:
    """Hermitian inverse square root; requires min eigenvalue > tol."""
    rho = _check_hermitian(as_matrix(rho), tol)
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] <= tol:
        raise ValueError(
            f"matrix is singular at tolerance {tol:.3e} (min eigenvalue {vals[0]:.3e})"
        )
    return (vecs / np.sqrt(vals)[None, :]) @ vecs.conj().T


def predual_matrix(system: PopescuSystem) -> np.ndarray:
    """Predual map rho -> sum_i V_i* rho V_i in matrix form (trace preserving)."""
    m = sum(np.kron(v.T, v.conj().T) for v in system.operators)
    # trace preservation: trace(rho) = <vec(I), vec(rho)>, so vec(I) must be
    # a left fixed vector of the matrix.
    i_vec = vec(np.eye(system.n))
    if np.linalg.norm(m.conj().T @ i_vec - i_vec) > 1e-10 * system.n:
        raise NumericalHealthError("predual superoperator is not trace-preserving")
    return m


def e_map(system: PopescuSystem, a) -> np.ndarray:
    """Matrix form of B -> sum_{ij} A_ij V_i B V_j* on column-stacked B.

    For A = I this is exactly the forward transfer matrix.
    """
    a = as_matrix(a, "site observable")
    if a.shape != (system.d, system.d):
        raise ValueError(f"site observable must be {system.d}x{system.d}, got {a.shape}")
    n2 = system.n**2
    out = np.zeros((n2, n2), dtype=complex)
    for i, vi in enumerate(system.operators):
        for j, vj in enumerate(system.operators):
            if a[i, j] != 0:
                out += a[i, j] * np.kron(vj.conj(), vi)
    return out


def dense_expectation(system: PopescuSystem, rho: np.ndarray, factors) -> complex:
    """phi(E_{A_1}(... E_{A_m}(I))), each E_A applied as its e_map matrix."""
    n = system.n
    w = vec(np.eye(n))
    for a in reversed(factors):
        w = e_map(system, a) @ w
    return complex(np.trace(rho @ unvec(w, (n, n))))


def padded_product(x, y, shift: int, d: int) -> list[np.ndarray]:
    """The factors of x times y shifted by ``shift`` sites, on sites
    1..max(width(x), shift + width(y)), with identities where neither acts."""
    eye = np.eye(d)
    return [
        (x[s] if s < len(x) else eye) @ (y[s - shift] if 0 <= s - shift < len(y) else eye)
        for s in range(max(len(x), shift + len(y)))
    ]


def vec_fixed_points(system: PopescuSystem, tol: float = 1e-8) -> OperatorSubspace:
    """Kernel of sigma - I in vec coordinates (complex arithmetic)."""
    m = sigma_matrix(system)
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


def vec_invariant_state(system: PopescuSystem, tol: float = 1e-8) -> DensityState:
    """Cesaro limit from I/n: R (F* R)^{-1} F* vec(I/n) in vec coordinates.

    R is the kernel of sigma_* - I and F that of sigma - I, each from its
    own SVD; sigma is the adjoint of sigma_* in the trace pairing, so F
    holds the left eigenvectors of sigma_* at 1.
    """
    n = system.n
    eye = np.eye(n * n)
    right = kernel(predual_matrix(system) - eye, tol, scale=1.0)
    left = kernel(sigma_matrix(system) - eye, tol, scale=1.0)
    v = right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ vec(np.eye(n) / n))
    rho = unvec(v, (n, n))
    rho = 0.5 * (rho + rho.conj().T)
    return DensityState.from_matrix(rho / np.trace(rho).real)


def shifted(form: RealTransfer, value: complex) -> np.ndarray:
    """sigma - value * I, real when the value is."""
    value = complex(value)
    return form.matrix - (value if value.imag else value.real) * np.eye(form.n**2)


def svd_fixed_dimension(form: RealTransfer, tol: float = 1e-8) -> int:
    """The dimension of the fixed space: the number of singular values of
    sigma - I at most ``tol``, from one values-only SVD."""
    return int(np.sum(np.linalg.svd(shifted(form, 1.0), compute_uv=False) <= tol))


def svd_fixed_kernels(form: RealTransfer, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the kernels of sigma - I and sigma^T - I from the right and
    left singular vectors of one full SVD of sigma - I, at any dimension."""
    u, s, vt = np.linalg.svd(shifted(form, 1.0))
    rank = int(np.sum(s > tol))
    return vt[rank:].T, u[:, rank:]


def bordered_ergodic_kernels(form: RealTransfer) -> tuple[np.ndarray, np.ndarray]:
    """The fixed spaces of an ergodic map in closed form: e, the Hermitian
    coordinates of I/sqrt(n), and the unit solution h of
    (sigma^T - I + e e^T) h = e, one LU solve; e e^T touches only the
    leading n x n block of diagonal coordinates."""
    n = form.n
    e = np.zeros(n * n)
    e[:n] = 1.0 / np.sqrt(n)
    bordered = shifted(form, 1.0).T
    bordered[:n, :n] += 1.0 / n
    h = np.linalg.solve(bordered, e)
    return e[:, None], (h / np.linalg.norm(h))[:, None]


def svd_route_fixed_kernels(
    form: RealTransfer, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed spaces by the dimension that the singular values of
    sigma - I give: the closed forms of :func:`bordered_ergodic_kernels`
    when it is 1, and :func:`svd_fixed_kernels` otherwise."""
    if svd_fixed_dimension(form, tol) == 1:
        return bordered_ergodic_kernels(form)
    return svd_fixed_kernels(form, tol)


def squared_certificate(form: RealTransfer, basis: np.ndarray, tol: float) -> int | None:
    """The least i <= floor(log2(ln 2 / -ln(1 - tol))) with
    ||((I - X X^T) sigma)^(2^i)||_F <= 1/2, which bounds every eigenvalue of
    sigma outside the span of X by 2^(-2^(-i)) < 1 - tol, or None."""
    cap = int(np.floor(np.log2(np.log(2.0) / -np.log1p(-tol))))
    complement = form.matrix - basis @ (basis.T @ form.matrix)
    for i in range(cap + 1):
        if np.linalg.norm(complement) <= 0.5:
            return i
        complement = complement @ complement
    return None


def svd_invariant_state(form: RealTransfer, tol: float = 1e-8) -> DensityState:
    """The unique invariant state: the one left singular vector of sigma - I
    at 1, scaled to unit trace."""
    _, predual_fixed = svd_fixed_kernels(form, tol)
    if predual_fixed.shape[1] != 1:
        raise ValueError("the fixed space of the predual is not one-dimensional")
    rho = OperatorSubspace.from_hermitian(predual_fixed, form.n).basis[0]
    rho = 0.5 * (rho + rho.conj().T)
    return DensityState.from_matrix(rho / np.trace(rho).real)


def peripheral_eigenspace(
    form: RealTransfer, value: complex, set_tol: float = DEFAULT_SET_TOL
) -> np.ndarray:
    """Orthonormal Hermitian coordinates (columns) of the eigenspace of sigma
    at a peripheral value: the kernel of sigma - value at threshold
    ``set_tol``, real at a real value; within ``set_tol`` of 1 it is the
    fixed kernel."""
    if abs(value - 1.0) <= set_tol:
        return svd_route_fixed_kernels(form, set_tol)[0]
    return kernel(shifted(form, value), set_tol, scale=1.0)


@dataclass(frozen=True)
class OraclePeripheralValue:
    """A unimodular eigenvalue as the oracle records it: both multiplicities,
    which the library requires to agree and reports as one."""

    value: complex
    multiplicity: int  # geometric: the dimension of the eigenspace found at set_tol (may be 0)
    operator: np.ndarray  # representative eigen-operator, unit trace norm
    algebraic: int  # the number of eigenvalues eig places in this value's cluster


def kernel_peripheral_spectrum(
    system: PopescuSystem,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    set_tol: float = DEFAULT_SET_TOL,
) -> list[OraclePeripheralValue]:
    """The peripheral spectrum with the kernel of sigma - value at threshold
    ``set_tol`` for every value off 1, whatever its cluster size; the value
    1 reads the fixed kernels. A kernel that misses its value reports
    geometric multiplicity 0 with eig's eigenvector as the operator, and
    nothing is raised on a mismatch. Only the matrix of the system's
    transfer map is read, not its Ritz pair."""
    form, n = system.transfer, system.n
    dec = eig(form.matrix)
    on_circle = [complex(z) for z in dec.eigenvalues if abs(1.0 - abs(z)) <= tol]
    out = []
    for value, algebraic in value_clusters(on_circle, set_tol):
        space = peripheral_eigenspace(form, value, set_tol)
        geometric = space.shape[1]
        if geometric == 0:
            idx = int(np.argmin(np.abs(dec.eigenvalues - value)))
            space = dec.eigenvectors[:, idx : idx + 1]
        op = _from_hermitian(space[:, 0])
        op = op / np.linalg.norm(op, "nuc")
        out.append(
            OraclePeripheralValue(
                value=value,
                multiplicity=geometric,
                operator=_canonical_phase(op),
                algebraic=algebraic,
            )
        )
    out.sort(key=lambda p: (abs(np.angle(p.value)), np.angle(p.value)))
    return out


def kernel_eigenunitary(
    system: PopescuSystem, state: DensityState, t: complex, tol: float = 1e-8
) -> np.ndarray:
    """The unitary U with sigma(U) = conj(t) U, phase-fixed, from its own
    complex kernel of sigma - conj(t) at threshold ``tol``, rescaled and
    checked for unitarity and for U V_i U* = t V_i."""
    if abs(abs(t) - 1.0) > 1e-6:
        raise ValueError(f"t = {t} is not unimodular")
    if not state.faithful:
        raise ValueError("eigenunitary extraction requires a faithful invariant state")
    if invariance_residual(system, state.rho) > max(tol, 1e-9):
        raise ValueError("state is not invariant")
    form = real_transfer(system)
    if fixed_points(system).dim != 1:
        raise ValueError("transfer map is not ergodic; eigenunitary is not unique")
    space = kernel(shifted(form, np.conj(t)), tol, scale=1.0)
    if space.shape[1] == 0:
        raise ValueError(f"t = {t} is not in the peripheral spectrum at tolerance {tol:.1e}")
    u = _from_hermitian(space[:, 0])
    u = u / np.sqrt(np.trace(u.conj().T @ u).real / system.n)
    if np.linalg.norm(u.conj().T @ u - np.eye(system.n), 2) > tol:
        raise NumericalHealthError("peripheral eigenvector fails unitarity after rescaling")
    u = _canonical_phase(u)
    if max(np.linalg.norm(u @ v @ u.conj().T - t * v, 2) for v in system.operators) > max(tol, 1e-8):
        raise NumericalHealthError("eigenunitary does not scale the generators")
    return u


def intersection_dim(a: OperatorSubspace, b: OperatorSubspace, tol: float = 1e-8) -> int:
    """Dimension of the intersection of two subspaces, via principal angles."""
    if a.dim == 0 or b.dim == 0:
        return 0
    s = np.linalg.svd(a.to_columns().conj().T @ b.to_columns(), compute_uv=False)
    return int(np.sum(s >= 1.0 - tol))


@dataclass(frozen=True)
class ChainHypotheses:
    """The three hypotheses of the two-sided chain purity criterion, each
    decided on its own by :func:`commutant_chain_verdicts`."""

    m_is_factor: bool
    fixed_equals_m_prime: bool
    phi_faithful: bool

    def all_met(self) -> bool:
        return self.m_is_factor and self.fixed_equals_m_prime and self.phi_faithful


def commutant_chain_verdicts(
    system: PopescuSystem, tol: float = 1e-8, tol_peripheral: float = 1e-9
) -> tuple[ChainHypotheses, bool | str, bool | None]:
    """(hypotheses, chain_pure, chain_factor) by the full commutant route.

    The system is compressed to the support of its invariant state when
    that state is not faithful. M' and M = M'' are complex kernels over all
    of M_n; M is a factor when it meets M' in one dimension; the fixed
    space equals M' when each projects onto the other; the chain state is
    pure when the unimodular eigenvalues of sigma restricted to M are {1}.
    """
    state = invariant_state(system)
    if not state.faithful:
        system = compress(system, state.carrier)
        state = invariant_state(system)
    comm = vec_commutant(system.operators, tol)
    algebra = vec_commutant(comm.basis, tol)
    hyp = ChainHypotheses(
        m_is_factor=intersection_dim(algebra, comm, tol) == 1,
        fixed_equals_m_prime=vec_fixed_points(system, tol).span_equals(comm, tol),
        phi_faithful=state.faithful,
    )
    if not hyp.all_met():
        return hyp, HYPOTHESES_NOT_MET, None
    q = algebra.to_columns()
    vals = np.linalg.eigvals(q.conj().T @ sigma_matrix(system) @ q)
    peri = distinct_values([z for z in vals if abs(1.0 - abs(z)) <= tol_peripheral], tol)
    pure = spectral_sets_match(peri, [1.0], tol)
    return hyp, pure, pure


def is_algebra(sub: OperatorSubspace, tol: float = 1e-8) -> bool:
    """True iff the span contains I and is closed under products."""
    if sub.dim == 0:
        raise ValueError("subspace is empty")
    if sub.shape[0] != sub.shape[1]:
        return False
    if not sub.contains(np.eye(sub.shape[0]), tol):
        return False
    for a in sub.basis:
        for b in sub.basis:
            if not sub.contains(a @ b, tol):
                return False
    return True


def generated_algebra(generators, tol: float = 1e-10) -> OperatorSubspace:
    """The unital *-algebra M generated by the operators, as the bicommutant M''.

    In finite dimensions a unital *-algebra equals its double commutant, so
    M is the commutant of a basis of the commutant of the generators.
    """
    return commutant(commutant(generators, tol).basis, tol)


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


def dense_shifts(dil: TruncatedDilation) -> tuple[np.ndarray, ...]:
    """The compressed shifts S_i = e_i (x) (I_{d^{L-1}} (x) row) as dense q x q arrays."""
    d = dil.system.d
    middle = np.kron(np.eye(d ** (dil.level - 1)), dil.row)
    return tuple(np.kron(np.eye(d)[:, i : i + 1], middle) for i in range(d))


def product_cuntz_residuals(dil: TruncatedDilation, ord="fro") -> tuple[float, float]:
    """Isometry and completeness residuals from the q x q operator products.

    max_ij ||(S_i* S_j - delta_ij I) w|| and ||(sum_i S_i S_i* - I) w|| with
    w = ``level_subspace(L-1)``, over every pair (i, j), in the matrix norm
    ``ord``: Frobenius, as the library reports them, or ``ord=2`` for the
    spectral norms, which bound them from below.
    """
    w = dil.level_subspace(dil.level - 1)
    q = dil.dim
    shifts = dense_shifts(dil)
    iso = 0.0
    for i, si in enumerate(shifts):
        for j, sj in enumerate(shifts):
            delta = np.eye(q) if i == j else np.zeros((q, q))
            iso = max(iso, float(np.linalg.norm((si.conj().T @ sj - delta) @ w, ord)))
    comp_op = sum(s @ s.conj().T for s in shifts) - np.eye(q)
    return iso, float(np.linalg.norm(comp_op @ w, ord))


def matvec_dilation_moments(dil: TruncatedDilation, omega, max_len: int) -> np.ndarray:
    """C(I, J) = <S_I* root, S_J* root>, each S_I* root by |I| separate mat-vecs."""
    root = dil.base_embedding @ np.asarray(omega, dtype=complex)
    shifts = dense_shifts(dil)
    adj = []
    for word in words_up_to(dil.system.d, max_len):
        u = root
        for letter in word:  # S_I* applies S_{i_1}* first
            u = shifts[letter].conj().T @ u
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


def transpose_permutation(n: int) -> np.ndarray:
    """Permutation K with K vec(A) = vec(A^T)."""
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k[j + i * n, i + j * n] = 1.0
    return k


def kron_modular(state: DensityState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Delta^{1/2}, Delta^{-1/2}, K) as n^2 x n^2 matrices in vec coordinates.

    Delta^{1/2} vec(X) = vec(rho^{1/2} X rho^{-1/2}) = (rho^{-1/2 T} kron rho^{1/2}) vec X,
    and J vec(A) = K conj(vec A) = vec(A*).
    """
    rs, rsi = herm_sqrt(state.rho), herm_inv_sqrt(state.rho, 1e-10)
    return np.kron(rsi.T, rs), np.kron(rs.T, rsi), transpose_permutation(state.n)


def kron_dual_generators(system: PopescuSystem, state: DensityState) -> list[np.ndarray]:
    """The n^2 x n^2 matrices of J Delta^{-1/2} (I kron V_j*) Delta^{1/2} J."""
    dh, dmh, k = kron_modular(state)
    eye = np.eye(system.n)
    return [
        k @ np.conj(dmh @ np.kron(eye, v.conj().T) @ dh) @ k for v in system.operators
    ]


def kron_duality_residuals(system: PopescuSystem, state: DensityState) -> dict[str, float]:
    """Every duality residual by the Kronecker route, in spectral norm.

    ``commutation`` is max_ij ||[composed_i, I kron V_j]||, which the
    closed form takes as exact; the other keys are the fields of
    :class:`fcstates.modular.DualityReport` and ``parameter_isometry``.
    """
    n = system.n
    dh, dmh, k = kron_modular(state)
    rho, rs, rsi = state.rho, herm_sqrt(state.rho), herm_inv_sqrt(state.rho, 1e-10)
    eye, eye2 = np.eye(n), np.eye(n * n)
    ops = kron_dual_generators(system, state)
    params = [rs @ v @ rsi for v in system.operators]
    left = [np.kron(eye, v) for v in system.operators]
    norm2 = lambda m: float(np.linalg.norm(m, 2))  # noqa: E731
    return {
        "completeness": norm2(sum(m @ m.conj().T for m in ops) - eye2),
        # the modular data of the commutant is (J, Delta^{-1})
        "double_dual": max(
            norm2(k @ np.conj(dh @ m.conj().T @ dmh) @ k - lv) for m, lv in zip(ops, left)
        ),
        "dual_invariance": norm2(sum(w @ rho @ w.conj().T for w in params) - rho),
        "vector_consistency": max(
            float(np.linalg.norm(rs @ w.conj().T - v.conj().T @ rs))
            for v, w in zip(system.operators, params)
        ),
        "commutation": max(norm2(m @ lv - lv @ m) for m in ops for lv in left),
        "parameter_isometry": norm2(sum(w.conj().T @ w for w in params) - eye),
        "predual_invariance": norm2(sum(v.conj().T @ rho @ v for v in system.operators) - rho),
    }


def two_eig_compare_duals(dual: DualSystem, tol: float = 1e-8) -> dict:
    """Ergodicity and peripheral-spectrum agreement of the dual pair from
    two eigensolves: the system's transfer map and that of the dual
    parameter system (W_1*, ..., W_d*), each with its own kernels."""
    peri = peripheral_spectrum(dual.system)
    dperi = peripheral_spectrum(dual.parameter_system())
    values = tuple(p.value for p in peri)
    dvalues = tuple(p.value for p in dperi)
    return {
        "ergodic_match": (peri[0].multiplicity == 1) == (dperi[0].multiplicity == 1),
        "psp_match": spectral_sets_match(values, dvalues, tol),
        "peripheral": values,
        "dual_peripheral": dvalues,
    }
