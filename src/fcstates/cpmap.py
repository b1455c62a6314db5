"""The transfer superoperator and everything spectral/algebraic derived from it.

The completely positive unital map sigma(X) = sum_i V_i X V_i* and its
trace-preserving predual sigma_*(rho) = sum_i V_i* rho V_i are materialized
as one n^2 x n^2 matrix, built in vec coordinates and gathered into
Hermitian coordinates.

*vec coordinates* act on column-stacked n x n matrices. The convention is

    vec(A X B) = (B^T kron A) vec(X)     (column stacking),

so the forward matrix is sum_i conj(V_i) kron V_i (:func:`sigma_matrix`).
Where sigma or sigma_* meets a single matrix (a co-invariance test, the
invariance residual of a state) it is applied directly, at O(d n^3).

*Hermitian coordinates* expand a matrix in the trace-orthonormal basis of
Hermitian matrices

    E_jj,   (E_jk + E_kj)/sqrt(2),   i(E_jk - E_kj)/sqrt(2)     (j < k),

in that order. A Hermitian matrix has real coordinates, and a map that
commutes with the adjoint (sigma, sigma_*, X -> i[X, K] for Hermitian K) has
a real matrix, with the same eigenvalues and singular values as in vec
coordinates because the change of basis B is unitary. :func:`real_form`
computes B* M B by an index gather, each basis vector having at most two
nonzero vec entries. The real matrix of sigma is :class:`RealTransfer`; that
of sigma_* is its transpose. Each system holds its own, built on first use
(:attr:`PopescuSystem.transfer <fcstates.popescu.PopescuSystem.transfer>`),
and every stage here takes the system and reads that one map. Fixed
points, the invariant state, the peripheral spectrum and commutants are
computed there in real arithmetic, and the subspaces they return have
Hermitian bases. A complex matrix is stepped there as two real columns,
its Hermitian and anti-Hermitian parts (:meth:`RealTransfer.pairings`).

Every spectral question needs only the eigenvalues on or near the unit
circle, so each is answered by Rayleigh-Ritz on a p-dimensional invariant
subspace X that holds them: repeated squaring of sigma and a random sample
of its range find X, and a norm bound from the power the sampling holds
certifies that every other eigenvalue lies strictly inside the circle
(:meth:`RealTransfer.ritz_matrix`). eig, the fixed space and each
peripheral eigenspace are solved on the p x p matrix X^T sigma X; the
predual's fixed space is one LU solve. Only when every eigenvalue
survives the squaring is p = n^2 and the whole matrix solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import exp, isqrt, log1p, sqrt

import numpy as np

from .errors import NumericalHealthError, ValidationError
from .numerics import as_matrix, distinct_values, eig, kernel, value_clusters
from .popescu import PopescuSystem, validate

__all__ = [
    "vec",
    "unvec",
    "real_form",
    "RealTransfer",
    "OperatorSubspace",
    "DensityState",
    "PeripheralEigenvalue",
    "sigma_matrix",
    "real_transfer",
    "fixed_points",
    "commutant",
    "invariant_state",
    "check_invariant",
    "coinvariance_check",
    "invariance_bound",
    "invariance_residual",
    "peripheral_spectrum",
    "peripheral_eigenunitary",
    "root_of_unity_phase",
    "gauge_group_order",
    "mixed_fixed_points",
]

DEFAULT_SUBSPACE_TOL = 1e-8
DEFAULT_PERIPHERAL_TOL = 1e-9
DEFAULT_SET_TOL = 1e-8

# the peripheral subspace (RealTransfer.ritz_matrix): the first sample
# width and its seed; the relative bound of the dropped singular values of
# the sample, and of the invariance residual (that of numerics.eig); the
# least relative size of a kept one; the squarings after which a sample
# with no gap widens
_RITZ_BLOCK = 8
_RITZ_SEED = 0
_RITZ_GAP = 1e-10
_RITZ_KEEP = 1e-4
_RITZ_MAX_SQUARINGS = 40


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if shape is None:
        m = int(round(np.sqrt(v.size)))
        shape = (m, m)
    return v.reshape(shape, order="F")


_HALF_SQRT2 = np.sqrt(0.5)


@cache
def _hermitian_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec positions of the diagonal entries (j, j), and of the entries (j, k)
    and (k, j) for j < k, in the order of the Hermitian basis.

    Built once per n and shared, so the arrays are read-only."""
    j, k = np.triu_indices(n, 1)
    index = np.arange(n) * (n + 1), j + k * n, k + j * n
    for a in index:
        a.flags.writeable = False
    return index


def _to_hermitian(x: np.ndarray) -> np.ndarray:
    """Hermitian coordinates (last axis) of n x n matrices (last two axes)."""
    n = x.shape[-1]
    dg, lo, up = _hermitian_index(n)  # row-major: up holds (j, k), lo (k, j)
    flat = x.reshape(*x.shape[:-2], n * n)
    xu, xl = flat[..., up], flat[..., lo]
    return np.concatenate(
        [flat[..., dg], _HALF_SQRT2 * (xu + xl), -1j * _HALF_SQRT2 * (xu - xl)], axis=-1
    )


def _from_hermitian(c: np.ndarray) -> np.ndarray:
    """The n x n matrices (last two axes) of Hermitian coordinates (last axis)."""
    n = isqrt(c.shape[-1])
    dg, lo, up = _hermitian_index(n)
    p = up.size
    sym = _HALF_SQRT2 * c[..., n : n + p]
    anti = 1j * _HALF_SQRT2 * c[..., n + p :]
    x = np.empty(c.shape, dtype=complex)
    x[..., dg], x[..., up], x[..., lo] = c[..., :n], sym + anti, sym - anti
    return x.reshape(*c.shape[:-1], n, n)


def real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix B* M B, in Hermitian coordinates, of a map given in vec
    coordinates.

    ``m`` acts on its last two axes (a stack of maps is converted at once)
    and must commute with the adjoint, X -> X*; the imaginary part that
    roundoff leaves is discarded. Costs O(n^4) per map, with no matrix
    product.
    """
    dg, up, lo = _hermitian_index(isqrt(m.shape[-1]))
    mu, ml = m[..., up], m[..., lo]
    mb = np.concatenate(
        [m[..., dg], _HALF_SQRT2 * (mu + ml), 1j * _HALF_SQRT2 * (mu - ml)], axis=-1
    )
    ru, rl = mb[..., up, :], mb[..., lo, :]
    return np.concatenate(
        [mb[..., dg, :].real, _HALF_SQRT2 * (ru + rl).real, _HALF_SQRT2 * (ru - rl).imag],
        axis=-2,
    )


def sigma_matrix(system: PopescuSystem) -> np.ndarray:
    """The n^2 x n^2 matrix of the forward transfer map X -> sum_i V_i X V_i*
    in vec coordinates.

    It is unital to within the system's validation residual, which
    :func:`~fcstates.popescu.validate` decides when the system is built."""
    return sum(np.kron(v.conj(), v) for v in system.operators)


@dataclass(frozen=True)
class RealTransfer:
    """The forward map sigma of one system, in Hermitian coordinates.

    ``matrix[a, b] = trace(H_a sigma(H_b))`` for the Hermitian basis H, a
    real n^2 x n^2 matrix; the predual sigma_* is its transpose.
    ``residual`` is the system's ||sum_i V_i V_i* - I||, which the
    certificate of :meth:`ritz_matrix` reads. A system holds its own as
    :attr:`PopescuSystem.transfer <fcstates.popescu.PopescuSystem.transfer>`,
    and the stages (:func:`fixed_points`, :func:`invariant_state`,
    :func:`peripheral_spectrum`) read one held object from it: the Ritz
    pair (X, S = X^T sigma X) of a certified invariant subspace that holds
    the value 1 and every peripheral eigenspace (:meth:`ritz_matrix`), so
    each of those is a kernel of the p x p matrix S - t mapped by X. Only
    the fixed space of the predual takes an n^2 x n^2 factorization, one LU
    solve (:meth:`fixed_kernels`). The map holds no reference to its
    system, so it is freed with it.
    """

    matrix: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return isqrt(self.matrix.shape[0])

    def _sampled_basis(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The orthonormalized P U_p of :meth:`ritz_matrix`, the power
        P = sigma^m that gave it and m, or None when no sample narrower than
        n^2 shows a gap that P U_p keeps."""
        size = self.matrix.shape[0]
        rng = np.random.default_rng(_RITZ_SEED)
        power, squarings = self.matrix, 0  # power = sigma^(2^squarings)
        width = min(size, _RITZ_BLOCK)
        while width < size:
            sample = rng.standard_normal((size, width))
            seen = []
            while True:
                u, s, _ = np.linalg.svd(power @ sample, full_matrices=False)
                p = int(np.sum(s > _RITZ_GAP * s[0]))
                if p < width and s[p - 1] >= _RITZ_KEEP * s[0]:
                    # one more application of the power squares the share of
                    # the dropped directions in the kept ones, unless it
                    # loses rank: a gap made by a nilpotent part of sigma
                    kept = power @ u[:, :p]
                    s_kept = np.linalg.svd(kept, compute_uv=False)
                    if s_kept[-1] > _RITZ_GAP * s_kept[0]:
                        return np.linalg.qr(kept)[0], power, 2**squarings
                ratios = s / s[0]
                if (
                    squarings == _RITZ_MAX_SQUARINGS
                    or 2 ** (squarings + 1) * self.residual > 1 / 16
                    or any(np.max(np.abs(ratios - r)) <= 1e-9 for r in seen)
                ):
                    break
                seen.append(ratios)
                power = power @ power
                squarings += 1
            width = min(2 * width, size)
        return None

    @cached_property
    def _dominant_subspace(self) -> tuple[np.ndarray, np.ndarray, float, int]:
        # X, S, the certificate c and m; X = I leaves no complement, c = 0
        sampled = self._sampled_basis()
        if sampled is None:
            return np.eye(self.matrix.shape[0]), self.matrix, 0.0, 1
        basis, power, m = sampled
        image = self.matrix @ basis
        ritz = basis.T @ image
        drift = float(np.linalg.norm(image - basis @ ritz))
        scale = np.linalg.norm(self.matrix, axis=0).max()
        if drift > _RITZ_GAP * scale:
            raise NumericalHealthError(
                f"the sampled {basis.shape[1]}-dimensional peripheral subspace has "
                f"invariance residual {drift / scale:.3e}, above {_RITZ_GAP:.0e}"
            )
        n, unital = self.n, self.residual
        if m * sqrt(n) * drift > 0.5 or m * unital > 1 / 16:
            raise NumericalHealthError(
                f"no certificate at sigma^{m}: m sqrt(n) ||R||_F = {m * sqrt(n) * drift:.3e} "
                f"(at most 1/2), m ||sum_i V_i V_i* - I|| = {m * unital:.3e} (at most 1/16)"
            )
        complement = power - basis @ (basis.T @ power)
        complement -= (complement @ basis) @ basis.T
        return basis, ritz, float(np.linalg.norm(complement)) + 2 * m * n * drift, m

    def ritz_matrix(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """An orthonormal real basis X (columns) of a sigma-invariant subspace
        that holds every eigenvalue of modulus at least 1 - ``tol``, and the
        p x p Ritz matrix S = X^T sigma X, whose eigenvalues are those
        eigenvalues of sigma.

        *Sampling.* sigma is squared, P = sigma^m with m = 2^j, and the
        range of P is sampled as P G for a seeded Gaussian block G of
        b = min(n^2, 8) columns. Under squaring each eigenvalue of modulus
        below 1 decays doubly exponentially, and the semisimple peripheral
        part stays bounded, so the singular values s_1 >= s_2 >= ... of P G
        develop a gap: p < b of them above 1e-10 s_1, each of those at least
        1e-4 s_1. X is then the orthonormalized P U_p, U_p the first p left
        singular vectors. That one more application of P leaves a dropped
        direction a share of at most (1e-10 / 1e-4)^2 in a kept one, and
        roundoff of size eps s_1 moves a kept singular vector by about as
        much, 1e-12. A gap can also be made by exact zeros: a nilpotent part
        of sigma (scaled partial permutations V_i, with rank sigma^2 <
        rank sigma) leaves P U_p of lower rank than p, and its QR would pad
        X with junk columns. So P U_p is taken only when its least singular
        value exceeds 1e-10 times its largest; otherwise squaring goes on
        until the nilpotent part is gone. A sample that stops changing
        without a gap (its normalized singular values repeat within 1e-9
        those of an earlier squaring, as when P has converged to a
        projection of rank at least b, or cycles through the powers of a
        root of unity), that has none after 40 squarings, or that one more
        squaring would take past m r = 1/16, the largest m the certificate
        accepts, is redrawn with 2b columns, squaring on from the same P. A
        residual r that is not uniform grows the top values at different
        rates (1 + O(r))^m, so only that cap stops them; a slow mixer with
        1 - |lambda_2| below about 370 r, whose gap needs m about
        23 / (1 - |lambda_2|), so widens to X = I. There S is sigma itself,
        with the empty certificate c = 0: a map with every eigenvalue on the
        circle (V_i = c_i U) is solved whole.

        *Invariance.* R = sigma X - X S must have ||R||_F =: g at most 1e-10
        times the largest column norm of sigma, the bound
        :func:`~fcstates.numerics.eig` puts on its own residual.

        *Certificate.* One number, held with X and S, bounds every other
        eigenvalue by c^(1/m), with Q = I - X X^T:

            c = ||Q P Q||_F + 2 m n g.

        X^T R = 0, so sigma = A + R X^T with A block upper triangular in
        (X, X^perp), diagonal blocks S and T = X^perp^T sigma X^perp: the
        eigenvalues of sigma up to the invariance residual. Norms ||.||_2
        of n^2 x n^2 matrices are taken on Hermitian coordinates, where the
        Euclidean norm is the Hilbert-Schmidt norm |Y| >= ||Y||. With r the
        residual ||sum_i V_i V_i* - I||, Russo-Dye bounds each power of the
        CP map sigma by ||sigma^k(1)|| <= (1 + r)^k in operator norm, and
        |Y| <= sqrt(n) ||Y||, so ||sigma^k||_2 <= K = sqrt(n) (1 + r)^m for
        k <= m (K = sqrt(n) for a unital map). Telescoping
        sigma^j - A^j = sum_{k<j} sigma^k R X^T A^(j-1-k) gives by
        induction ||A^j||_2 <= K (1 + K g)^j, and then

            ||sigma^m - A^m||_2 <= m K^2 g (1 + K g)^(m-1)
                                <= m n g exp(2 m r + m K g) < 2 m n g

        when m sqrt(n) g <= 1/2 and m r <= 1/16, as the exponent is at most
        1/8 + exp(1/16)/2 < ln 2; otherwise the sampling aborts with
        :class:`NumericalHealthError`. The lower block of A^m is T^m, so
        |lambda|^m <= ||T^m||_2 <= ||X^perp^T P X^perp||_2 + 2 m n g <= c
        for every eigenvalue lambda of T. This call requires
        c^(1/m) < 1 - ``tol``, tested as c < exp(m log1p(-tol)), and
        raises :class:`NumericalHealthError` otherwise; a peripheral
        direction that the sample missed stays unimodular in T and keeps
        c >= 1. ``tol`` must lie in (0, 1/2).
        """
        if not 0.0 < tol < 0.5:
            raise ValueError(f"tol = {tol} must lie in (0, 1/2)")
        basis, ritz, certificate, m = self._dominant_subspace
        if certificate >= exp(m * log1p(-tol)):
            raise NumericalHealthError(
                f"the eigenvalues of sigma outside its {basis.shape[1]} Ritz values are not "
                f"certified below 1 - {tol:.1e}: c = {certificate:.3e} bounds ||T^m||, m = {m}, "
                f"c^(1/m) = {certificate ** (1 / m):.12f}; the sample misses a peripheral "
                "direction, or one lies at the tolerance boundary"
            )
        return basis, ritz

    def _fixed_basis(self, tol: float) -> np.ndarray:
        """F = X ker(S - I) of :meth:`fixed_kernels`."""
        basis, ritz, certificate, m = self._dominant_subspace
        if certificate >= 1.0:
            raise NumericalHealthError(
                f"the fixed space of sigma is not certified inside its {basis.shape[1]} Ritz "
                f"values: c = {certificate:.3e} >= 1 bounds ||T^m||, m = {m}"
            )
        return basis @ kernel(ritz - np.eye(ritz.shape[0]), tol, scale=1.0)

    def fixed_kernels(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """A real orthonormal basis F (columns) of the fixed space of sigma,
        and the basis H of that of its predual sigma^T with F^T H = I.

        F is X times the kernel of S - I at threshold ``tol`` (the scale of
        sigma is 1), the p x p Ritz matrix of :meth:`ritz_matrix`, whose
        certificate must be c < 1: a fixed direction outside X would keep
        c >= 1. H is one LU solve with f right-hand sides,

            (sigma^T - I + F F^T) H = F.

        F^T (sigma^T - I) = 0, so F^T applied to the system gives F^T H = I,
        and then (sigma^T - I) H = F - F F^T H = 0. The bordered matrix is
        nonsingular exactly when F spans Fix(sigma). A null vector x has
        F^T x = 0 by the same step and lies in the fixed space R of the
        predual. The eigenvalue 1 of a unital CP map is semisimple (sigma
        is a contraction in operator norm, so it has no Jordan block on the
        circle), so R and Fix(sigma) have one dimension and F^T R is
        nonsingular when F spans Fix(sigma): x = 0. When F spans less, R
        meets the kernel of F^T. A singular bordered matrix raises
        :class:`NumericalHealthError`, as does ||(sigma^T - I) H||_F above
        ``tol`` ||H||_F: the solve gives (sigma^T - I) H =
        F ((sigma - I) F)^T H, so only an F that sigma does not fix to
        ``tol`` fails it.
        """
        fixed = self._fixed_basis(tol)
        bordered = self.matrix.T - np.eye(self.matrix.shape[0]) + fixed @ fixed.T
        try:
            dual = np.linalg.solve(bordered, fixed)
        except np.linalg.LinAlgError as exc:
            raise NumericalHealthError(
                f"the bordered matrix sigma^T - I + F F^T is singular: F "
                f"({fixed.shape[1]} columns) does not span the fixed space of sigma"
            ) from exc
        resid, gate = np.linalg.norm(self.matrix.T @ dual - dual), tol * np.linalg.norm(dual)
        if resid > gate:
            raise NumericalHealthError(
                f"the bordered solve H has residual ||(sigma^T - I) H||_F = {resid:.3e}, above "
                f"its bound {gate:.3e}: F ({fixed.shape[1]} columns) does not span the fixed "
                "space of sigma"
            )
        return fixed, dual

    def pairings(self, r: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
        """trace(R sigma^s(B)) for s = 0..steps, for n x n matrices R and B.

        B has Hermitian coordinates h + i k, h and k real (those of its
        Hermitian and anti-Hermitian parts); sigma commutes with the
        adjoint, so both are stepped as real vectors, O(n^4) per step.
        trace(R H_a) is the a-th Hermitian coordinate of R, p + i q, so each
        value is (p.h - q.k) + i (q.h + p.k), contracted in real arithmetic.
        """
        c = _to_hermitian(b)
        orbit = np.empty((steps + 1, 2, c.size))
        orbit[0] = c.real, c.imag
        for s in range(steps):
            np.matmul(orbit[s], self.matrix.T, out=orbit[s + 1])
        c = _to_hermitian(r)
        g = orbit @ np.stack([c.real, c.imag], axis=1)
        return g[:, 0, 0] - g[:, 1, 1] + 1j * (g[:, 0, 1] + g[:, 1, 0])


def real_transfer(system: PopescuSystem) -> RealTransfer:
    """sigma of the system as a real matrix in Hermitian coordinates, built
    anew on each call; the stages read the one the system holds,
    :attr:`PopescuSystem.transfer <fcstates.popescu.PopescuSystem.transfer>`."""
    return RealTransfer(real_form(sigma_matrix(system)), validate(system))


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of matrices with a trace-orthonormal basis, held as
    one (dim, rows, cols) complex array; matrices of another shape raise."""

    basis: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=complex)
        basis = basis.reshape(0, *self.shape) if basis.size == 0 else basis
        if basis.shape[1:] != tuple(self.shape):
            raise ValueError(f"a basis of shape {basis.shape} does not hold {self.shape} matrices")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_vectors(cls, columns: np.ndarray, shape: tuple[int, int]) -> "OperatorSubspace":
        return cls(columns.T.reshape(columns.shape[1], shape[1], shape[0]).swapaxes(1, 2), shape)

    @classmethod
    def from_hermitian(cls, columns: np.ndarray, n: int) -> "OperatorSubspace":
        """The subspace of n x n matrices with the given Hermitian coordinates."""
        return cls(_from_hermitian(columns.T), (n, n))

    def compressed(self, carrier: np.ndarray) -> "OperatorSubspace":
        """The span of B* F_j B over the Hermitian basis F_j, for an n x r
        isometry B, orthonormalized by one QR in Hermitian coordinates that
        keeps every column: from Fix(sigma) and the support of an invariant
        state, the compression's fixed space (Carbone-Pautrat)."""
        coords = _to_hermitian(carrier.conj().T @ self.basis @ carrier).real.T
        return OperatorSubspace.from_hermitian(np.linalg.qr(coords)[0], carrier.shape[1])

    def hermitian_columns(self) -> np.ndarray:
        """Real Hermitian coordinates of the basis, which must be Hermitian."""
        c = _to_hermitian(self.basis).T
        if np.abs(c.imag).max(initial=0.0) > 1e-12:
            raise ValueError("subspace basis is not Hermitian")
        return c.real

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def to_columns(self) -> np.ndarray:
        return self.basis.swapaxes(1, 2).reshape(self.dim, self.shape[0] * self.shape[1]).T

    def gram(self) -> np.ndarray:
        q = self.to_columns()
        return q.conj().T @ q

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a matrix onto the subspace."""
        return np.tensordot(np.tensordot(self.basis.conj(), x, 2), self.basis, 1)

    def contains(self, x: np.ndarray, tol: float = DEFAULT_SUBSPACE_TOL) -> bool:
        scale = max(np.linalg.norm(x), 1.0)
        return bool(np.linalg.norm(x - self.project(x)) <= tol * scale)

    def span_equals(self, other: "OperatorSubspace", tol: float = DEFAULT_SUBSPACE_TOL) -> bool:
        """Basis-independent equality: mutual projection residuals below tol."""
        if self.shape != other.shape or self.dim != other.dim:
            return False
        qa, qb = self.to_columns(), other.to_columns()
        ra = np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2) if self.dim else 0.0
        rb = np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2) if other.dim else 0.0
        return bool(max(ra, rb) <= tol)


@dataclass(frozen=True, eq=False)
class DensityState:
    """A positive unit-trace matrix, held as its eigendecomposition.

    ``weights`` ascend, clipped at 0 and summing to 1, over the orthonormal
    eigenvectors in the columns of ``vectors``; rho, rho^{+-1/2} and the
    support are read from them. ``carrier``, the n x r basis of the support,
    holds the eigenvectors of weight above 1e-8 times the largest, and
    ``faithful`` (r = n) is the one rule for faithfulness. A given matrix is
    checked by :meth:`from_matrix`. States compare by identity.
    """

    weights: np.ndarray
    vectors: np.ndarray

    @classmethod
    def from_matrix(cls, rho, tol: float = 1e-10) -> "DensityState":
        rho = as_matrix(rho, "density matrix")
        if np.linalg.norm(rho - rho.conj().T, 2) > max(tol, 1e-10):
            raise ValidationError("density matrix is not Hermitian within tolerance")
        vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        if vals[0] < -max(tol, 1e-10):
            raise ValidationError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
        vals = np.clip(vals, 0.0, None)
        tr = float(vals.sum())
        if abs(tr - 1.0) > 1e-6:
            raise ValidationError(f"density matrix has trace {tr:.6f}, expected 1")
        return cls(vals / tr, vecs)

    @cached_property
    def rho(self) -> np.ndarray:
        return (self.vectors * self.weights[None, :]) @ self.vectors.conj().T

    @cached_property
    def carrier(self) -> np.ndarray:
        """Orthonormal n x r basis of the support, an isometry."""
        return self.vectors[:, self.weights > DEFAULT_SUBSPACE_TOL * self.weights[-1]]

    @property
    def support(self) -> np.ndarray:
        return self.carrier @ self.carrier.conj().T

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def rank(self) -> int:
        return self.carrier.shape[1]

    @property
    def faithful(self) -> bool:
        return self.rank == self.n


def fixed_points(system: PopescuSystem, tol: float = DEFAULT_SUBSPACE_TOL) -> OperatorSubspace:
    """Orthonormal basis of {X : sigma(X) = X} of Hermitian matrices.

    The fixed set is *-closed and contains the commutant of the generators,
    but need not be an algebra. The basis is real in Hermitian coordinates,
    so its elements are Hermitian: X times the kernel of the Ritz matrix
    S - I at threshold ``tol`` (:meth:`RealTransfer.fixed_kernels`). For
    x = X y, ||(sigma - I) x|| = ||(S - I) y|| up to the invariance
    residual; a near-null direction of a non-normal sigma - I outside X,
    where the certificate puts every eigenvalue inside the circle, is not
    counted. It needs only c < 1 of the certificate, so it takes no
    peripheral tolerance; :func:`peripheral_spectrum` holds it as the space
    of the value 1.
    """
    return OperatorSubspace.from_hermitian(system.transfer._fixed_basis(tol), system.n)


def _hermitian_parts(gens: list[np.ndarray]) -> list[np.ndarray]:
    """(A + A*)/sqrt(2) for each generator A, and i(A - A*)/sqrt(2) for each
    A that is not Hermitian."""
    parts = [_HALF_SQRT2 * (g + g.conj().T) for g in gens]
    return parts + [1j * _HALF_SQRT2 * (g - g.conj().T) for g in gens if np.any(g != g.conj().T)]


def _commutant_constraints_within(
    gens: list[np.ndarray], within: OperatorSubspace
) -> np.ndarray:
    """The stacked real matrices, over the Hermitian parts K of the
    generators, of c -> i[sum_j c_j F_j, K] for the Hermitian basis
    F_1..F_f of ``within``: column j holds the Hermitian coordinates of the
    image i[F_j, K], so each K costs O(f n^3)."""
    f = within.basis
    blocks = []
    for k in _hermitian_parts(gens):
        images = 1j * (f @ k - k @ f)  # Hermitian, as F_j and K are
        blocks.append(_to_hermitian(images).real.T)
    return np.concatenate(blocks)


def commutant(
    generators,
    tol: float = DEFAULT_SUBSPACE_TOL,
    within: OperatorSubspace | None = None,
) -> OperatorSubspace:
    """Orthonormal basis of {X : XA = AX and XA* = A*X for all generators A}.

    X commutes with A and A* iff it commutes with the Hermitian matrices
    (A + A*)/sqrt(2) and i(A - A*)/sqrt(2). The constraints X -> i[X, K] for
    these K are stacked as real matrices in Hermitian coordinates. This is a
    unitary recombination of the (A, A*) constraints, so the singular
    values and the threshold are those of the (A, A*) stack. When A is
    Hermitian the second K is zero and is left out; the singular values
    stay the same.

    The result is the part of the commutant inside ``within``, a subspace
    with a Hermitian basis F_1..F_f, all n x n matrices by default (the
    Hermitian basis itself): X = sum_j c_j F_j, and the kernel is taken over
    the f coefficients c, from the images i[F_j, K]. That kernel is real,
    so the basis elements are Hermitian. The fixed space of the transfer map
    contains the commutant of its operators, so it serves as ``within``
    there.
    """
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must share a common square dimension")
    scale = max(1.0, float(np.linalg.norm(np.stack(gens), 2, axis=(1, 2)).max()))
    if within is None:
        within = OperatorSubspace.from_hermitian(np.eye(n * n), n)
    basis = within.hermitian_columns()
    null = kernel(_commutant_constraints_within(gens, within), tol, scale=scale)
    return OperatorSubspace.from_hermitian(basis @ null, n)


def invariant_state(system: PopescuSystem, rho0: np.ndarray | None = None) -> DensityState:
    """The sigma-invariant state reached from rho_0, as the exact Cesaro limit.

    The Cesaro mean of sigma_*^k(rho_0), from rho_0 = I/n or the given
    start, converges to the spectral projection of rho_0 onto the fixed
    space R of the predual, along the other spectral subspaces. With F the
    fixed space of sigma (the left eigenvectors of sigma_* for eigenvalue 1)
    that projection is

        rho = R (F* R)^{-1} F* vec(rho_0).

    F* R is invertible because eigenvalue 1 of a unital CP map is
    semisimple: sigma is a contraction in operator norm, so it has no Jordan
    block on the unit circle. As vec(I) lies in F, the trace of rho_0 is
    kept. When R is one-dimensional the state is the unique invariant one.

    F and R come from :meth:`RealTransfer.fixed_kernels` in Hermitian
    coordinates, where sigma_* is the transpose of sigma: F from the kernel
    of the Ritz matrix S - I, and the basis R = H of the predual's fixed
    space from one bordered LU solve, with F^T H = I. The projection is
    then rho = H F^T r_0, r_0 the coordinates of rho_0, whatever the
    dimension of the fixed space. The state is built from the one eigh of
    that rho, its eigenvalues clipped at 0 and normalized.

    A unital map fixes I, so an empty fixed space raises
    :class:`NumericalHealthError`, as does an eigenvalue below -1e-8 or a
    state with ||sigma_*(rho) - rho||_F above :func:`invariance_bound`.
    """
    form, n = system.transfer, system.n
    if rho0 is None:
        rho0 = np.eye(n) / n
    else:
        rho0 = as_matrix(rho0, "rho0")
        tr = np.trace(rho0)
        if abs(tr) < 1e-14:
            raise ValueError("rho0 must have nonzero trace")
        rho0 = rho0 / tr
    fixed, dual = form.fixed_kernels(DEFAULT_SUBSPACE_TOL)
    if not fixed.shape[1]:
        raise _missing_one(f"S - I has no kernel at threshold {DEFAULT_SUBSPACE_TOL:.1e}", system)
    rho = _from_hermitian(dual @ (fixed.T @ _to_hermitian(rho0)))
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if vals[0] < -1e-8:
        raise NumericalHealthError(
            f"Cesaro limit has a significantly negative eigenvalue {vals[0]:.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    state = DensityState(vals / vals.sum(), vecs)
    h = _to_hermitian(state.rho).real
    resid = float(np.linalg.norm(form.matrix.T @ h - h))
    gate = invariance_bound(system)
    if resid > gate:
        raise NumericalHealthError(
            f"invariant state has residual {resid:.3e}, above its bound {gate:.3e}"
        )
    return state


def coinvariance_check(system: PopescuSystem, p, tol: float = DEFAULT_SUBSPACE_TOL) -> bool:
    """Whether a projection p is hereditary-invariant, decided by three
    equivalent conditions evaluated numerically:

    1. sigma(p) <= lambda p for some lambda >= 0;
    2. V_i p = p V_i p for all i;
    3. sigma(p) <= p.

    The conditions coincide in exact arithmetic; a disagreement beyond
    tolerance indicates numerical ill health and raises, so the one value
    returned is that of all three.
    """
    p = as_matrix(p, "projection")
    if np.linalg.norm(p - p.conj().T, 2) > tol or np.linalg.norm(p @ p - p, 2) > tol:
        raise ValueError("p is not a projection within tolerance")
    sig_p = sum(v @ p @ v.conj().T for v in system.operators)
    comp = np.eye(system.n) - p
    # sigma(p) is PSD, so sigma(p) <= lambda p for some lambda iff its
    # support lies inside range(p), i.e. (1-p) sigma(p) (1-p) = 0.
    cond1 = bool(np.linalg.norm(comp @ sig_p @ comp, 2) <= tol)
    cond2 = all(
        np.linalg.norm(v @ p - p @ v @ p, 2) <= tol for v in system.operators
    )
    gap = 0.5 * (sig_p - p) + 0.5 * (sig_p - p).conj().T
    cond3 = bool(np.linalg.eigvalsh(gap)[-1] <= tol)
    if not (cond1 == cond2 == cond3):
        raise NumericalHealthError(
            f"hereditary-invariance conditions disagree: ({cond1}, {cond2}, {cond3}); "
            "projection is too close to the tolerance boundary"
        )
    return cond1


def invariance_bound(system: PopescuSystem) -> float:
    """The largest invariance residual ||sigma_*(rho) - rho|| an invariant
    state of the system may show: 1e-10 n + r, where r is the residual
    ||sum_i V_i V_i* - I|| that :func:`validate` reports. A system that is
    unital only to r has a transfer map that is trace preserving only to r,
    so its state can be invariant only to that order."""
    return 1e-10 * system.n + validate(system)


def _missing_one(what: str, system: PopescuSystem) -> NumericalHealthError:
    """The error for a transfer map that misses the value 1 of a unital map:
    the system is unital only to its validation residual, which can move
    the value off the circle or out of a kernel."""
    return NumericalHealthError(
        f"sigma misses the value 1 of a unital map ({what}); the system is unital only "
        f"to {validate(system):.3e}"
    )


def invariance_residual(system: PopescuSystem, rho: np.ndarray) -> float:
    """||sigma_*(rho) - rho|| in spectral norm; callers set the threshold."""
    return float(
        np.linalg.norm(sum(v.conj().T @ rho @ v for v in system.operators) - rho, 2)
    )


def check_invariant(system: PopescuSystem, state: DensityState) -> None:
    """The invariance gate of every stage that takes a state: ValueError
    unless ||sigma_*(rho) - rho|| (spectral norm, at most the Frobenius norm
    that :func:`invariant_state` gates) is within :func:`invariance_bound`."""
    resid, bound = invariance_residual(system, state.rho), invariance_bound(system)
    if resid > bound:
        raise ValueError(
            f"state is not invariant: residual {resid:.3e}, above its bound {bound:.3e}"
        )


@dataclass(frozen=True, eq=False)
class PeripheralEigenvalue:
    """A unimodular eigenvalue of sigma and its eigenspace X ker(S - value),
    held as ``space`` in Hermitian coordinates (real at a real value); its
    dimension, that of the value's eig cluster, is the multiplicity."""

    value: complex
    space: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.space.shape[1]

    @cached_property
    def operator(self) -> np.ndarray:
        """The first column as an n x n matrix, unit trace norm, phase fixed."""
        op = _from_hermitian(self.space[:, 0])
        return _canonical_phase(op / np.linalg.norm(op, "nuc"))


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    # the pivot is the first entry within 1e-8 of the largest modulus, so
    # that entries of equal modulus up to roundoff do not decide it
    flat = np.abs(x).ravel()
    j = int(np.argmax(flat >= (1.0 - 1e-8) * flat.max()))
    pivot = x.ravel()[j]
    if abs(pivot) < 1e-300:
        return x
    return x * (abs(pivot) / pivot)


def peripheral_spectrum(
    system: PopescuSystem,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    set_tol: float = DEFAULT_SET_TOL,
) -> list[PeripheralEigenvalue]:
    """Unimodular eigenvalues of the forward map, with their eigenspaces.

    The eigenvalues come from one eig of the p x p Ritz matrix
    S = X^T sigma X of :meth:`RealTransfer.ritz_matrix`, whose certificate
    places every other eigenvalue of sigma below 1 - ``tol`` in modulus. p
    is the number of eigenvalues that survive repeated squaring, n^2 only
    when all of them do. The eigenvalues within ``tol`` of the circle are
    clustered by :func:`value_clusters` at ``set_tol``. The eigenspace of a
    value, held as its ``space``, is X times the kernel of S - value at
    threshold ``set_tol``, real for a real value. Every such eigenvector of
    sigma lies in X, and ||sigma X y - value X y|| = ||(S - value) y|| up
    to the invariance residual. A unital map has the value 1, and the
    cluster nearest it takes the kernel of S - I: its space is the fixed
    space of :func:`fixed_points` at threshold ``set_tol``.

    The peripheral spectrum of a unital CP map is semisimple: sigma is a
    contraction in operator norm, so it has no Jordan block on the circle.
    So the dimension of each eigenspace must equal the size of its eig
    cluster, and that one number is reported as the multiplicity. A
    mismatch raises :class:`NumericalHealthError`: a larger cluster is a
    Jordan block, which the hypotheses exclude, a larger kernel counts
    eigenvalues that eig puts off the circle, and an empty one is a kernel
    threshold that misses the value; each is a kernel and a spectrum that
    disagree at the tolerance boundary. An empty peripheral set is a map
    that misses the value 1, and raises as well. The entry of the value 1
    comes first, then the others by phase angle.
    """
    basis, ritz = system.transfer.ritz_matrix(tol)
    on_circle = [complex(z) for z in eig(ritz).eigenvalues if abs(1.0 - abs(z)) <= tol]
    if not on_circle:
        raise _missing_one(f"no eigenvalue lies within {tol:.1e} of the unit circle", system)
    out = []
    clusters = value_clusters(on_circle, set_tol)
    one = min(clusters, key=lambda c: abs(c[0] - 1.0))[0]
    for value, algebraic in clusters:
        shift = 1.0 if value == one else value if value.imag else value.real
        space = kernel(ritz - shift * np.eye(ritz.shape[0]), set_tol, scale=1.0)
        if space.shape[1] != algebraic:
            raise NumericalHealthError(
                f"geometric and algebraic multiplicities differ at the unimodular "
                f"eigenvalue {value:.6f} (geometric {space.shape[1]}, algebraic "
                f"{algebraic}): a Jordan block, which the hypotheses exclude, or a kernel "
                "and a spectrum that disagree at the tolerance boundary; the verdict is "
                "aborted"
            )
        out.append(PeripheralEigenvalue(value, basis @ space))
    out.sort(key=lambda p: (p.value != one, abs(np.angle(p.value)), np.angle(p.value)))
    return out


def peripheral_eigenunitary(
    system: PopescuSystem,
    state: DensityState,
    t: complex,
    tol: float = DEFAULT_SUBSPACE_TOL,
) -> np.ndarray:
    """The unitary eigen-operator U with sigma(U) = conj(t) U, phase-fixed.

    Under ergodicity and a faithful invariant state every unimodular
    eigenvalue has a one-dimensional eigenspace spanned by a unitary, and
    that unitary scales the generators: U V_i U* = t V_i. Both facts are
    verified on the returned operator; failure signals a hypothesis
    violation (e.g. a non-faithful state). The state must pass
    :func:`check_invariant`.

    U is the operator that :func:`peripheral_spectrum`, at ``set_tol`` =
    ``tol``, reports for the value within ``tol`` of conj(t), rescaled: X
    times the kernel of the Ritz matrix S - conj(t), so no n^2 x n^2
    kernel is taken. The map is ergodic when the value 1 has multiplicity
    1 there. The certified Ritz pair, from which every eigenspace is read,
    is that of the map the system holds.
    """
    if abs(abs(t) - 1.0) > 1e-6:
        raise ValueError(f"t = {t} is not unimodular")
    if not state.faithful:
        raise ValueError("eigenunitary extraction requires a faithful invariant state")
    check_invariant(system, state)
    peri = peripheral_spectrum(system, set_tol=tol)
    if peri[0].multiplicity != 1:
        raise ValueError("transfer map is not ergodic; eigenunitary is not unique")
    match = [p for p in peri if abs(p.value - np.conj(t)) <= tol]
    if not match:
        raise ValueError(f"t = {t} is not in the peripheral spectrum at tolerance {tol:.1e}")
    # trace norm 1 keeps the Frobenius norm at least n^{-1/2}
    u = match[0].operator * (sqrt(system.n) / np.linalg.norm(match[0].operator))
    unit_resid = np.linalg.norm(u.conj().T @ u - np.eye(system.n), 2)
    if unit_resid > tol:
        raise NumericalHealthError(
            f"peripheral eigenvector fails unitarity after rescaling (residual {unit_resid:.3e}); "
            "hypotheses (ergodicity + faithful state) are violated"
        )
    u = _canonical_phase(u)
    cov = max(
        np.linalg.norm(u @ v @ u.conj().T - t * v, 2) for v in system.operators
    )
    if cov > max(tol, 1e-8):
        raise NumericalHealthError(
            f"eigenunitary does not scale the generators: residual {cov:.3e}"
        )
    return u


def root_of_unity_phase(
    value: complex, max_denominator: int, tol: float = DEFAULT_SET_TOL
) -> Fraction | None:
    """The phase p/q in [0, 1), q <= ``max_denominator``, of a root of unity
    value = exp(2 pi i p/q), or None when the value is not one.

    The angle of the value over 2 pi is snapped to the nearest fraction of
    bounded denominator (continued fractions via Fraction), and the snap is
    accepted only when |value^q - 1| <= max(tol q, 1e-7).
    """
    frac = Fraction(float(np.angle(value)) / (2.0 * np.pi)).limit_denominator(max_denominator)
    q = frac.denominator
    if abs(value**q - 1.0) > max(tol * q, 1e-7):
        return None
    return Fraction(frac.numerator % q, q)


def gauge_group_order(values, tol: float = DEFAULT_SET_TOL, max_denominator: int | None = None) -> int:
    """Order of the finite circle subgroup formed by the peripheral values.

    k is the number of ``tol``-distinct values. Each is snapped by
    :func:`root_of_unity_phase` (denominators up to ``max_denominator``,
    k by default), and the snapped phases must be exactly j/k for
    j = 0..k-1, each once. Failure raises: a peripheral set that is not a
    finite subgroup signals hypothesis violation or numerical degeneracy,
    and is never silently rounded.
    """
    vals = distinct_values(values, tol)
    if not vals:
        raise ValueError("empty peripheral set")
    k = len(vals)
    qmax = max_denominator if max_denominator is not None else k
    phases = []
    for v in vals:
        phase = root_of_unity_phase(v, qmax, tol)
        if phase is None:
            raise NumericalHealthError(
                f"peripheral value {v:.6f} is not a root of unity of order <= {qmax}: "
                "peripheral set is not a finite subgroup of the circle"
            )
        phases.append(phase)
    if sorted(phases) != [Fraction(j, k) for j in range(k)]:
        raise NumericalHealthError(
            f"the {k} peripheral values snap to the phases "
            f"{', '.join(map(str, sorted(phases)))}, not to the group of {k}-th roots of "
            "unity: not a finite subgroup of the circle"
        )
    return k


def mixed_fixed_points(
    system_w: PopescuSystem,
    system_v: PopescuSystem,
    tol: float = DEFAULT_SUBSPACE_TOL,
) -> OperatorSubspace:
    """Orthonormal basis of {X : sum_i W_i X V_i* = X} (rectangular allowed).

    The dimension equals that of the intertwiner space between the dilated
    representations of the two systems; in the W = V case it reduces to the
    fixed-point space of the transfer map. For W != V the map does not
    commute with the adjoint, so it is solved in vec coordinates.
    """
    if system_w.d != system_v.d:
        raise ValueError(f"generator counts differ: {system_w.d} vs {system_v.d}")
    m = sum(
        np.kron(v.conj(), w)
        for w, v in zip(system_w.operators, system_v.operators)
    )
    null = kernel(m - np.eye(system_w.n * system_v.n), tol, scale=1.0)
    return OperatorSubspace.from_vectors(null, (system_w.n, system_v.n))
