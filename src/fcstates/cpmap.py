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
of sigma_* is its transpose. Fixed points, the invariant state, the
peripheral spectrum and commutants are computed there in real arithmetic,
and the subspaces they return have Hermitian bases. A complex matrix is
stepped there as two real columns, its Hermitian and anti-Hermitian parts
(:meth:`RealTransfer.pairings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from .errors import NumericalHealthError, ValidationError
from .numerics import as_matrix, distinct_values, eig, herm_sqrt, kernel, value_clusters
from .popescu import PopescuSystem

__all__ = [
    "vec",
    "unvec",
    "real_form",
    "Superoperator",
    "RealTransfer",
    "OperatorSubspace",
    "DensityState",
    "CoinvarianceCheck",
    "PeripheralEigenvalue",
    "sigma_matrix",
    "real_transfer",
    "fixed_points",
    "is_algebra",
    "commutant",
    "generated_algebra",
    "invariant_state",
    "coinvariance_check",
    "invariance_residual",
    "peripheral_spectrum",
    "check_semisimple",
    "peripheral_eigenunitary",
    "gauge_group_order",
    "mixed_fixed_points",
]

DEFAULT_SUBSPACE_TOL = 1e-8
DEFAULT_PERIPHERAL_TOL = 1e-9
DEFAULT_SET_TOL = 1e-8


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


def _hermitian_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec positions of the diagonal entries (j, j), and of the entries (j, k)
    and (k, j) for j < k, in the order of the Hermitian basis."""
    j, k = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), j + k * n, k + j * n


def _to_hermitian(v: np.ndarray) -> np.ndarray:
    """Hermitian coordinates B* v of vec coordinates v (along axis 0)."""
    dg, up, lo = _hermitian_index(isqrt(v.shape[0]))
    return np.concatenate(
        [v[dg], _HALF_SQRT2 * (v[up] + v[lo]), -1j * _HALF_SQRT2 * (v[up] - v[lo])]
    )


def _from_hermitian(c: np.ndarray) -> np.ndarray:
    """Vec coordinates B c of Hermitian coordinates c (along axis 0)."""
    n = isqrt(c.shape[0])
    dg, up, lo = _hermitian_index(n)
    p = up.size
    sym = _HALF_SQRT2 * c[n : n + p]
    anti = 1j * _HALF_SQRT2 * c[n + p :]
    v = np.empty(c.shape, dtype=complex)
    v[dg], v[up], v[lo] = c[:n], sym + anti, sym - anti
    return v


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


@dataclass(frozen=True)
class Superoperator:
    """An n^2 x n^2 matrix acting on column-stacked n x n matrices."""

    matrix: np.ndarray
    n: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(x), (self.n, self.n))


def sigma_matrix(system: PopescuSystem) -> Superoperator:
    """Forward transfer map X -> sum_i V_i X V_i* in matrix form (unital)."""
    m = sum(np.kron(v.conj(), v) for v in system.operators)
    sop = Superoperator(m, system.n)
    i_vec = vec(np.eye(system.n))
    if np.linalg.norm(m @ i_vec - i_vec) > 1e-10 * system.n:
        raise NumericalHealthError("forward superoperator is not unital; invalid system?")
    return sop


@dataclass(frozen=True)
class RealTransfer:
    """The forward map sigma of one system, in Hermitian coordinates.

    ``matrix[a, b] = trace(H_a sigma(H_b))`` for the Hermitian basis H, a
    real n^2 x n^2 matrix; the predual sigma_* is its transpose. Build it
    once per system with :func:`real_transfer` and pass it to the stages
    (:func:`fixed_points`, :func:`invariant_state`,
    :func:`peripheral_spectrum`) in place of the system. Those stages read
    the fixed spaces of sigma and sigma_* from :meth:`fixed_kernels`, and
    each factorization it takes is held here: the singular values of
    sigma - I, which give the dimension f of both spaces; when f = 1 (an
    ergodic map), one LU solve of the bordered matrix sigma^T - I + e e^T,
    e the coordinates of I/sqrt(n), which is nonsingular exactly when
    f = 1; for any other f, one full SVD of sigma - I.
    """

    system: PopescuSystem
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.system.n

    def shifted(self, value: complex) -> np.ndarray:
        """sigma - value * I, real when the value is."""
        value = complex(value)
        return self.matrix - (value if value.imag else value.real) * np.eye(self.n**2)

    @cached_property
    def _singular_values_at_one(self) -> np.ndarray:
        return np.linalg.svd(self.shifted(1.0), compute_uv=False)

    @cached_property
    def _svd_at_one(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.shifted(1.0))

    @cached_property
    def _ergodic_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        # e is the Hermitian coordinate vector of I/sqrt(n); e e^T touches only
        # the diagonal coordinates, the leading n x n block
        n = self.n
        e = np.zeros(n * n)
        e[:n] = 1.0 / np.sqrt(n)
        bordered = self.shifted(1.0).T
        bordered[:n, :n] += 1.0 / n
        h = np.linalg.solve(bordered, e)
        return e[:, None], (h / np.linalg.norm(h))[:, None]

    def fixed_kernels(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Real orthonormal bases (columns) of the kernels of sigma - I and of
        sigma_* - I = (sigma - I)^T: the fixed spaces of sigma and its predual.

        A singular direction of sigma - I is kept when its singular value is
        at most ``tol`` (the scale of sigma is 1); the rank is read from the
        singular values alone, so the two kernels always have the same
        dimension f. When f = 1 both have a closed form and no singular
        vector is computed. sigma is unital, so the fixed space of sigma is
        spanned by e, the Hermitian coordinates of I/sqrt(n). That of the
        predual is spanned by the solution h of the bordered system

            (sigma^T - I + e e^T) h = e.

        e is a left null vector of sigma^T - I (sigma_* preserves the trace),
        so e^T applied to the system gives e^T h = 1 and then
        (sigma^T - I) h = 0. The bordered matrix is nonsingular exactly when
        f = 1: a null vector x has e^T x = 0 by the same step and lies in the
        kernel of sigma^T - I. For f = 1 that kernel is spanned by an invariant
        state, whose trace e^T x is not 0, so x = 0; for f > 1 the kernel
        meets the hyperplane e^T x = 0. The LU solve is backward stable, so
        ||sigma_* h - h|| stays at the roundoff level of ||h|| however close
        the second-smallest singular value lies to ``tol``. For any other f
        the right singular vectors of one full SVD give the first basis and
        the left ones the second.
        """
        s = self._singular_values_at_one
        rank = int(np.sum(s > tol))
        if rank == s.size - 1:
            return self._ergodic_kernels
        u, _, vt = self._svd_at_one
        return vt[rank:].T, u[:, rank:]

    def pairings(self, r: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
        """trace(R sigma^s(B)) for s = 0..steps, for n x n matrices R and B.

        B has Hermitian coordinates h + i k, h and k real (those of its
        Hermitian and anti-Hermitian parts); sigma commutes with the
        adjoint, so both are stepped as real vectors, O(n^4) per step.
        trace(R H_a) is the a-th Hermitian coordinate of R, p + i q, so each
        value is (p.h - q.k) + i (q.h + p.k), contracted in real arithmetic.
        """
        c = _to_hermitian(vec(b))
        orbit = np.empty((steps + 1, 2, c.size))
        orbit[0] = c.real, c.imag
        for s in range(steps):
            np.matmul(orbit[s], self.matrix.T, out=orbit[s + 1])
        c = _to_hermitian(vec(r))
        g = orbit @ np.stack([c.real, c.imag], axis=1)
        return g[:, 0, 0] - g[:, 1, 1] + 1j * (g[:, 0, 1] + g[:, 1, 0])


def real_transfer(system: PopescuSystem) -> RealTransfer:
    """sigma of the system as a real matrix in Hermitian coordinates."""
    return RealTransfer(system, real_form(sigma_matrix(system).matrix))


def _as_real_transfer(system: PopescuSystem | RealTransfer) -> RealTransfer:
    return system if isinstance(system, RealTransfer) else real_transfer(system)


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of matrices with a trace-orthonormal basis."""

    basis: tuple[np.ndarray, ...]
    shape: tuple[int, int]

    @classmethod
    def from_vectors(cls, columns: np.ndarray, shape: tuple[int, int]) -> "OperatorSubspace":
        mats = tuple(unvec(columns[:, k], shape) for k in range(columns.shape[1]))
        return cls(mats, shape)

    @classmethod
    def from_hermitian(cls, columns: np.ndarray, n: int) -> "OperatorSubspace":
        """The subspace of n x n matrices with the given Hermitian coordinates."""
        return cls.from_vectors(_from_hermitian(columns), (n, n))

    def hermitian_columns(self) -> np.ndarray:
        """Real Hermitian coordinates of the basis, which must be Hermitian."""
        c = _to_hermitian(self.to_columns())
        if np.abs(c.imag).max(initial=0.0) > 1e-12:
            raise ValueError("subspace basis is not Hermitian")
        return c.real

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_columns(self) -> np.ndarray:
        cols = np.empty((self.shape[0] * self.shape[1], self.dim), dtype=complex)
        for k, b in enumerate(self.basis):
            cols[:, k] = vec(b)
        return cols

    def gram(self) -> np.ndarray:
        q = self.to_columns()
        return q.conj().T @ q

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a matrix onto the subspace."""
        q = self.to_columns()
        return unvec(q @ (q.conj().T @ vec(x)), self.shape)

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


@dataclass(frozen=True)
class DensityState:
    """A positive unit-trace matrix together with its support data.

    ``unique`` is set by :func:`invariant_state` and records whether the
    fixed-point space of the predual was one-dimensional.
    """

    rho: np.ndarray
    support: np.ndarray
    faithful: bool
    unique: bool | None = None

    @classmethod
    def from_matrix(cls, rho, tol: float = 1e-10, unique: bool | None = None) -> "DensityState":
        rho = as_matrix(rho, "density matrix")
        if np.linalg.norm(rho - rho.conj().T, 2) > max(tol, 1e-10):
            raise ValidationError("density matrix is not Hermitian within tolerance")
        rho = 0.5 * (rho + rho.conj().T)
        vals, vecs = np.linalg.eigh(rho)
        if vals[0] < -max(tol, 1e-10):
            raise ValidationError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
        vals = np.clip(vals, 0.0, None)
        tr = float(vals.sum())
        if abs(tr - 1.0) > 1e-6:
            raise ValidationError(f"density matrix has trace {tr:.6f}, expected 1")
        vals /= tr
        rho = (vecs * vals[None, :]) @ vecs.conj().T
        keep = vals > DEFAULT_SUBSPACE_TOL * vals[-1]
        carrier = vecs[:, keep]
        support = carrier @ carrier.conj().T
        faithful = bool(np.all(keep))
        return cls(rho, support, faithful, unique)

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.support).real))

    def sqrt(self) -> np.ndarray:
        """The square root of rho (the cyclic vector in Hilbert-Schmidt form)."""
        return herm_sqrt(self.rho)

    def expectation(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ x))


def fixed_points(
    system: PopescuSystem | RealTransfer, tol: float = DEFAULT_SUBSPACE_TOL
) -> OperatorSubspace:
    """Orthonormal basis of {X : sigma(X) = X} of Hermitian matrices.

    The fixed set is *-closed and contains the commutant of the generators,
    but need not be an algebra. The basis is the real kernel of sigma - I in
    Hermitian coordinates, so its elements are Hermitian.
    """
    form = _as_real_transfer(system)
    return OperatorSubspace.from_hermitian(form.fixed_kernels(tol)[0], form.n)


def is_algebra(sub: OperatorSubspace, tol: float = DEFAULT_SUBSPACE_TOL) -> bool:
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


def _hermitian_parts(gens: list[np.ndarray]) -> list[np.ndarray]:
    """(A + A*)/sqrt(2) for each generator A, and i(A - A*)/sqrt(2) for each
    A that is not Hermitian."""
    parts = [_HALF_SQRT2 * (g + g.conj().T) for g in gens]
    return parts + [1j * _HALF_SQRT2 * (g - g.conj().T) for g in gens if np.any(g != g.conj().T)]


def _commutant_constraints(gens: list[np.ndarray]) -> np.ndarray:
    """The stacked real matrices of X -> i[X, K] over the Hermitian parts K of
    the generators, in Hermitian coordinates."""
    n = gens[0].shape[0]
    eye = np.eye(n)
    ads = np.stack([1j * (np.kron(k.T, eye) - np.kron(eye, k)) for k in _hermitian_parts(gens)])
    return real_form(ads).reshape(-1, n * n)


def _commutant_constraints_within(
    gens: list[np.ndarray], within: OperatorSubspace
) -> np.ndarray:
    """:func:`_commutant_constraints` times the Hermitian coordinates of the
    Hermitian basis F_1..F_f of ``within``, from the images i[F_j, K]:
    O(f n^3) per K, where the full stack costs O(n^6)."""
    n = within.shape[0]
    f = np.stack(within.basis)
    blocks = []
    for k in _hermitian_parts(gens):
        images = 1j * (f @ k - k @ f)  # Hermitian, as F_j and K are
        blocks.append(_to_hermitian(images.swapaxes(1, 2).reshape(-1, n * n).T).real)
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
    stay the same. The basis is the real kernel, so its elements are
    Hermitian.

    With ``within``, a subspace with a Hermitian basis F_1..F_f, the result
    is the part of the commutant inside it: X = sum_j c_j F_j, and the
    kernel is taken over the f coefficients c, so the constraint matrix has
    f columns in place of n^2, built from the images i[F_j, K] without the
    full stack. The fixed space of the transfer map contains the commutant
    of its operators, so it serves as ``within`` there.
    """
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must share a common square dimension")
    scale = max(1.0, float(max(np.linalg.norm(g, 2) for g in gens)))
    if within is None:
        return OperatorSubspace.from_hermitian(
            kernel(_commutant_constraints(gens), tol, scale=scale), n
        )
    basis = within.hermitian_columns()
    null = kernel(_commutant_constraints_within(gens, within), tol, scale=scale)
    return OperatorSubspace.from_hermitian(basis @ null, n)


def generated_algebra(generators, tol: float = 1e-10) -> OperatorSubspace:
    """The unital *-algebra M generated by the operators, as the bicommutant M''.

    In finite dimensions a unital *-algebra equals its double commutant, so
    M is the commutant of a basis of the commutant of the generators.
    """
    return commutant(commutant(generators, tol).basis, tol)


def invariant_state(
    system: PopescuSystem | RealTransfer, rho0: np.ndarray | None = None
) -> DensityState:
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
    kept. When R is one-dimensional the state is its basis vector
    normalized to unit trace, it is the unique invariant state, and
    ``unique`` is set on the output.

    R and F are real kernels in Hermitian coordinates, where sigma_* is the
    transpose of sigma (:meth:`RealTransfer.fixed_kernels`), of the same
    dimension, read from the singular values of sigma - I. When it is 1, R
    is spanned by the solution h of (sigma^T - I + e e^T) h = e, with e the
    coordinates of I/sqrt(n): e^T h = 1 and sigma_* h = h, and the bordered
    matrix is nonsingular exactly because the fixed space of the predual is
    one-dimensional and its state has nonzero trace. Otherwise R and F are
    the left and right kernels of one full SVD of sigma - I.
    """
    form = _as_real_transfer(system)
    n = form.n
    if rho0 is None:
        rho0 = np.eye(n) / n
    else:
        rho0 = as_matrix(rho0, "rho0")
        tr = np.trace(rho0)
        if abs(tr) < 1e-14:
            raise ValueError("rho0 must have nonzero trace")
        rho0 = rho0 / tr
    left, right = form.fixed_kernels(DEFAULT_SUBSPACE_TOL)
    unique = right.shape[1] == 1
    if unique:
        # the trace of a matrix is the sum of its diagonal coordinates
        v = right[:, 0] / np.sum(right[:n, 0])
    else:
        r0 = _to_hermitian(vec(rho0))
        v = right @ np.linalg.solve(left.T @ right, left.T @ r0)
    rho = unvec(_from_hermitian(v), (n, n))
    rho = 0.5 * (rho + rho.conj().T)
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] < -1e-8:
        raise NumericalHealthError(
            f"Cesaro limit has a significantly negative eigenvalue {vals[0]:.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * (vals / vals.sum())[None, :]) @ vecs.conj().T
    h = _to_hermitian(vec(rho)).real
    resid = float(np.linalg.norm(form.matrix.T @ h - h))
    if resid > 1e-10 * n:
        raise NumericalHealthError(f"invariant state has residual {resid:.3e}")
    return DensityState.from_matrix(rho, unique=unique)


@dataclass(frozen=True)
class CoinvarianceCheck:
    """The three equivalent hereditary-invariance conditions for a projection."""

    cond1: bool  # sigma(p) <= lambda p for some lambda >= 0
    cond2: bool  # V_i p = p V_i p for all i
    cond3: bool  # sigma(p) <= p


def coinvariance_check(system: PopescuSystem, p, tol: float = DEFAULT_SUBSPACE_TOL) -> CoinvarianceCheck:
    """Evaluate the three equivalent conditions on a projection numerically.

    The conditions coincide in exact arithmetic; a disagreement beyond
    tolerance indicates numerical ill health and raises.
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
    return CoinvarianceCheck(cond1, cond2, cond3)


def invariance_residual(system: PopescuSystem, rho: np.ndarray) -> float:
    """||sigma_*(rho) - rho|| in spectral norm; callers set the threshold."""
    return float(
        np.linalg.norm(sum(v.conj().T @ rho @ v for v in system.operators) - rho, 2)
    )


@dataclass(frozen=True)
class PeripheralEigenvalue:
    """A unimodular eigenvalue of the forward transfer map."""

    value: complex
    multiplicity: int  # geometric: the dimension of the kernel of sigma - value (may be 0)
    operator: np.ndarray  # representative eigen-operator, unit trace norm
    semisimple: bool  # geometric multiplicity == algebraic multiplicity
    algebraic: int = 1  # the number of eigenvalues eig places in this value's cluster


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    flat = np.abs(x).ravel()
    j = int(np.argmax(flat))
    pivot = x.ravel()[j]
    if abs(pivot) < 1e-300:
        return x
    return x * (abs(pivot) / pivot)


def peripheral_spectrum(
    system: PopescuSystem | RealTransfer,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    set_tol: float = DEFAULT_SET_TOL,
) -> list[PeripheralEigenvalue]:
    """Unimodular eigenvalues of the forward map, with eigen-operators.

    The eigenvalues within ``tol`` of the circle are clustered by
    :func:`value_clusters` at ``set_tol``. The algebraic multiplicity of a
    value is the size of its cluster, the geometric one the dimension of the
    kernel of sigma - value at threshold ``set_tol``; both are computed in
    real arithmetic (Hermitian coordinates), the kernel of a real value is
    real. The cluster within ``set_tol`` of 1, whose representative may be
    1 + O(eps) i, reads its kernel from the factorization of sigma - I that
    the fixed spaces share (:meth:`RealTransfer.fixed_kernels`).
    ``semisimple`` is false when the two multiplicities differ: a unimodular
    Jordan block when the algebraic one is larger, a kernel that counts
    eigenvalues the eigensolver puts off the circle when the geometric one
    is, and a kernel threshold that misses the value (geometric 0, with the
    eigenvector as the representative operator). The classification layer
    treats each as a failure. Results are sorted by phase angle starting at
    1.
    """
    form = _as_real_transfer(system)
    n = form.n
    dec = eig(form.matrix)
    on_circle = [complex(z) for z in dec.eigenvalues if abs(1.0 - abs(z)) <= tol]
    out = []
    for value, algebraic in value_clusters(on_circle, set_tol):
        if abs(value - 1.0) <= set_tol:
            space = form.fixed_kernels(set_tol)[0]
        else:
            space = kernel(form.shifted(value), set_tol, scale=1.0)
        geometric = space.shape[1]
        if geometric == 0:
            idx = int(np.argmin(np.abs(dec.eigenvalues - value)))
            space = dec.eigenvectors[:, idx : idx + 1]
        op = unvec(_from_hermitian(space[:, 0]), (n, n))
        tn = np.linalg.norm(op, "nuc")
        if tn > 0:
            op = op / tn
        out.append(
            PeripheralEigenvalue(
                value=value,
                multiplicity=geometric,
                operator=_canonical_phase(op),
                semisimple=geometric == algebraic,
                algebraic=algebraic,
            )
        )
    out.sort(key=lambda p: (abs(np.angle(p.value)), np.angle(p.value)))
    return out


def check_semisimple(peripherals: list[PeripheralEigenvalue]) -> None:
    """Raise unless every peripheral value has equal geometric and algebraic
    multiplicities (see :func:`peripheral_spectrum`).

    A unital CP map has no Jordan block on the unit circle, so a mismatch is
    a kernel and a spectrum that disagree at the tolerance boundary; a
    kernel that misses the value 1 would otherwise read as multiplicity 0.
    """
    bad = [
        f"{p.value:.6f} (geometric {p.multiplicity}, algebraic {p.algebraic})"
        for p in peripherals
        if not p.semisimple
    ]
    if bad:
        raise NumericalHealthError(
            f"geometric and algebraic multiplicities differ at unimodular eigenvalue(s) "
            f"{', '.join(bad)}: a Jordan block, which the hypotheses exclude, or a "
            "kernel and a spectrum that disagree at the tolerance boundary; "
            "the verdict is aborted"
        )


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
    violation (e.g. a non-faithful state).
    """
    if abs(abs(t) - 1.0) > 1e-6:
        raise ValueError(f"t = {t} is not unimodular")
    if not state.faithful:
        raise ValueError("eigenunitary extraction requires a faithful invariant state")
    inv_resid = invariance_residual(system, state.rho)
    if inv_resid > max(tol, 1e-9):
        raise ValueError(f"state is not invariant: residual {inv_resid:.3e}")
    form = real_transfer(system)
    fx = fixed_points(form)
    if fx.dim != 1:
        raise ValueError("transfer map is not ergodic; eigenunitary is not unique")
    space = kernel(form.shifted(np.conj(t)), tol, scale=1.0)
    if space.shape[1] == 0:
        raise ValueError(f"t = {t} is not in the peripheral spectrum at tolerance {tol:.1e}")
    u = unvec(_from_hermitian(space[:, 0]), (system.n, system.n))
    gram = u.conj().T @ u
    scale = np.trace(gram).real / system.n
    if scale <= 0:
        raise NumericalHealthError("eigenvector has vanishing norm")
    u = u / np.sqrt(scale)
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


def gauge_group_order(values, tol: float = DEFAULT_SET_TOL, max_denominator: int | None = None) -> int:
    """Order of the finite circle subgroup formed by the peripheral values.

    Each phase is snapped to the nearest rational multiple of 2*pi with
    bounded denominator (continued fractions via Fraction). The snap is then
    validated against the original values (|t^q - 1| <= tol and closure of
    the snapped set under multiplication). Failure raises: a peripheral set
    that is not a finite subgroup signals hypothesis violation or numerical
    degeneracy, and is never silently rounded.
    """
    vals = distinct_values(values, tol)
    if not vals:
        raise ValueError("empty peripheral set")
    if not any(abs(v - 1.0) <= max(tol, 1e-8) for v in vals):
        raise NumericalHealthError("peripheral set does not contain 1")
    qmax = max_denominator if max_denominator is not None else max(len(vals), 1)
    fracs = set()
    for v in vals:
        theta = float(np.angle(v)) / (2.0 * np.pi)
        frac = Fraction(theta).limit_denominator(qmax)
        p, q = frac.numerator % frac.denominator, frac.denominator
        if abs(v**q - 1.0) > max(tol * q, 1e-7):
            raise NumericalHealthError(
                f"peripheral value {v:.6f} is not a root of unity of order <= {qmax}: "
                "peripheral set is not a finite subgroup of the circle"
            )
        fracs.add(Fraction(p, q))
    for a in fracs:
        for b in fracs:
            if Fraction((a + b).numerator % (a + b).denominator, (a + b).denominator) not in fracs:
                raise NumericalHealthError(
                    "snapped peripheral set is not closed under multiplication: "
                    "not a finite subgroup of the circle"
                )
    k = 1
    for f in fracs:
        k = k * f.denominator // gcd(k, f.denominator)
    if k != len(fracs):
        raise NumericalHealthError(
            f"peripheral set has {len(fracs)} elements but generates a group of order {k}"
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
