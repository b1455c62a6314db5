"""The transfer superoperator and everything spectral/algebraic derived from it.

The completely positive unital map sigma(X) = sum_i V_i X V_i* and its
trace-preserving predual sigma_*(rho) = sum_i V_i* rho V_i are materialized
as n^2 x n^2 matrices acting on column-stacked n x n matrices. The single
convention everything hinges on is

    vec(A X B) = (B^T kron A) vec(X)     (column stacking),

so the forward matrix is sum_i conj(V_i) kron V_i and the predual matrix is
sum_i V_i^T kron V_i^dagger. The two are adjoint to each other in the
trace pairing, and this is verified by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NumericalHealthError, ValidationError
from .numerics import as_matrix, distinct_values, eig, herm_sqrt, kernel, orthonormal_columns
from .popescu import PopescuSystem

__all__ = [
    "vec",
    "unvec",
    "Superoperator",
    "OperatorSubspace",
    "DensityState",
    "CoinvarianceCheck",
    "PeripheralEigenvalue",
    "sigma_matrix",
    "predual_matrix",
    "fixed_points",
    "is_algebra",
    "commutant",
    "generated_algebra",
    "invariant_state",
    "coinvariance_check",
    "peripheral_spectrum",
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


@dataclass(frozen=True)
class Superoperator:
    """An n^2 x n^2 matrix acting on column-stacked n x n matrices."""

    matrix: np.ndarray
    kind: str  # "forward" or "predual"
    n: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(x), (self.n, self.n))


def sigma_matrix(system: PopescuSystem) -> Superoperator:
    """Forward transfer map X -> sum_i V_i X V_i* in matrix form (unital)."""
    m = sum(np.kron(v.conj(), v) for v in system.operators)
    sop = Superoperator(m, "forward", system.n)
    i_vec = vec(np.eye(system.n))
    if np.linalg.norm(m @ i_vec - i_vec) > 1e-10 * system.n:
        raise NumericalHealthError("forward superoperator is not unital; invalid system?")
    return sop


def predual_matrix(system: PopescuSystem) -> Superoperator:
    """Predual map rho -> sum_i V_i* rho V_i in matrix form (trace preserving)."""
    m = sum(np.kron(v.T, v.conj().T) for v in system.operators)
    sop = Superoperator(m, "predual", system.n)
    # trace preservation: trace(rho) = <vec(I), vec(rho)>, so vec(I) must be
    # a left fixed vector of the matrix.
    i_vec = vec(np.eye(system.n))
    if np.linalg.norm(m.conj().T @ i_vec - i_vec) > 1e-10 * system.n:
        raise NumericalHealthError("predual superoperator is not trace-preserving")
    return sop


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of matrices with a trace-orthonormal basis."""

    basis: tuple[np.ndarray, ...]
    shape: tuple[int, int]

    @classmethod
    def from_vectors(cls, columns: np.ndarray, shape: tuple[int, int]) -> "OperatorSubspace":
        mats = tuple(unvec(columns[:, k], shape) for k in range(columns.shape[1]))
        return cls(mats, shape)

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

    def intersection_dim(self, other: "OperatorSubspace", tol: float = DEFAULT_SUBSPACE_TOL) -> int:
        """Dimension of the intersection, via principal angles."""
        if self.dim == 0 or other.dim == 0:
            return 0
        s = np.linalg.svd(self.to_columns().conj().T @ other.to_columns(), compute_uv=False)
        return int(np.sum(s >= 1.0 - tol))


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


def _hermitian_split_basis(columns: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # A *-closed subspace has a basis of Hermitian matrices; recover one by
    # real-orthonormalizing the Hermitian/anti-Hermitian parts of the kernel
    # basis. Falls back to the raw basis if splitting loses dimensions
    # (possible only when the subspace is not actually *-closed).
    dim = columns.shape[1]
    if dim == 0 or shape[0] != shape[1]:
        return columns
    parts = []
    for k in range(dim):
        x = unvec(columns[:, k], shape)
        parts.append(0.5 * (x + x.conj().T))
        parts.append((x - x.conj().T) / 2j)
    stacked = np.stack([vec(p) for p in parts], axis=1)
    real_rep = np.vstack([stacked.real, stacked.imag])
    u, s, _ = np.linalg.svd(real_rep, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    if rank != dim:
        return columns
    half = stacked.shape[0]
    herm_cols = u[:half, :rank] + 1j * u[half:, :rank]
    # re-orthonormalize in the complex trace inner product
    out = orthonormal_columns(herm_cols)
    if out.shape[1] != dim:
        return columns
    return out


def fixed_points(system: PopescuSystem, tol: float = DEFAULT_SUBSPACE_TOL) -> OperatorSubspace:
    """Orthonormal basis of {X : sigma(X) = X}.

    The fixed set is *-closed, so the basis is re-expressed with Hermitian
    elements whenever possible. It contains the commutant of the generators
    but need not be an algebra.
    """
    sop = sigma_matrix(system)
    null = kernel(sop.matrix - np.eye(system.n**2), tol, scale=1.0)
    cols = _hermitian_split_basis(null, (system.n, system.n))
    return OperatorSubspace.from_vectors(cols, (system.n, system.n))


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


def commutant(generators, tol: float = DEFAULT_SUBSPACE_TOL) -> OperatorSubspace:
    """Orthonormal basis of {X : XA = AX and XA* = A*X for all generators A}."""
    gens = [as_matrix(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must share a common square dimension")
    eye = np.eye(n)
    rows = []
    for g in gens:
        for a in (g, g.conj().T):
            rows.append(np.kron(a.T, eye) - np.kron(eye, a))
    gnorm = max(np.linalg.norm(g, 2) for g in gens)
    null = kernel(np.vstack(rows), tol, scale=max(1.0, float(gnorm)))
    cols = _hermitian_split_basis(null, (n, n))
    return OperatorSubspace.from_vectors(cols, (n, n))


def generated_algebra(generators, tol: float = 1e-10) -> OperatorSubspace:
    """The unital *-algebra M generated by the operators, as the bicommutant M''.

    In finite dimensions a unital *-algebra equals its double commutant, so
    M is the commutant of a basis of the commutant of the generators.
    """
    return commutant(commutant(generators, tol).basis, tol)


def invariant_state(
    system: PopescuSystem,
    tol: float = 1e-12,
    rho0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> DensityState:
    """A sigma-invariant state, by Cesaro iteration of the predual.

    Iterates rho_k = sigma_*^k(rho_0) from rho_0 = I/n (or the given start)
    and averages; peripheral eigenvalues other than 1 cancel in the mean.
    The average is then refined by orthogonal projection onto the exact
    eigenvalue-1 space of the predual matrix, Hermitized, clipped, and
    renormalized. When the predual fixed space is one-dimensional the result
    is the unique invariant state and ``unique`` is set on the output.
    """
    n = system.n
    pre = predual_matrix(system).matrix
    if rho0 is None:
        r0 = vec(np.eye(n)) / n
    else:
        rho0 = as_matrix(rho0, "rho0")
        tr = np.trace(rho0)
        if abs(tr) < 1e-14:
            raise ValueError("rho0 must have nonzero trace")
        r0 = vec(rho0) / tr
    cap = max_iter if max_iter is not None else 100 * n * n
    fixed_cols = kernel(pre - np.eye(n * n), DEFAULT_SUBSPACE_TOL, scale=1.0)
    unique = fixed_cols.shape[1] == 1

    def refine(mean_vec: np.ndarray) -> tuple[np.ndarray, float]:
        v = mean_vec
        if fixed_cols.shape[1] > 0:
            v = fixed_cols @ (fixed_cols.conj().T @ mean_vec)
        rho = unvec(v, (n, n))
        rho = 0.5 * (rho + rho.conj().T)
        vals, vecs = np.linalg.eigh(rho)
        if vals[0] < -1e-8:
            raise NumericalHealthError(
                f"Cesaro limit has a significantly negative eigenvalue {vals[0]:.3e}"
            )
        vals = np.clip(vals, 0.0, None)
        s = vals.sum()
        if s <= 0:
            raise NumericalHealthError("Cesaro limit vanished after clipping")
        rho = (vecs * (vals / s)[None, :]) @ vecs.conj().T
        resid = float(np.linalg.norm(pre @ vec(rho) - vec(rho)))
        return rho, resid

    acc = r0.copy()
    cur = r0.copy()
    count = 1
    best: tuple[np.ndarray, float] | None = None
    prev_candidate: np.ndarray | None = None
    for k in range(1, cap + 1):
        cur = pre @ cur
        acc += cur
        count += 1
        mean = acc / count
        # proxy for the mean's invariance residual ||rho_{k+1} - rho_0|| / count;
        # the returned state is re-checked exactly in refine()
        if np.linalg.norm(cur - r0) / count <= tol:
            break
        if k % 16 == 0 or k == cap:
            cand, resid = refine(mean)
            if best is None or resid < best[1]:
                best = (cand, resid)
            if prev_candidate is not None and resid <= max(tol, 1e-13) * n:
                if np.linalg.norm(cand - prev_candidate) <= 1e-12 * n:
                    break
            prev_candidate = cand
    rho, resid = refine(acc / count)
    if best is not None and best[1] < resid:
        rho, resid = best
    if resid > max(tol, 1e-10) * n:
        raise NumericalHealthError(
            f"invariant state iteration did not converge: residual {resid:.3e} after {count} steps"
        )
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
    sig_p = sigma_matrix(system).apply(p)
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


@dataclass(frozen=True)
class PeripheralEigenvalue:
    """A unimodular eigenvalue of the forward transfer map."""

    value: complex
    multiplicity: int  # geometric
    operator: np.ndarray  # representative eigen-operator, unit trace norm
    semisimple: bool  # geometric multiplicity == algebraic multiplicity


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    flat = np.abs(x).ravel()
    j = int(np.argmax(flat))
    pivot = x.ravel()[j]
    if abs(pivot) < 1e-300:
        return x
    return x * (abs(pivot) / pivot)


def peripheral_spectrum(
    system: PopescuSystem,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    set_tol: float = DEFAULT_SET_TOL,
) -> list[PeripheralEigenvalue]:
    """Unimodular eigenvalues of the forward map, with eigen-operators.

    Reports geometric multiplicities; ``semisimple`` is false when the
    algebraic multiplicity exceeds the geometric one (a unimodular Jordan
    block), which the classification layer treats as a hypothesis failure.
    Results are sorted by phase angle starting at 1.
    """
    sop = sigma_matrix(system)
    dec = eig(sop.matrix)
    on_circle = [complex(z) for z in dec.eigenvalues if abs(1.0 - abs(z)) <= tol]
    out = []
    for value in distinct_values(on_circle, set_tol):
        algebraic = sum(1 for z in on_circle if abs(z - value) <= set_tol)
        space = kernel(sop.matrix - value * np.eye(system.n**2), set_tol, scale=1.0)
        geometric = space.shape[1]
        if geometric == 0:
            # eigensolver found the value but the kernel threshold missed it;
            # fall back to the best eigenvector
            idx = int(np.argmin(np.abs(dec.eigenvalues - value)))
            space = dec.eigenvectors[:, idx : idx + 1]
            geometric = 1
        op = unvec(space[:, 0], (system.n, system.n))
        tn = np.linalg.norm(op, "nuc")
        if tn > 0:
            op = op / tn
        out.append(
            PeripheralEigenvalue(
                value=value,
                multiplicity=geometric,
                operator=_canonical_phase(op),
                semisimple=geometric >= algebraic,
            )
        )
    out.sort(key=lambda p: (abs(np.angle(p.value)), np.angle(p.value)))
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
    violation (e.g. a non-faithful state).
    """
    if abs(abs(t) - 1.0) > 1e-6:
        raise ValueError(f"t = {t} is not unimodular")
    if not state.faithful:
        raise ValueError("eigenunitary extraction requires a faithful invariant state")
    inv_resid = np.linalg.norm(
        sum(v.conj().T @ state.rho @ v for v in system.operators) - state.rho, 2
    )
    if inv_resid > max(tol, 1e-9):
        raise ValueError(f"state is not invariant: residual {inv_resid:.3e}")
    fx = fixed_points(system)
    if fx.dim != 1:
        raise ValueError("transfer map is not ergodic; eigenunitary is not unique")
    sop = sigma_matrix(system)
    space = kernel(sop.matrix - np.conj(t) * np.eye(system.n**2), tol, scale=1.0)
    if space.shape[1] == 0:
        raise ValueError(f"t = {t} is not in the peripheral spectrum at tolerance {tol:.1e}")
    u = unvec(space[:, 0], (system.n, system.n))
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
    fixed-point space of the transfer map.
    """
    if system_w.d != system_v.d:
        raise ValueError(f"generator counts differ: {system_w.d} vs {system_v.d}")
    m = sum(
        np.kron(v.conj(), w)
        for w, v in zip(system_w.operators, system_v.operators)
    )
    null = kernel(m - np.eye(system_w.n * system_v.n), tol, scale=1.0)
    return OperatorSubspace.from_vectors(null, (system_w.n, system_v.n))
