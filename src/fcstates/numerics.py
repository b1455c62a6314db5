"""Dense complex linear-algebra substrate used by every other module.

All routines are pure functions of their ndarray inputs and delegate the
heavy lifting to LAPACK via numpy/scipy. What this module adds on top is
contract enforcement: residual bounds on eigenpairs, rank-revealing kernel
thresholds, and tolerance-aware comparison of spectral sets (eigenvalue
ordering is not canonical, so sets are compared by an optimal matching in
the complex plane).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalHealthError

__all__ = [
    "EigenDecomposition",
    "as_matrix",
    "eig",
    "kernel",
    "herm_sqrt",
    "herm_inv_sqrt",
    "orthonormal_columns",
    "spectral_sets_match",
    "distinct_values",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class EigenDecomposition:
    """Full eigendecomposition of a square complex matrix.

    ``eigenvectors[:, k]`` is a unit right eigenvector for ``eigenvalues[k]``
    and ``residual`` is ||A V - V Lambda|| / ||A|| in the spectral norm. A
    backward-stable solver keeps it at roundoff level whether or not A has
    a full set of eigenvectors; nearly parallel eigenvectors, as at a
    Jordan block, do not raise it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def eig(a, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition with an enforced residual bound.

    Raises NumericalHealthError if LAPACK fails to converge or the residual
    of the returned eigenpairs exceeds ``tol * ||A||``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(f"eigensolver did not converge: {exc}") from exc
    norm_a = np.linalg.norm(a, 2)
    resid = np.linalg.norm(a @ vecs - vecs * vals[None, :], 2)
    residual = float(resid / norm_a) if norm_a > 0 else float(resid)
    if residual > tol:
        raise NumericalHealthError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return EigenDecomposition(vals, vecs, residual)


def kernel(a, tol: float | None = None, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space, as columns.

    A singular direction is kept when its singular value is at most
    ``tol * scale``, where ``scale`` defaults to sigma_max(A); the default
    ``tol`` is the standard rank-revealing convention
    ``max(rows, cols) * machine_eps``. Every returned column v then satisfies
    ``||A v|| <= tol * scale`` by the SVD bound.

    Callers solving an eigenspace problem A = M - lambda*I should pass the
    scale of M explicitly: when M is close to lambda*I, sigma_max(A) itself
    is at noise level and a threshold relative to it keeps nothing.
    """
    a = as_matrix(a)
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    # for tall matrices the reduced SVD already contains every right
    # singular vector; the full (and far more expensive) form is only
    # needed when the matrix is wide
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    if tol is None:
        tol = max(a.shape) * np.finfo(float).eps
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    ncols = a.shape[1]
    rank = int(np.sum(s > tol * scale)) if scale > 0 else 0
    return vh[rank:].conj().T.reshape(ncols, ncols - rank)


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


def orthonormal_columns(a, tol: float = 1e-10, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``.

    Directions with singular value at most ``tol * scale`` are discarded;
    ``scale`` defaults to the largest singular value. Pass the natural scale
    of the problem when ``a`` may consist entirely of roundoff noise (e.g.
    residuals after projection), where a relative threshold keeps junk.
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * scale)) if scale > 0 else 0
    return u[:, :rank]


def spectral_sets_match(a, b, tol: float = 1e-8) -> bool:
    """Compare two spectral multisets by matching in the complex plane.

    The sets match when some one-to-one pairing puts every value of ``a``
    within ``tol`` of its partner in ``b``. This is decided exactly, as a
    perfect bipartite matching on the within-``tol`` relation found by
    augmenting paths.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if a.size != b.size:
        return False
    near = np.abs(a[:, None] - b[None, :]) <= tol
    partner = [-1] * b.size  # partner[j]: the value of a paired with b[j]

    def augment(i: int, seen: list[bool]) -> bool:
        for j in np.flatnonzero(near[i]):
            if not seen[j]:
                seen[j] = True
                if partner[j] < 0 or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return all(augment(i, [False] * b.size) for i in range(a.size))


def distinct_values(values, tol: float = 1e-8) -> list[complex]:
    """Collapse a sequence of complex values into tolerance-distinct ones.

    Values are grouped into the connected components of the relation
    |v - w| <= tol, so the grouping does not depend on the input order. Each
    component is represented by its first member in input order.
    """
    v = np.atleast_1d(np.asarray(values, dtype=complex))
    near = np.abs(v[:, None] - v[None, :]) <= tol
    # propagate the smallest index along the relation until every component
    # carries the index of its first member
    label = np.arange(v.size)
    while True:
        spread = np.where(near, label[None, :], v.size).min(axis=1, initial=v.size)
        if np.array_equal(spread, label):
            break
        label = spread
    return [complex(v[i]) for i in range(v.size) if label[i] == i]
