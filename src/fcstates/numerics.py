"""Dense linear-algebra substrate used by every other module.

All routines are pure functions of their ndarray inputs and delegate the
heavy lifting to LAPACK via numpy. What this module adds is contract
enforcement: residual bounds on eigenpairs, rank-revealing kernel
thresholds, and tolerance-aware matching of spectral sets in the complex
plane. No matrix root is taken here: a state's rho^{+-1/2} is read from
the eigenpairs it holds (:class:`~fcstates.cpmap.DensityState`).

User inputs are coerced to complex by :func:`as_matrix`. The solvers
:func:`eig` and :func:`kernel` keep a real input real, so real matrices,
such as superoperators written in a basis of Hermitian matrices, are
factored in real arithmetic.
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
    "spectral_sets_match",
    "distinct_values",
    "value_clusters",
]


def _checked(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    return _checked(np.asarray(a, dtype=complex), name)


def _as_real_or_complex(a) -> np.ndarray:
    """Like :func:`as_matrix`, but a real input stays real (float64)."""
    arr = np.asarray(a)
    return _checked(arr.astype(complex if np.iscomplexobj(arr) else float, copy=False), "matrix")


@dataclass(frozen=True)
class EigenDecomposition:
    """Full eigendecomposition of a square complex matrix.

    ``eigenvectors[:, k]`` is a unit right eigenvector for ``eigenvalues[k]``
    and ``residual`` is ||A V - V Lambda||_F / max_k ||A e_k||, the Frobenius
    norm of the residual over the largest column norm of A. Both norms are
    conservative, ||R||_F >= ||R||_2 and max_k ||A e_k|| <= ||A||_2, so it
    bounds the spectral-norm ratio ||A V - V Lambda||_2 / ||A||_2 from
    above, and it needs no SVD. A backward-stable solver keeps it at
    roundoff level whether or not A has a full set of eigenvectors; nearly
    parallel eigenvectors, as at a Jordan block, do not raise it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def eig(a, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition with an enforced residual bound.

    A real input is solved in real arithmetic; its complex eigenvalues come
    in exactly conjugate pairs. Raises NumericalHealthError if LAPACK fails
    to converge or the residual of the returned eigenpairs (see
    :class:`EigenDecomposition`) exceeds ``tol``.
    """
    a = _as_real_or_complex(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(f"eigensolver did not converge: {exc}") from exc
    norm_a = np.linalg.norm(a, axis=0).max(initial=0.0)
    # a real A is applied to the real and imaginary parts of V by two real
    # products, not promoted to complex
    image = a @ vecs if np.iscomplexobj(a) else a @ vecs.real + 1j * (a @ vecs.imag)
    resid = np.linalg.norm(image - vecs * vals[None, :])
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

    The basis is real when ``a`` is real.
    """
    a = _as_real_or_complex(a)
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
    return [value for value, _ in value_clusters(values, tol)]


def value_clusters(values, tol: float = 1e-8) -> list[tuple[complex, int]]:
    """The components of :func:`distinct_values`, each with its size.

    A pair (representative, count) per connected component of the relation
    |v - w| <= tol, in the order of :func:`distinct_values`; the count is the
    number of input values in the whole component, which may span more
    than ``tol``.
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
    sizes = np.bincount(label, minlength=v.size)
    return [(complex(v[i]), int(sizes[i])) for i in range(v.size) if label[i] == i]
