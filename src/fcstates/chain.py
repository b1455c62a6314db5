"""Finitely correlated state evaluation on the two-sided quantum chain.

A system (V_1, ..., V_d) together with an invariant state phi defines a
translation-invariant state on the doubly infinite chain of d x d matrix
algebras through the compression map

    E_A(B) = sum_{ij} A_ij V_i B V_j*,        E_I = sigma,

and the expectation formula

    omega(A_1 x A_2 x ... x A_m) = phi(E_{A_1}(E_{A_2}(... E_{A_m}(I)))).

Observables at arbitrary (including negative) sites are handled purely by
translation invariance; non-consecutive sites must be padded with explicit
identity factors by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import DensityState, sigma_matrix, unvec, vec
from .numerics import as_matrix
from .popescu import PopescuSystem

__all__ = [
    "LocalObservable",
    "ClusteringReport",
    "e_map",
    "expectation",
    "two_point",
    "clustering_defect",
]

DEFAULT_DECAY_TOL = 1e-6
DEFAULT_N_MAX = 200


@dataclass(frozen=True)
class LocalObservable:
    """Consecutive single-site factors starting at ``start_site`` (any sign)."""

    start_site: int
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("observable needs at least one factor")
        facs = tuple(np.ascontiguousarray(as_matrix(f, "factor")) for f in self.factors)
        d = facs[0].shape[0]
        for f in facs:
            if f.shape != (d, d):
                raise ValueError(f"all factors must be {d}x{d}, got {f.shape}")
            f.flags.writeable = False
        object.__setattr__(self, "factors", facs)

    @property
    def width(self) -> int:
        return len(self.factors)


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


def _check_invariant(system: PopescuSystem, state: DensityState, tol: float) -> None:
    resid = np.linalg.norm(
        sum(v.conj().T @ state.rho @ v for v in system.operators) - state.rho, 2
    )
    if resid > tol:
        raise ValueError(f"state is not invariant: ||sigma_*(rho) - rho|| = {resid:.3e}")


def _apply_factors(system: PopescuSystem, factors, w: np.ndarray) -> np.ndarray:
    for a in reversed(factors):
        w = e_map(system, a) @ w
    return w


def expectation(
    system: PopescuSystem,
    state: DensityState,
    obs: LocalObservable,
    tol: float = 1e-8,
) -> complex:
    """Expectation of a local observable in the translation-invariant state.

    By translation invariance the start site is irrelevant; the factors are
    folded through the compression maps from the right and paired with rho.
    """
    _check_invariant(system, state, tol)
    w = _apply_factors(system, obs.factors, vec(np.eye(system.n)))
    return complex(np.trace(state.rho @ unvec(w, (system.n, system.n))))


def two_point(
    system: PopescuSystem,
    state: DensityState,
    x: LocalObservable,
    y: LocalObservable,
    gap: int,
    tol: float = 1e-8,
) -> complex:
    """omega(x * shift^{gap + width(x)}(y)): x, then ``gap`` empty sites, then y."""
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    _check_invariant(system, state, tol)
    sig = sigma_matrix(system).matrix
    w = _apply_factors(system, y.factors, vec(np.eye(system.n)))
    for _ in range(gap):
        w = sig @ w
    w = _apply_factors(system, x.factors, w)
    return complex(np.trace(state.rho @ unvec(w, (system.n, system.n))))


@dataclass(frozen=True)
class ClusteringReport:
    """Two-point clustering defects d_n = |omega(x shift^n(y)) - omega(x)omega(y)|."""

    defects: tuple[float, ...]
    decayed: bool  # below tol over the tail window
    tol: float

    @property
    def n_max(self) -> int:
        return len(self.defects) - 1


def clustering_defect(
    system: PopescuSystem,
    state: DensityState,
    x: LocalObservable,
    y: LocalObservable,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_DECAY_TOL,
) -> ClusteringReport:
    """Defect sequence for n = 0..n_max, with a decay verdict.

    For n < width(x) the supports overlap and the product observable is
    built site by site (operator product on the shared sites); from
    n = width(x) on, the transfer matrix is iterated once per step. A
    negative ``n_max`` leaves no defect to decide on and is rejected.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _check_invariant(system, state, tol=1e-8)
    d = system.d
    wx, wy = x.width, y.width
    target = complex(
        expectation(system, state, x) * expectation(system, state, y)
    )
    defects: list[float] = []
    eye_d = np.eye(d)
    for n in range(min(wx, n_max + 1)):
        # product of x and the n-shifted y on sites 1..max(wx, n+wy)
        width = max(wx, n + wy)
        factors = []
        for s in range(width):
            f = x.factors[s] if s < wx else eye_d
            if 0 <= s - n < wy:
                f = f @ y.factors[s - n]
            factors.append(f)
        val = expectation(system, state, LocalObservable(1, tuple(factors)))
        defects.append(abs(val - target))
    if n_max >= wx:
        sig = sigma_matrix(system).matrix
        w = _apply_factors(system, y.factors, vec(np.eye(system.n)))
        # row functional B -> phi(E_{x_1}(...E_{x_wx}(B)))
        row = vec(state.rho.T)
        for a in x.factors:
            row = row @ e_map(system, a)
        for _ in range(n_max - wx + 1):
            defects.append(abs(complex(row @ w) - target))
            w = sig @ w
    # the decay verdict looks at the tail only; n = 0 overlaps are excluded
    # whenever anything later is available
    tail = min(10, max(1, len(defects) - 1))
    decayed = bool(max(defects[-tail:]) < tol)
    return ClusteringReport(tuple(defects), decayed, tol)
