"""Finitely correlated state evaluation on the two-sided quantum chain.

A system (V_1, ..., V_d) together with an invariant state phi defines a
translation-invariant state on the doubly infinite chain of d x d matrix
algebras through the compression map

    E_A(B) = sum_{ij} A_ij V_i B V_j*,        E_I = sigma,

and the expectation formula

    omega(A_1 x A_2 x ... x A_m) = phi(E_{A_1}(E_{A_2}(... E_{A_m}(I)))).

With U_i* = sum_j A_ij V_j*, E_A(B) = sum_i V_i B U_i*, and its adjoint in
the pairing trace(R B) is R -> sum_i U_i* R V_i: both act on n x n matrices
at O(d n^3 + d^2 n^2) per site. The factors of x fold rho into a row matrix
R_x, those of y fold I into B_y, and omega(x shift^{width(x) + s}(y)) =
trace(R_x sigma^s(B_y)), with sigma stepped by the real transfer matrix
that the system holds (:meth:`RealTransfer.pairings` of
:attr:`PopescuSystem.transfer <fcstates.popescu.PopescuSystem.transfer>`).

Every evaluation first checks that the state is invariant
(:func:`~fcstates.cpmap.check_invariant`).

Observables at arbitrary (including negative) sites are handled purely by
translation invariance; non-consecutive sites must be padded with explicit
identity factors by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import DensityState, check_invariant
from .numerics import as_matrix
from .popescu import PopescuSystem

__all__ = [
    "LocalObservable",
    "ClusteringReport",
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


def _check_inputs(system: PopescuSystem, state: DensityState, *observables) -> None:
    """Every factor must be d x d and the state invariant under the predual
    (:func:`~fcstates.cpmap.check_invariant`)."""
    for obs in observables:
        shape = obs.factors[0].shape
        if shape != (system.d, system.d):
            raise ValueError(f"site observable must be {system.d}x{system.d}, got {shape}")
    check_invariant(system, state)


def _column(system: PopescuSystem, factors) -> np.ndarray:
    """E_{A_1}(E_{A_2}(... E_{A_m}(I))) as an n x n matrix."""
    ops = np.stack(system.operators)
    b = np.eye(system.n, dtype=complex)
    for a in reversed(factors):
        b = (ops @ b @ np.tensordot(a, ops.conj().swapaxes(1, 2), axes=1)).sum(0)
    return b


def _row(system: PopescuSystem, rho: np.ndarray, factors) -> np.ndarray:
    """The R with trace(R B) = phi(E_{A_1}(... E_{A_m}(B))) for every B; the
    expectation of the factors is trace(R), E_A pairing with B = I."""
    ops = np.stack(system.operators)
    r = rho
    for a in factors:
        r = (np.tensordot(a, ops.conj().swapaxes(1, 2), axes=1) @ r @ ops).sum(0)
    return r


def expectation(system: PopescuSystem, state: DensityState, obs: LocalObservable) -> complex:
    """Expectation of a local observable in the translation-invariant state.

    By translation invariance the start site is irrelevant; the factors fold
    rho into the row matrix R, and the value is trace(R).
    """
    _check_inputs(system, state, obs)
    return complex(np.trace(_row(system, state.rho, obs.factors)))


def two_point(
    system: PopescuSystem,
    state: DensityState,
    x: LocalObservable,
    y: LocalObservable,
    gap: int,
) -> complex:
    """omega(x * shift^{gap + width(x)}(y)): x, then ``gap`` empty sites, then y."""
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    _check_inputs(system, state, x, y)
    row = _row(system, state.rho, x.factors)
    return complex(system.transfer.pairings(row, _column(system, y.factors), gap)[-1])


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
    n = width(x) on, the values are the pairings of R_x with the sigma
    orbit of B_y, as in :func:`two_point`. The state is checked once. A
    negative ``n_max`` leaves no defect to decide on and is rejected.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _check_inputs(system, state, x, y)
    rho = state.rho
    wx, wy = x.width, y.width
    row = _row(system, rho, x.factors)
    target = np.trace(row) * np.trace(_row(system, rho, y.factors))
    values = []
    eye_d = np.eye(system.d)
    for n in range(min(wx, n_max + 1)):
        # product of x and the n-shifted y on sites 1..max(wx, n+wy)
        factors = []
        for s in range(max(wx, n + wy)):
            f = x.factors[s] if s < wx else eye_d
            if 0 <= s - n < wy:
                f = f @ y.factors[s - n]
            factors.append(f)
        values.append(np.trace(_row(system, rho, factors)))
    if n_max >= wx:
        values.extend(system.transfer.pairings(row, _column(system, y.factors), n_max - wx))
    defects = np.abs(np.array(values) - target)
    # the decay verdict looks at the tail only; n = 0 overlaps are excluded
    # whenever anything later is available
    tail = min(10, max(1, len(defects) - 1))
    decayed = bool(max(defects[-tail:]) < tol)
    return ClusteringReport(tuple(float(v) for v in defects), decayed, tol)
