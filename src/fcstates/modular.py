"""Finite-dimensional modular data and the dual system living in the commutant.

The GNS space of a faithful state phi(X) = trace(rho X) is materialized
concretely as the n x n matrices with the trace inner product, with cyclic
vector Phi = rho^{1/2}. In this model every abstract object is a map on
n x n matrices:

    Delta^{1/2}(X)  = rho^{1/2} X rho^{-1/2}   (Delta X = rho X rho^{-1}),
    J(X)            = X*                        (modular conjugation),
    S = J Delta^{1/2}:  X Phi -> X* Phi.

:class:`ModularData` holds rho^{1/2} and rho^{-1/2} and applies these maps to
a matrix or to a stack of matrices (the last two axes), so no n^2 x n^2
operator is ever formed.

The dual generators are the compositions J Delta^{-1/2} (left-mult V_j*)
Delta^{1/2} J. Followed on a matrix X, the steps give
(rho^{-1/2} V_j* rho^{1/2} X*)* = X rho^{1/2} V_j rho^{-1/2}, so each is
right multiplication R_{W_j} by W_j = rho^{1/2} V_j rho^{-1/2}. That is
associativity, not a property of the system, so the dual system is held as
the d parameters W_j alone, at O(d n^3). Right and left multiplications
commute for the same reason: on a matrix unit, (V E_ab) W and V (E_ab W)
are both the outer product V[:, a] W[b, :]. The Kronecker construction of
the compositions, with its commutators, is the test oracle.

sum_j W_j* W_j = I is equivalent to invariance sum_j V_j* rho V_j = rho, and
sum_j W_j rho W_j* = rho to the defining relation; dualizing twice returns
left multiplication by the original generators.

The dual map tau(Y) = sum_j W_j* Y W_j is similar to the predual of the
system: with Gamma(Y) = rho^{1/2} Y rho^{1/2},

    tau = Gamma^{-1} sigma_* Gamma,     tau^dagger = Gamma sigma Gamma^{-1},

where tau^dagger(Z) = sum_j W_j Z W_j* is the adjoint of tau in the trace
pairing. sigma_* is the transpose of sigma in Hermitian coordinates, and a
matrix and its transpose have the same spectrum and the same kernel
dimensions, so the dual has the peripheral values and multiplicities of the
system. :func:`compare_duals` reads them from the system's spectrum alone
and checks the similarity on every eigenpair it uses: (lambda, X) with
sigma(X) = lambda X moves to (lambda, Gamma(X)) for tau^dagger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import (
    DEFAULT_PERIPHERAL_TOL,
    DEFAULT_SET_TOL,
    DensityState,
    OperatorSubspace,
    check_invariant,
    invariance_residual,
    peripheral_spectrum,
)
from .errors import NumericalHealthError
from .numerics import eig  # noqa: F401  (bound here for perfbench's span tracer)
from .popescu import PopescuSystem

__all__ = [
    "ModularData",
    "DualSystem",
    "DualityReport",
    "DualComparison",
    "gns",
    "dual_system",
    "verify_duality",
    "compare_duals",
]


@dataclass(frozen=True)
class ModularData:
    """Modular objects of a faithful state in the Hilbert-Schmidt model.

    The maps act on a matrix or on a stack of matrices (last two axes).
    """

    state: DensityState
    phi_vector: np.ndarray  # Phi = rho^{1/2}, the cyclic and separating vector
    phi_inverse: np.ndarray  # rho^{-1/2}

    @property
    def n(self) -> int:
        return self.state.n

    def apply_delta_half(self, x: np.ndarray) -> np.ndarray:
        """Delta^{1/2} X = rho^{1/2} X rho^{-1/2}."""
        return self.phi_vector @ x @ self.phi_inverse

    def apply_delta_minus_half(self, x: np.ndarray) -> np.ndarray:
        """Delta^{-1/2} X = rho^{-1/2} X rho^{1/2}."""
        return self.phi_inverse @ x @ self.phi_vector

    def apply_j(self, x: np.ndarray) -> np.ndarray:
        """The conjugate-linear map J X = X*."""
        return np.conj(np.swapaxes(x, -1, -2))


def gns(system: PopescuSystem, state: DensityState) -> ModularData:
    """Modular data for a faithful invariant state; rejects any other.

    Faithfulness is ``state.faithful`` and invariance
    :func:`~fcstates.cpmap.check_invariant`. rho^{+-1/2} = U w^{+-1/2} U* are
    read from the state's eigenpairs (U, w), with no factorization here, so
    Phi = rho^{1/2} squares back to rho: trace(Phi* X Phi) = trace(rho X).
    """
    if not state.faithful:
        raise ValueError(
            f"state is not faithful (support rank {state.rank} of {state.n}); "
            "compress the system to the support first"
        )
    check_invariant(system, state)
    v, root = state.vectors, np.sqrt(state.weights)
    return ModularData(
        state=state,
        phi_vector=(v * root) @ v.conj().T,
        phi_inverse=(v / root) @ v.conj().T,
    )


@dataclass(frozen=True)
class DualSystem:
    """The d dual generators R_{W_j}, held as their parameters.

    ``system`` is the system that was dualized and ``modular`` the modular
    data of its state. ``parameters[j]`` is W_j = rho^{1/2} V_j rho^{-1/2}:
    the composition J Delta^{-1/2} (left-mult V_j*) Delta^{1/2} J is right
    multiplication by W_j (see the module docstring).
    """

    system: PopescuSystem
    modular: ModularData
    parameters: tuple[np.ndarray, ...]

    def parameter_system(self) -> PopescuSystem:
        """The dual transfer map as a system: Y -> sum_j W_j* Y W_j.

        Right multiplication reverses products, so the dual map in parameter
        form is the transfer map of the adjoint parameters (W_1*, ..., W_d*),
        which satisfy the defining relation by invariance of the state.
        """
        return PopescuSystem.from_operators(
            tuple(w.conj().T for w in self.parameters), tol=1e-8
        )


def dual_system(system: PopescuSystem, state: DensityState) -> DualSystem:
    """The dual generators of a faithful invariant state (:func:`gns`), as
    the parameters W_j = rho^{1/2} V_j rho^{-1/2}, at O(d n^3). They are
    formed as U (w^{1/2} U* V_j U w^{-1/2}) U* from the state's eigenpairs
    (U, w): products with rho^{+-1/2} leave the dual map's peripheral
    eigenvalues about ten times farther off the circle at cond(rho) = 1e7.
    """
    md = gns(system, state)
    u, root = state.vectors, np.sqrt(state.weights)
    scale = root[:, None] / root[None, :]
    params = tuple(u @ (scale * (u.conj().T @ v @ u)) @ u.conj().T for v in system.operators)
    return DualSystem(system, md, params)


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the structural identities of the dual system."""

    # ||sum_j Vt_j Vt_j* - I|| on the GNS space; sum_j R_{W_j} R_{W_j}* is
    # R_{sum_j W_j* W_j}, so this is also the parameter isometry residual
    # ||sum_j W_j* W_j - I||
    completeness: float
    double_dual: float  # max_j ||dual(dual(V_j)) - left-mult V_j||
    dual_invariance: float  # ||phi~ o sigma~ - phi~|| as ||sum W rho W* - rho||
    vector_consistency: float  # max_j ||Vt_j* Phi - V_j* Phi||
    predual_invariance: float  # ||sum_j V_j* rho V_j - rho||

    def max_residual(self) -> float:
        return max(
            self.completeness,
            self.double_dual,
            self.dual_invariance,
            self.vector_consistency,
            self.predual_invariance,
        )


def verify_duality(dual: DualSystem) -> DualityReport:
    """Compute all duality residuals of a dual system built by :func:`dual_system`.

    Every residual is an n x n matrix norm, at O(d n^3):

    * sum_j R_{W_j} R_{W_j}* is right multiplication by sum_j W_j* W_j, and
      the norm of B^T kron I is that of B, so ``completeness`` is the
      spectral norm of sum_j W_j* W_j - I;
    * the modular data of the commutant is (J, Delta^{-1}), so the dual of
      R_{W_j} is left multiplication by rho^{-1/2} W_j rho^{1/2}, and
      ``double_dual`` compares that with V_j in spectral norm;
    * ``vector_consistency`` compares R_{W_j}* Phi = Phi W_j* with
      V_j* Phi in Frobenius norm, and ``dual_invariance`` and
      ``predual_invariance`` are the two invariance residuals in spectral
      norm.

    The commutation of R_{W_j} with the left multiplications is exact (see
    the module docstring), so it is not measured.
    """
    system, md = dual.system, dual.modular
    n = system.n
    rho, rs, rsi = md.state.rho, md.phi_vector, md.phi_inverse
    completeness = float(
        np.linalg.norm(sum(w.conj().T @ w for w in dual.parameters) - np.eye(n), 2)
    )
    double_dual = max(
        float(np.linalg.norm(rsi @ w @ rs - v, 2))
        for v, w in zip(system.operators, dual.parameters)
    )
    dual_invariance = float(
        np.linalg.norm(sum(w @ rho @ w.conj().T for w in dual.parameters) - rho, 2)
    )
    vector_consistency = max(
        float(np.linalg.norm(rs @ w.conj().T - v.conj().T @ rs))
        for v, w in zip(system.operators, dual.parameters)
    )
    return DualityReport(
        completeness=completeness,
        double_dual=double_dual,
        dual_invariance=dual_invariance,
        vector_consistency=vector_consistency,
        predual_invariance=invariance_residual(system, rho),
    )


@dataclass(frozen=True)
class DualComparison:
    """Spectral agreement between a system and its dual.

    ``peripheral`` is the system's peripheral set. Each value lambda moves to
    its conjugate, an eigenvalue of tau because lambda is one of its
    trace-pairing adjoint tau^dagger; the set is closed under conjugation,
    as sigma is real, so the dual has the same peripheral set, and it has
    the system's fixed-space dimension. Both agreements hold whenever
    :func:`compare_duals` returns. ``similarity`` is the largest relative
    residual ||tau^dagger(Z) - lambda Z||_F / ||Z||_F over the moved
    eigenpairs, one per column of each peripheral eigenspace (see
    :func:`compare_duals`).
    """

    peripheral: tuple[complex, ...]
    similarity: float


def compare_duals(
    dual: DualSystem,
    tol: float = DEFAULT_SET_TOL,
    tol_peripheral: float = DEFAULT_PERIPHERAL_TOL,
) -> DualComparison:
    """Ergodicity and peripheral-spectrum agreement of the dual pair, from
    one eigendecomposition: that of the Ritz matrix of the system's
    transfer map (:func:`~fcstates.cpmap.peripheral_spectrum`).

    The dual map tau is Gamma^{-1} sigma_* Gamma with
    Gamma(Y) = rho^{1/2} Y rho^{1/2} (see the module docstring), so its
    peripheral values and multiplicities are those of sigma. The similarity
    is checked, not assumed: each column X of each entry's ``space``, one
    stack, is moved once to Z = rho^{1/2} X rho^{1/2}, and must satisfy

        ||sum_j W_j Z W_j* - lambda Z||_F <= max(tol, 1e-9) ||Z||_F,

    at O(d n^3) per pair; sum_j W_j Z W_j* is tau^dagger. So every system
    value is a dual value (conjugated), and each eigenspace moves into the
    dual's with its dimension, since Gamma is invertible. The reverse
    inclusion, that the dual has no further peripheral value, rests on
    W_j = rho^{1/2} V_j rho^{-1/2}, which :func:`verify_duality` measures as
    ``double_dual``.

    Both sides read their multiplicities from the system's peripheral
    spectrum, which raises :class:`NumericalHealthError` when an eigenspace
    and its eig cluster differ in dimension (a kernel of the Ritz matrix at
    its tolerance boundary, such as one that misses the value 1), as does
    a moved pair above the threshold here. When the function returns, the
    two agree on ergodicity and on the peripheral set, so no match flag is
    returned. As in :func:`~fcstates.classify.classify_chain`,
    ``tol_peripheral`` places a value on the circle and ``tol`` is the set
    and kernel tolerance, on the map and Ritz pair the dualized system
    holds.
    """
    peri = peripheral_spectrum(dual.system, tol_peripheral, tol)
    values = tuple(p.value for p in peri)
    lam = np.repeat(values, [p.multiplicity for p in peri])[:, None, None]
    spaces = np.concatenate([p.space for p in peri], axis=1)
    rs = dual.modular.phi_vector
    z = rs @ OperatorSubspace.from_hermitian(spaces, dual.system.n).basis @ rs
    moved = sum(w @ z @ w.conj().T for w in dual.parameters)
    similarity = float(
        np.max(np.linalg.norm(moved - lam * z, axis=(1, 2)) / np.linalg.norm(z, axis=(1, 2)))
    )
    if similarity > max(tol, 1e-9):
        raise NumericalHealthError(
            f"the system's eigenpairs do not move to the dual under rho^(1/2) . rho^(1/2): "
            f"relative residual {similarity:.3e}"
        )
    return DualComparison(peripheral=values, similarity=similarity)
