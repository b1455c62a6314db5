"""Finite-dimensional modular data and the dual system living in the commutant.

The GNS space of a faithful state phi(X) = trace(rho X) is materialized
concretely as the n x n matrices with the trace inner product, with cyclic
vector Phi = rho^{1/2}. In this model every abstract object is a checkable
matrix identity:

    Delta(X)       = rho X rho^{-1}        (modular operator),
    J(X)           = X*                    (modular conjugation),
    S = J Delta^{1/2}:  X Phi -> X* Phi.

The dual generators are built operator-by-operator as the composition
J Delta^{-1/2} (left-mult V_j*) Delta^{1/2} J on the GNS space. The
composition collapses to right multiplication by W_j = rho^{1/2} V_j
rho^{-1/2}; the collapse is asserted numerically as a cross-check rather
than assumed. Conjugate-linear maps are handled by explicit coordinate
conjugation (J = conjugation followed by the vec-transposition permutation),
so overall-linear compositions like the dual generators become ordinary
matrices.

sum_j W_j* W_j = I is equivalent to invariance sum_j V_j* rho V_j = rho, and
sum_j W_j rho W_j* = rho to the defining relation; dualizing twice returns
left multiplication by the original generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import DensityState, peripheral_spectrum
from .errors import NumericalHealthError
from .numerics import eig  # noqa: F401  (bound here for perfbench's span tracer)
from .numerics import herm_inv_sqrt, herm_sqrt, spectral_sets_match
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


def _transpose_permutation(n: int) -> np.ndarray:
    """Permutation K with K vec(A) = vec(A^T)."""
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k[j + i * n, i + j * n] = 1.0
    return k


@dataclass(frozen=True)
class ModularData:
    """Modular objects of a faithful state in the Hilbert-Schmidt model."""

    state: DensityState
    phi_vector: np.ndarray  # Phi = rho^{1/2}, the cyclic and separating vector
    delta_half: np.ndarray  # n^2 x n^2 matrix of X -> rho^{1/2} X rho^{-1/2}
    delta_minus_half: np.ndarray
    transpose_perm: np.ndarray  # K with K vec(A) = vec(A^T)

    @property
    def n(self) -> int:
        return self.state.n

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        """The conjugate-linear map vec(A) -> vec(A*)."""
        return self.transpose_perm @ np.conj(v)

    def conjugate_by_j(self, m: np.ndarray) -> np.ndarray:
        """Matrix of the (linear) composition J m J."""
        return self.transpose_perm @ np.conj(m) @ self.transpose_perm


def gns(system: PopescuSystem, state: DensityState, tol: float = 1e-10) -> ModularData:
    """Modular data for a faithful invariant state; rejects non-faithful input."""
    vals = np.linalg.eigvalsh(state.rho)
    if vals[0] <= tol:
        raise ValueError(
            f"state is not faithful (min eigenvalue {vals[0]:.3e}); "
            "compress the system to the support first"
        )
    inv_resid = np.linalg.norm(
        sum(v.conj().T @ state.rho @ v for v in system.operators) - state.rho, 2
    )
    if inv_resid > max(tol, 1e-9):
        raise ValueError(f"state is not invariant: residual {inv_resid:.3e}")
    rs = herm_sqrt(state.rho)
    rsi = herm_inv_sqrt(state.rho, tol)
    md = ModularData(
        state=state,
        phi_vector=rs,
        delta_half=np.kron(rsi.T, rs),
        delta_minus_half=np.kron(rs.T, rsi),
        transpose_perm=_transpose_permutation(system.n),
    )
    # the defining property of the cyclic vector, on a deterministic probe
    rng = np.random.default_rng(7)
    x = rng.standard_normal((system.n,) * 2) + 1j * rng.standard_normal((system.n,) * 2)
    lhs = np.trace(rs.conj().T @ x @ rs)
    rhs = np.trace(state.rho @ x)
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)) * system.n:
        raise NumericalHealthError("GNS pairing does not reproduce the state")
    return md


@dataclass(frozen=True)
class DualSystem:
    """The d dual generators, both as GNS-space matrices and as parameters.

    ``operators_gns[j]`` is the n^2 x n^2 matrix of the composed operator
    J Delta^{-1/2} (left-mult V_j*) Delta^{1/2} J; ``parameters[j]`` is
    W_j = rho^{1/2} V_j rho^{-1/2}, and operators_gns[j] acts as right
    multiplication by W_j.
    """

    modular: ModularData
    operators_gns: tuple[np.ndarray, ...]
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


def dual_system(system: PopescuSystem, state: DensityState, tol: float = 1e-9) -> DualSystem:
    """Construct the dual generators and verify the right-multiplication form."""
    md = gns(system, state, tol=min(tol, 1e-10))
    rs, rsi = md.phi_vector, herm_inv_sqrt(state.rho, 1e-10)
    eye = np.eye(system.n)
    ops, params = [], []
    for v in system.operators:
        left_adj = np.kron(eye, v.conj().T)  # vec(V_j* X) = (I kron V_j*) vec X
        composed = md.conjugate_by_j(md.delta_minus_half @ left_adj @ md.delta_half)
        w = rs @ v @ rsi
        right_w = np.kron(w.T, eye)  # vec(X W_j) = (W_j^T kron I) vec X
        dev = np.linalg.norm(composed - right_w, 2)
        if dev > max(tol, 1e-9) * max(1.0, np.linalg.norm(w, 2)):
            raise NumericalHealthError(
                f"dual generator does not reduce to right multiplication: residual {dev:.3e}"
            )
        ops.append(composed)
        params.append(w)
    return DualSystem(md, tuple(ops), tuple(params))


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the structural identities of the dual system."""

    completeness: float  # ||sum_j Vt_j Vt_j* - I|| on the GNS space
    double_dual: float  # max_j ||dual(dual(V_j)) - left-mult V_j||
    dual_invariance: float  # ||phi~ o sigma~ - phi~|| as ||sum W rho W* - rho||
    vector_consistency: float  # max_j ||Vt_j* Phi - V_j* Phi||
    commutation: float  # max_ij ||[Vt_i, left-mult V_j]||
    parameter_isometry: float  # ||sum_j W_j* W_j - I||
    predual_invariance: float  # ||sum_j V_j* rho V_j - rho||

    def max_residual(self) -> float:
        return max(
            self.completeness,
            self.double_dual,
            self.dual_invariance,
            self.vector_consistency,
            self.commutation,
            self.parameter_isometry,
            self.predual_invariance,
        )


def verify_duality(system: PopescuSystem, state: DensityState, tol: float = 1e-9) -> DualityReport:
    """Compute all duality residuals; raises only on precondition failure."""
    dual = dual_system(system, state, tol=tol)
    md = dual.modular
    n = system.n
    eye2 = np.eye(n * n)
    completeness = float(
        np.linalg.norm(
            sum(m @ m.conj().T for m in dual.operators_gns) - eye2, 2
        )
    )
    double_dual = 0.0
    for v, m in zip(system.operators, dual.operators_gns):
        # modular data of the commutant is (J, Delta^{-1})
        dd = md.conjugate_by_j(md.delta_half @ m.conj().T @ md.delta_minus_half)
        left_v = np.kron(np.eye(n), v)
        double_dual = max(double_dual, float(np.linalg.norm(dd - left_v, 2)))
    rho = state.rho
    dual_invariance = float(
        np.linalg.norm(sum(w @ rho @ w.conj().T for w in dual.parameters) - rho, 2)
    )
    rs = md.phi_vector
    vector_consistency = max(
        float(np.linalg.norm(rs @ w.conj().T - v.conj().T @ rs))
        for v, w in zip(system.operators, dual.parameters)
    )
    commutation = 0.0
    for m in dual.operators_gns:
        for v in system.operators:
            left_v = np.kron(np.eye(n), v)
            commutation = max(
                commutation, float(np.linalg.norm(m @ left_v - left_v @ m, 2))
            )
    parameter_isometry = float(
        np.linalg.norm(sum(w.conj().T @ w for w in dual.parameters) - np.eye(n), 2)
    )
    predual_invariance = float(
        np.linalg.norm(sum(v.conj().T @ rho @ v for v in system.operators) - rho, 2)
    )
    return DualityReport(
        completeness=completeness,
        double_dual=double_dual,
        dual_invariance=dual_invariance,
        vector_consistency=vector_consistency,
        commutation=commutation,
        parameter_isometry=parameter_isometry,
        predual_invariance=predual_invariance,
    )


@dataclass(frozen=True)
class DualComparison:
    """Spectral agreement between a system and its dual."""

    ergodic_match: bool
    psp_match: bool
    peripheral: tuple[complex, ...]
    dual_peripheral: tuple[complex, ...]


def compare_duals(
    system: PopescuSystem,
    state: DensityState,
    tol: float = 1e-8,
) -> DualComparison:
    """Ergodicity and peripheral-spectrum agreement of the dual pair.

    Both peripheral spectra start at the value 1, whose geometric
    multiplicity is the dimension of the fixed space, so it decides
    ergodicity of each side without another kernel.
    """
    dual = dual_system(system, state)
    peri = peripheral_spectrum(system)
    dperi = peripheral_spectrum(dual.parameter_system())
    values = tuple(p.value for p in peri)
    dvalues = tuple(p.value for p in dperi)
    return DualComparison(
        ergodic_match=(peri[0].multiplicity == 1) == (dperi[0].multiplicity == 1),
        psp_match=spectral_sets_match(values, dvalues, tol),
        peripheral=values,
        dual_peripheral=dvalues,
    )
