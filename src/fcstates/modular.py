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
Delta^{1/2} J. Each collapses to right multiplication by
W_j = rho^{1/2} V_j rho^{-1/2}. The collapse is checked rather than assumed:
the composition is applied step by step to the n^2 matrix units E_ab and
compared with E_ab W_j. The images of the units are the columns of the
composed operator in vec coordinates, so the Frobenius norm of the
difference over the units is the Hilbert-Schmidt norm of the operator
difference, at least its operator norm, at O(n^5) cost. The commutation of
the dual generators with left multiplications is measured the same way, from
the same images.

sum_j W_j* W_j = I is equivalent to invariance sum_j V_j* rho V_j = rho, and
sum_j W_j rho W_j* = rho to the defining relation; dualizing twice returns
left multiplication by the original generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import DensityState, RealTransfer, peripheral_spectrum
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
    md = ModularData(state=state, phi_vector=rs, phi_inverse=herm_inv_sqrt(state.rho, tol))
    # the defining property of the cyclic vector, on a deterministic probe
    rng = np.random.default_rng(7)
    x = rng.standard_normal((system.n,) * 2) + 1j * rng.standard_normal((system.n,) * 2)
    lhs = np.trace(rs.conj().T @ x @ rs)
    rhs = np.trace(state.rho @ x)
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)) * system.n:
        raise NumericalHealthError("GNS pairing does not reproduce the state")
    return md


def _matrix_units(n: int) -> np.ndarray:
    """The n^2 matrix units as a stack (n^2, n, n) in vec order: entry a + b n is E_ab."""
    return np.eye(n * n).reshape(n * n, n, n).swapaxes(1, 2)


@dataclass(frozen=True)
class DualSystem:
    """The d dual generators, as images of the matrix units and as parameters.

    ``system`` is the system that was dualized. ``unit_images[j][a + b n]``
    is the composed operator J Delta^{-1/2} (left-mult V_j*) Delta^{1/2} J
    applied to the matrix unit E_ab, a stack (n^2, n, n): the columns of
    its matrix in vec coordinates. ``parameters[j]`` is
    W_j = rho^{1/2} V_j rho^{-1/2}; the composed operator acts as right
    multiplication by W_j, and ``collapse`` is the largest Frobenius norm
    over the units of the difference.
    """

    system: PopescuSystem
    modular: ModularData
    unit_images: tuple[np.ndarray, ...]
    parameters: tuple[np.ndarray, ...]
    collapse: float

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
    """Construct the dual generators and verify the right-multiplication form.

    Each composition is applied to the n^2 matrix units one factor at a
    time, and its images must match E_ab W_j within ``tol`` (relative to
    ||W_j||) in Frobenius norm over the units.
    """
    md = gns(system, state, tol=min(tol, 1e-10))
    units = _matrix_units(system.n)
    inner = md.apply_delta_half(md.apply_j(units))  # the steps before V_j* enters
    images, params, collapse = [], [], 0.0
    for v in system.operators:
        composed = md.apply_j(md.apply_delta_minus_half(v.conj().T @ inner))
        w = md.phi_vector @ v @ md.phi_inverse
        dev = float(np.linalg.norm(composed - units @ w))
        if dev > max(tol, 1e-9) * max(1.0, np.linalg.norm(w, 2)):
            raise NumericalHealthError(
                f"dual generator does not reduce to right multiplication: residual {dev:.3e}"
            )
        images.append(composed)
        params.append(w)
        collapse = max(collapse, dev)
    return DualSystem(system, md, tuple(images), tuple(params), collapse)


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the structural identities of the dual system."""

    # ||sum_j Vt_j Vt_j* - I|| on the GNS space; sum_j R_{W_j} R_{W_j}* is
    # R_{sum_j W_j* W_j}, so this is one identity with parameter_isometry and
    # the two fields always hold the same number
    completeness: float
    double_dual: float  # max_j ||dual(dual(V_j)) - left-mult V_j||
    dual_invariance: float  # ||phi~ o sigma~ - phi~|| as ||sum W rho W* - rho||
    vector_consistency: float  # max_j ||Vt_j* Phi - V_j* Phi||
    commutation: float  # max_ij ||[Vt_i, left-mult V_j]||, Frobenius over the matrix units
    parameter_isometry: float  # ||sum_j W_j* W_j - I||, equal to completeness
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


def _left_commutator(images: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm over the matrix units of C(V X) - V C(X), for the map C
    whose images of the units are given (stacked as in :func:`_matrix_units`).

    V E_ab = sum_c V_ca E_cb, so C(V E_ab) is read from the images of the
    units E_cb, at O(n^5) cost.
    """
    n = v.shape[0]
    # [b, a] holds C(E_ab), flattened; V^T contracts the index a
    of_left = np.matmul(v.T, images.reshape(n, n, n * n)).reshape(images.shape)
    return float(np.linalg.norm(of_left - v @ images))


def verify_duality(dual: DualSystem) -> DualityReport:
    """Compute all duality residuals of a dual system built by :func:`dual_system`.

    Every residual is an n x n matrix norm, except ``commutation``:

    * sum_j R_{W_j} R_{W_j}* is right multiplication by sum_j W_j* W_j, and
      the norm of B^T kron I is that of B, so ``completeness`` is the
      spectral norm of sum_j W_j* W_j - I;
    * the modular data of the commutant is (J, Delta^{-1}), so the dual of
      R_{W_j} is left multiplication by rho^{-1/2} W_j rho^{1/2}, and
      ``double_dual`` compares that with V_j in spectral norm;
    * ``commutation`` is the Frobenius norm over the matrix units of the
      commutator of each composed dual generator with left multiplication
      by each V_j, read from the unit images that :func:`dual_system`
      checked.
    """
    system, md = dual.system, dual.modular
    n = system.n
    rho, rs, rsi = md.state.rho, md.phi_vector, md.phi_inverse
    parameter_isometry = float(
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
    commutation = max(
        _left_commutator(images, v)
        for images in dual.unit_images
        for v in system.operators
    )
    predual_invariance = float(
        np.linalg.norm(sum(v.conj().T @ rho @ v for v in system.operators) - rho, 2)
    )
    return DualityReport(
        completeness=parameter_isometry,
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
    dual: DualSystem, tol: float = 1e-8, form: RealTransfer | None = None
) -> DualComparison:
    """Ergodicity and peripheral-spectrum agreement of the dual pair.

    Both peripheral spectra start at the value 1, whose geometric
    multiplicity is the dimension of the fixed space, so it decides
    ergodicity of each side without another kernel. ``form`` is the
    transfer map of the dualized system when the caller already holds it
    (with its factored sigma - I); it is built otherwise.
    """
    if form is not None and form.system is not dual.system:
        raise ValueError("form is not the transfer map of the dualized system")
    peri = peripheral_spectrum(dual.system if form is None else form)
    dperi = peripheral_spectrum(dual.parameter_system())
    values = tuple(p.value for p in peri)
    dvalues = tuple(p.value for p in dperi)
    return DualComparison(
        ergodic_match=(peri[0].multiplicity == 1) == (dperi[0].multiplicity == 1),
        psp_match=spectral_sets_match(values, dvalues, tol),
        peripheral=values,
        dual_peripheral=dvalues,
    )
