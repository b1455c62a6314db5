"""Classification verdicts assembled from the transfer-map analyses.

Three questions are answered about a system:

* purity of the induced state on the d-isometry algebra, which is
  equivalent to ergodicity of the transfer map (trivial fixed space);
* the order k of the finite circle subgroup formed by the peripheral
  spectrum, which counts the mutually disjoint irreducible pieces of the
  gauge-invariant restriction;
* purity/factoriality of the induced translation-invariant state on the
  two-sided chain, decided by the peripheral spectrum of the transfer map
  restricted to the algebra M generated by the operators, under the
  hypotheses (M is a factor, fixed space equals its commutant, state
  faithful).

Every spectral verdict is read off one transfer map, the system's own,
and its one certified Ritz pair: the fixed space, the invariant state (the
Cesaro limit from I/n) and the peripheral spectrum. The spectrum needs no
compression when the state is not faithful. Its support p is the largest
co-invariant subspace that carries a faithful invariant state, and the
peripheral eigenvectors of the trace-preserving predual live on p, where
it acts as the predual of the compression; so the compression has the
peripheral set of the given map (Evans-Hoegh-Krohn), and on p the state
is faithful and the gauge order k is at most rank p. The peripheral
spectrum of a unital CP map is semisimple, and
:func:`~fcstates.cpmap.peripheral_spectrum` raises unless each eigenspace
has the dimension of its eig cluster.

Both chain verdicts come from two objects: the commutant M' and the
peripheral set of sigma. An X that commutes with every V_i and V_i*
satisfies sigma(X) = X sum_i V_i V_i* = X, so M' lies in the fixed space
of sigma. When the map is ergodic its fixed space is C.1, hence M' = C.1,
M = M'' = M_n, and sigma restricted to M is sigma itself: M is a factor,
and the chain verdicts are read from the peripheral spectrum already
computed for k. Off that path (direct sums, ancillas) the chain is that of
the support: the system is compressed there, only when the state is not
faithful, and a unital CP map with a faithful invariant state has
Fix = M'. M' is solved inside the fixed space of the compression, which
X -> pXp maps Fix(sigma) onto, so it is read in the basis of p from the
fixed space already computed, with no second transfer map; and M
is a factor iff the centre Z(M) = M cap M' = Z(M'), the commutant of M'
inside M', is C.1. With one central block, sigma = sigma_W (x) id on
M = M_{n_1} (x) I, so the peripheral set already reported decides purity
there too. Neither M'' nor the restriction of sigma to it is formed.

Two outcomes cannot occur in exact arithmetic, so each aborts with
:class:`NumericalHealthError` instead of flipping a verdict: a commutant
whose dimension is not that of the fixed space of sigma (X -> pXp maps
Fix(sigma) onto the fixed space of the compression), and two eigenvalues
that eig clusters at one peripheral value of an ergodic map, whose
peripheral values are simple. Each means a kernel or an eigensolver at its
tolerance boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cpmap import (
    DensityState,
    OperatorSubspace,
    _to_hermitian,
    commutant,
    fixed_points,
    gauge_group_order,
    invariant_state,
    peripheral_spectrum,
)
from .errors import NumericalHealthError
# eig is unused here, but perfbench's tracer test asserts classify.eig
from .numerics import eig, spectral_sets_match  # noqa: F401
from .popescu import PopescuSystem, compress, validate

__all__ = ["ClassificationReport", "classify_od", "classify_chain"]

HYPOTHESES_NOT_MET = "hypotheses not met"


@dataclass(frozen=True)
class ClassificationReport:
    """Collected verdicts for one system, each held once.

    ``ergodic`` is also purity on the d-isometry algebra. ``m_is_factor``, set
    by :func:`classify_chain`, is the one chain hypothesis decided; the other
    two are theorems on the support of the invariant state. ``chain_pure``
    is also the factoriality of the chain state, or HYPOTHESES_NOT_MET.
    """

    validate_residual: float
    ergodic: bool
    invariant_state: DensityState
    peripheral: tuple[complex, ...]
    k: int | None
    m_is_factor: bool | None = None
    chain_pure: bool | str | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _classify_od(system: PopescuSystem, tol: float, tol_peripheral: float):
    """:func:`classify_od`, also returning the fixed space of the system."""
    notes: list[str] = []
    residual = validate(system)
    fixed = fixed_points(system, tol)
    ergodic = fixed.dim == 1
    state = invariant_state(system)
    if not ergodic:
        notes.append(
            "predual fixed space has dimension > 1; reported state is the "
            "exact Cesaro limit from I/n, not unique"
        )
    if not state.faithful:
        notes.append(
            f"invariant state has rank {state.rank} < {state.n}; "
            "verdicts after ergodicity are read on its support"
        )
    peripherals = peripheral_spectrum(system, tol_peripheral, tol)
    clustered = [p for p in peripherals if p.multiplicity > 1]
    if ergodic and clustered:
        raise NumericalHealthError(
            f"eig places {clustered[0].multiplicity} eigenvalues at the peripheral value "
            f"{clustered[0].value:.6f} of an ergodic map, where every peripheral "
            "eigenspace is one-dimensional; the eigensolver is at its tolerance "
            "boundary; classification is aborted"
        )
    if ergodic:
        # the state is faithful on its support of rank r, where the k
        # spectral projections of the eigenunitary are nonzero, so k <= r
        k = gauge_group_order([p.value for p in peripherals], tol=tol, max_denominator=state.rank)
    else:
        notes.append("transfer map is not ergodic; k undefined, peripheral set informational")
        k = None
    report = ClassificationReport(
        validate_residual=residual,
        ergodic=ergodic,
        invariant_state=state,
        peripheral=tuple(p.value for p in peripherals),
        k=k,
        notes=tuple(notes),
    )
    return report, fixed


def _fixed_on_support(fixed: OperatorSubspace, carrier: np.ndarray) -> OperatorSubspace:
    """Fix(sigma_p) = p Fix(sigma) p (Carbone-Pautrat) in the n x r basis B
    of the support p: B* F_j B over the basis F_j of Fix(sigma), made
    orthonormal by one QR of their Hermitian coordinates. The QR keeps every
    column, so a lost rank shows as a commutant of another dimension."""
    r = carrier.shape[1]
    images = carrier.conj().T @ np.stack(fixed.basis) @ carrier
    coords = _to_hermitian(images.swapaxes(1, 2).reshape(-1, r * r).T).real
    return OperatorSubspace.from_hermitian(np.linalg.qr(coords)[0], r)


def classify_od(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Ergodicity, purity, and gauge-subgroup order, from one transfer map.

    Ergodicity (a trivial fixed-point space of the transfer map) is
    equivalent to purity of the induced state: the self-intertwiner space of
    the dilation is that same fixed space, so one kernel decides both. The
    peripheral spectrum is taken on the same map, whether or not the
    invariant state is faithful; a value whose eigenspace and eig cluster
    differ in dimension raises (:func:`~fcstates.cpmap.peripheral_spectrum`).
    When the map is ergodic, k is the order of the circle subgroup formed
    by that peripheral spectrum, snapped with denominators up to the rank r
    of the state; otherwise k is undefined and the peripheral set is
    informational.

    An ergodic map is irreducible on the support of its state, so each
    peripheral value t is simple: its eigenspace is spanned by a power of
    one eigenunitary, and the eig of the Ritz matrix places one eigenvalue
    at t. A value that eig places twice, with a kernel of S - t that reads
    two directions, aborts with :class:`NumericalHealthError`.
    """
    return _classify_od(system, tol, tol_peripheral)[0]


def classify_chain(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Full report: adds the two-sided chain verdicts to :func:`classify_od`.

    The chain verdicts are those of the system on the support of its
    invariant state, where the state is faithful and the fixed space is M'
    (a commutant of another dimension aborts as a kernel at the tolerance
    boundary), so those two hypotheses hold, and the one decided,
    ``m_is_factor``, is that the generated algebra M is a factor. When it
    is, the chain state is pure iff the peripheral spectrum of the transfer
    map restricted to M is {1}, and purity coincides with factoriality in
    this finite-dimensional setting.

    M' lies in the fixed space, since sigma(X) = X sum_i V_i V_i* = X for
    X in M'. So when the map is ergodic, M' = C.1 and M = M'' = M_n is a
    factor, and the restricted spectrum is the peripheral spectrum already
    computed for k, so the chain state is pure iff k = 1.

    Otherwise M' is solved inside a fixed space: that of sigma when the
    state is faithful, else that of the compression to the support p of
    the state, read from Fix(sigma) as p Fix(sigma) p, so no second
    transfer map is built. A fixed space read too small gives a commutant
    below dim Fix(sigma), which aborts. The centre of M is M cap M' = Z(M'), so M
    is a factor iff the commutant of M' inside M' is C.1; M itself is never
    formed. With one central block, K = C^{n_1} (x) C^{m_1},
    V_i = W_i (x) I, M = M_{n_1} (x) I and sigma = sigma_W (x) id, so sigma
    restricted to M has the peripheral set of sigma, the one
    :func:`classify_od` reported.
    """
    base, fixed = _classify_od(system, tol, tol_peripheral)
    factor = True  # an ergodic map has M = M_n
    if not base.ergodic:
        state, within = base.invariant_state, fixed
        if not state.faithful:
            system = compress(system, state.carrier)
            within = _fixed_on_support(fixed, state.carrier)
        comm = commutant(system.operators, tol, within=within)
        if comm.dim != fixed.dim:
            raise NumericalHealthError(
                f"the commutant of the operators on the support of the state "
                f"({comm.dim}-dimensional) differs from the fixed space of sigma "
                f"({fixed.dim}-dimensional), where the two have one dimension; a kernel "
                "is at the tolerance boundary; classification is aborted"
            )
        factor = commutant(comm.basis, tol, within=comm).dim == 1
    if not factor:
        return replace(
            base,
            m_is_factor=False,
            chain_pure=HYPOTHESES_NOT_MET,
            notes=(*base.notes, "chain hypotheses failed: M_is_factor"),
        )
    pure = spectral_sets_match(base.peripheral, [1.0], tol)
    return replace(base, m_is_factor=True, chain_pure=pure)
