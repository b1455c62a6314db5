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

Every verdict is read from two stages on the system's own transfer map
and its one certified Ritz pair: the invariant state (the Cesaro limit
from I/n) and the peripheral spectrum, which holds each eigenspace once.
Its first entry is the value 1, whose space is the fixed space: the
multiplicity of 1 decides ergodicity, and off the ergodic path M' is
solved inside that space. The spectrum needs no compression when the
state is not faithful: its support p is the largest co-invariant subspace
that carries a faithful invariant state, the peripheral eigenvectors of
the predual live on p, so the compression has the peripheral set of the
given map (Evans-Hoegh-Krohn), and k is at most rank p.

An X that commutes with every V_i and V_i* satisfies
sigma(X) = X sum_i V_i V_i* = X, so M' lies in the fixed space. When the
map is ergodic, M' = C.1 and M = M'' = M_n is a factor on which sigma is
itself, so the chain verdicts are read from the spectrum already computed
for k. Off that path (direct sums, ancillas) the chain is that of the
support, where a unital CP map with a faithful invariant state has
Fix = M'. X -> pXp maps Fix(sigma) onto the fixed space of the
compression, so M' is solved inside the space of the value 1 read in the
basis of p (:meth:`~fcstates.cpmap.OperatorSubspace.compressed`), with no
second transfer map. M is a factor iff its centre Z(M) = Z(M'), the
commutant of M' inside M', is C.1, and with one central block
sigma = sigma_W (x) id on M = M_{n_1} (x) I, so the peripheral set already
reported decides purity there too. Neither M'' nor the restriction of
sigma to it is formed.

Two outcomes cannot occur in exact arithmetic, so each aborts with
:class:`NumericalHealthError` instead of flipping a verdict: a commutant
whose dimension is not that of the fixed space, and two eigenvalues that
eig clusters at one peripheral value of an ergodic map, whose peripheral
values are simple. Each means a kernel or an eigensolver at its
tolerance boundary; so does an eigenspace of a dimension other than its
eig cluster, on which :func:`~fcstates.cpmap.peripheral_spectrum` raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cpmap import (
    DEFAULT_PERIPHERAL_TOL,
    DEFAULT_SET_TOL,
    DensityState,
    OperatorSubspace,
    commutant,
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
    """:func:`classify_od`, also returning the Hermitian coordinates of the
    fixed space: the space of the value 1, the first peripheral entry."""
    notes: list[str] = []
    residual = validate(system)
    state = invariant_state(system)
    peripherals = peripheral_spectrum(system, tol_peripheral, tol)
    ergodic = peripherals[0].multiplicity == 1
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
    return report, peripherals[0].space


def classify_od(
    system: PopescuSystem,
    tol: float = DEFAULT_SET_TOL,
    tol_peripheral: float = DEFAULT_PERIPHERAL_TOL,
) -> ClassificationReport:
    """Ergodicity, purity, and gauge-subgroup order, from one transfer map.

    Ergodicity (a trivial fixed-point space of the transfer map) is
    equivalent to purity of the induced state: the self-intertwiner space of
    the dilation is that same fixed space, so one kernel decides both, that
    of S - I, which :func:`~fcstates.cpmap.peripheral_spectrum` takes for
    its first entry, the value 1: the map is ergodic iff 1 is simple. Then
    k is the order of the circle subgroup formed by that spectrum, snapped
    with denominators up to the rank r of the state; otherwise k is
    undefined and the peripheral set is informational.

    An ergodic map is irreducible on the support of its state, so each
    peripheral value t is simple: its eigenspace is spanned by a power of
    one eigenunitary, and the eig of the Ritz matrix places one eigenvalue
    at t. A value that eig places twice, with a kernel of S - t that reads
    two directions, aborts with :class:`NumericalHealthError`.
    """
    return _classify_od(system, tol, tol_peripheral)[0]


def classify_chain(
    system: PopescuSystem,
    tol: float = DEFAULT_SET_TOL,
    tol_peripheral: float = DEFAULT_PERIPHERAL_TOL,
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

    Otherwise M' is solved inside the space of the value 1 that
    :func:`classify_od` read, when the state is faithful, or inside its
    image p Fix(sigma) p, the compression's fixed space, when it is not, so
    no second transfer map and no second kernel of S - I is taken. A fixed
    space read too small gives a commutant below dim Fix(sigma), which
    aborts. The centre of M is Z(M'), so M is a factor iff the commutant of
    M' inside M' is C.1; M itself is never formed. With one central block,
    V_i = W_i (x) I, M = M_{n_1} (x) I and sigma = sigma_W (x) id, so sigma
    restricted to M has the peripheral set :func:`classify_od` reported.
    """
    base, fixed = _classify_od(system, tol, tol_peripheral)
    factor = True  # an ergodic map has M = M_n
    if not base.ergodic:
        state, within = base.invariant_state, OperatorSubspace.from_hermitian(fixed, system.n)
        if not state.faithful:
            system = compress(system, state.carrier)
            within = within.compressed(state.carrier)
        comm = commutant(system.operators, tol, within=within)
        if comm.dim != fixed.shape[1]:
            raise NumericalHealthError(
                f"the commutant of the operators on the support of the state "
                f"({comm.dim}-dimensional) differs from the fixed space of sigma "
                f"({fixed.shape[1]}-dimensional), where the two have one dimension; a kernel "
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
