"""Classification verdicts assembled from the transfer-map analyses.

Three questions are answered about a system:

* purity of the induced state on the d-isometry algebra, which is
  equivalent to ergodicity of the transfer map (trivial fixed space);
* the order k of the finite circle subgroup formed by the peripheral
  spectrum of the compressed system, which counts the mutually disjoint
  irreducible pieces of the gauge-invariant restriction;
* purity/factoriality of the induced translation-invariant state on the
  two-sided chain, decided by the peripheral spectrum of the transfer map
  restricted to the algebra M generated by the operators, under the
  hypotheses (M is a factor, fixed space equals its commutant, state
  faithful).

Every verdict after ergodicity is read off one system: the given one when
its invariant state (the Cesaro limit from I/n) is faithful, and otherwise
its compression to the support p of that state, taken once. p is the
largest co-invariant subspace that carries a faithful invariant state, so
on it two facts hold as theorems: the compressed state is faithful, and
X -> pXp maps the fixed space of sigma onto that of the compression, so
the two have one dimension. A unital CP map with a faithful invariant
state has Fix(sigma) = M'. The last two chain hypotheses therefore hold on
the compressed system, and only "M is a factor" is decided. The peripheral
eigenvectors of the trace-preserving predual live on p, where it acts as
the predual of the compression, so the compressed map has the peripheral
set of the given one, and that set is reported.

Both chain verdicts come from two objects: the commutant M' and the
peripheral set of sigma. An X that commutes with every V_i and V_i*
satisfies sigma(X) = X sum_i V_i V_i* = X, so M' lies in the fixed space
of sigma. When the map is ergodic its fixed space is C.1, hence M' = C.1,
M = M'' = M_n, and sigma restricted to M is sigma itself: M is a factor,
and the chain verdicts are read from the peripheral spectrum already
computed for k. Off that path (direct sums, ancillas) M' is solved inside
the fixed space, and M is a factor iff the centre Z(M) = M cap M' = Z(M'),
the commutant of M' inside M', is C.1. With one central block,
sigma = sigma_W (x) id on M = M_{n_1} (x) I, so the peripheral set already
reported decides purity there too. Neither M'' nor the restriction of
sigma to it is formed.

Three outcomes cannot occur in exact arithmetic, so each aborts with
:class:`NumericalHealthError` instead of flipping a verdict: a compression
whose fixed space has another dimension than the map's, or whose state is
not faithful; a commutant smaller than the fixed space; and two
eigenvalues that eig clusters at one peripheral value of an ergodic map,
whose peripheral values are simple. Each means a kernel or an eigensolver
at its tolerance boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cpmap import (
    DensityState,
    check_semisimple,
    commutant,
    fixed_points,
    gauge_group_order,
    invariant_state,
    peripheral_spectrum,
    real_transfer,
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
    two are theorems on the compressed system. ``chain_pure`` is also the
    factoriality of the chain state, or HYPOTHESES_NOT_MET.
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
    """:func:`classify_od`, also returning the transfer map and fixed space
    of the system it classified: the given one when its state is faithful,
    its compression to the support of the state otherwise."""
    notes: list[str] = []
    residual = validate(system)
    form = real_transfer(system)
    fixed = fixed_points(form, tol)
    ergodic = fixed.dim == 1
    state = invariant_state(form)
    if not ergodic:
        notes.append(
            "predual fixed space has dimension > 1; reported state is the "
            "exact Cesaro limit from I/n, not unique"
        )
    if not state.faithful:
        notes.append(
            f"invariant state has rank {state.rank} < {state.n}; "
            "compressed to its support"
        )
        form = real_transfer(compress(system, state.support))
        cfixed, cstate = fixed_points(form, tol), invariant_state(form)
        if cfixed.dim != fixed.dim or not cstate.faithful:
            raise NumericalHealthError(
                f"the compression to the support of the invariant state has a "
                f"{cfixed.dim}-dimensional fixed space where the map has a "
                f"{fixed.dim}-dimensional one, and a state of rank {cstate.rank} on "
                f"{cstate.n} dimensions; compression keeps ergodicity and the dimension "
                "of the fixed space, and its state is faithful, so a kernel is at the "
                "tolerance boundary; classification is aborted"
            )
        fixed = cfixed
    peripherals = peripheral_spectrum(form, tol_peripheral, tol)
    clustered = [p for p in peripherals if p.algebraic > 1]
    if ergodic and clustered:
        raise NumericalHealthError(
            f"eig places {clustered[0].algebraic} eigenvalues at the peripheral value "
            f"{clustered[0].value:.6f} of an ergodic map with a faithful state, where "
            "every peripheral eigenspace is one-dimensional; the eigensolver is at "
            "its tolerance boundary; classification is aborted"
        )
    check_semisimple(peripherals)
    if ergodic:
        # the state is faithful and the map ergodic, so the k spectral
        # projections of the eigenunitary are nonzero and k <= n
        k = gauge_group_order([p.value for p in peripherals], tol=tol, max_denominator=form.n)
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
    return report, form, fixed


def classify_od(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Ergodicity, purity, and gauge-subgroup order of the compressed system.

    Ergodicity (a trivial fixed-point space of the transfer map) is
    equivalent to purity of the induced state: the self-intertwiner space of
    the dilation is that same fixed space, so one kernel decides both. When
    the invariant state is not faithful the system is compressed once to
    its support, and the peripheral spectrum is taken there; the
    compression must keep the dimension of the fixed space and have a
    faithful state. When the map is ergodic, k is the order of the circle
    subgroup formed by that peripheral spectrum; otherwise k is undefined
    and the peripheral set is informational. In both cases the geometric
    and algebraic multiplicities of every peripheral value must agree.

    The ergodic map, compressed, has a faithful state, so each peripheral
    value t is simple: its eigenspace is spanned by a power of one
    eigenunitary, and the eig of the Ritz matrix (see
    :func:`~fcstates.cpmap.peripheral_spectrum`) places one eigenvalue at t.
    Its eigenspace is X times the kernel of the p x p matrix S - t, so no
    n^2 x n^2 kernel is taken; a value that eig places twice aborts with
    :class:`NumericalHealthError`.
    """
    return _classify_od(system, tol, tol_peripheral)[0]


def classify_chain(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Full report: adds the two-sided chain verdicts to :func:`classify_od`.

    The chain verdicts are taken on the system that :func:`classify_od`
    classified, compressed to the support of the invariant state when that
    state is not faithful. Its state is faithful, and its fixed space is M'
    (a smaller commutant aborts as a kernel at the tolerance boundary), so
    those two hypotheses hold, and the one decided, ``m_is_factor``, is that
    the generated algebra M is a factor. When it is, the chain state is pure
    iff the peripheral spectrum of the transfer map restricted to M is {1},
    and purity coincides with factoriality in this finite-dimensional
    setting.

    M' lies in the fixed space, since sigma(X) = X sum_i V_i V_i* = X for
    X in M'. So when the map is ergodic, M' = C.1 and M = M'' = M_n is a
    factor, and the restricted spectrum is the peripheral spectrum already
    computed for k, so the chain state is pure iff k = 1.

    Otherwise M' is solved inside the fixed space. The centre of M is
    M cap M' = Z(M'), so M is a factor iff the commutant of M' inside M' is
    C.1; M itself is never formed. With one central block,
    K = C^{n_1} (x) C^{m_1}, V_i = W_i (x) I, M = M_{n_1} (x) I and
    sigma = sigma_W (x) id, so sigma restricted to M has the peripheral set
    of sigma, the one :func:`classify_od` reported.
    """
    base, form, fixed = _classify_od(system, tol, tol_peripheral)
    factor = True  # an ergodic map has M = M_n
    if not base.ergodic:
        comm = commutant(form.system.operators, tol, within=fixed)
        if comm.dim != fixed.dim:
            raise NumericalHealthError(
                f"the commutant of the operators ({comm.dim}-dimensional) is smaller "
                f"than the fixed space ({fixed.dim}-dimensional) although the state "
                "is faithful, where the two are equal; a kernel is at the tolerance "
                "boundary; classification is aborted"
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
