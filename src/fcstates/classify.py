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

Purity of the chain state is computed only when the hypotheses hold;
otherwise the report says so explicitly instead of guessing.

Both chain verdicts come from two objects: the commutant M' and the
peripheral set of sigma. An X that commutes with every V_i and V_i*
satisfies sigma(X) = X sum_i V_i V_i* = X, so M' lies in the fixed space
of sigma. When the (compressed) map is ergodic its fixed space is C.1,
hence M' = C.1, M = M'' = M_n, and sigma restricted to M is sigma itself:
the first two hypotheses hold as a theorem, and the chain verdicts are read
from the peripheral spectrum already computed for k. Off that path (direct
sums, ancillas) M' is solved inside the fixed space, and M is a factor iff
the centre Z(M) = M cap M' = Z(M'), the commutant of M' inside M', is C.1.
With one central block, sigma = sigma_W (x) id on M = M_{n_1} (x) I, and
the uncompressed map has the peripheral set of its compression to the
support of the state, so the peripheral set already reported decides
purity there too. Neither M'' nor the restriction of sigma to it is formed.

Three outcomes cannot occur in exact arithmetic, so each aborts with
:class:`NumericalHealthError` instead of flipping a verdict: the
compression of an ergodic map to the support of its invariant state is
ergodic, and a unital CP map with a faithful invariant state has
Fix(sigma) = M', so a compressed map that is not ergodic, or a commutant
smaller than the fixed space, means a kernel at its tolerance boundary;
and every peripheral value of that compressed ergodic map is simple, so
two eigenvalues that eig clusters at one peripheral value mean an
eigensolver at its tolerance boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cpmap import (
    DensityState,
    OperatorSubspace,
    RealTransfer,
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

__all__ = ["ChainHypotheses", "ClassificationReport", "classify_od", "classify_chain"]

HYPOTHESES_NOT_MET = "hypotheses not met"


@dataclass(frozen=True)
class ChainHypotheses:
    """Hypothesis flags for the two-sided chain purity criterion."""

    m_is_factor: bool
    fixed_equals_m_prime: bool
    phi_faithful: bool

    def all_met(self) -> bool:
        return self.m_is_factor and self.fixed_equals_m_prime and self.phi_faithful


@dataclass(frozen=True)
class ClassificationReport:
    """Collected verdicts for one system."""

    validate_residual: float
    ergodic: bool
    od_state_pure: bool
    invariant_state: DensityState
    compressed_ergodic: bool | None
    peripheral: tuple[complex, ...]
    k: int | None
    chain_hypotheses: ChainHypotheses | None = None
    chain_pure: bool | str | None = None
    chain_factor: bool | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _comparable_system(
    form: RealTransfer,
    state: DensityState,
    fixed: OperatorSubspace,
    notes: list[str],
    tol: float,
):
    """The transfer map of the system, its state and its fixed space,
    compressed to the support of the state when the state is not faithful."""
    if state.faithful:
        return form, state, fixed
    notes.append(
        f"invariant state has rank {state.rank} < {state.n}; "
        "compressed to its support"
    )
    cform = real_transfer(compress(form.system, state.support))
    return cform, invariant_state(cform), fixed_points(cform, tol)


def _classify_od(system: PopescuSystem, tol: float, tol_peripheral: float):
    """:func:`classify_od`, also returning the transfer map, state and fixed
    space it ended on: compressed to the support of the state when the map
    is ergodic, as given otherwise. The transfer map is built once per
    system."""
    notes: list[str] = []
    residual = validate(system)
    form = real_transfer(system)
    fixed = fixed_points(form, tol)
    ergodic = fixed.dim == 1
    state = invariant_state(form)
    if state.unique is False:
        notes.append(
            "predual fixed space has dimension > 1; reported state is the "
            "exact Cesaro limit from I/n, not unique"
        )
    if not ergodic:
        peripherals = peripheral_spectrum(form, tol_peripheral, tol)
        check_semisimple(peripherals)
        notes.append("transfer map is not ergodic; k undefined, peripheral set informational")
        working, k = (form, state, fixed), None
    else:
        working = _comparable_system(form, state, fixed, notes, tol)
        cform, _, cfixed = working
        peripherals = peripheral_spectrum(cform, tol_peripheral, tol)
        clustered = [p for p in peripherals if p.algebraic > 1]
        if clustered:
            raise NumericalHealthError(
                f"eig places {clustered[0].algebraic} eigenvalues at the peripheral value "
                f"{clustered[0].value:.6f} of an ergodic map with a faithful state, where "
                "every peripheral eigenspace is one-dimensional; the eigensolver is at "
                "its tolerance boundary; classification is aborted"
            )
        check_semisimple(peripherals)
        if cfixed.dim != 1:
            raise NumericalHealthError(
                f"the map is ergodic but its compression to the support of the invariant "
                f"state has a {cfixed.dim}-dimensional fixed space; compression keeps "
                "ergodicity, so a fixed-point kernel is at the tolerance boundary; "
                "classification is aborted"
            )
        # the state is faithful and the map ergodic, so the k spectral
        # projections of the eigenunitary are nonzero and k <= n
        k = gauge_group_order([p.value for p in peripherals], tol=tol, max_denominator=cform.n)
    report = ClassificationReport(
        validate_residual=residual,
        ergodic=ergodic,
        od_state_pure=ergodic,
        invariant_state=state,
        compressed_ergodic=True if ergodic else None,
        peripheral=tuple(p.value for p in peripherals),
        k=k,
        notes=tuple(notes),
    )
    return report, working


def classify_od(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Ergodicity, purity, and gauge-subgroup order of the compressed system.

    Ergodicity (a trivial fixed-point space of the transfer map) is
    equivalent to purity of the induced state: the self-intertwiner space of
    the dilation is that same fixed space, so one kernel decides both. When
    the map is ergodic the system is compressed to the support of its
    unique invariant state, and k is the order of the circle
    subgroup formed by the compressed peripheral spectrum; otherwise k is
    undefined and the peripheral set is informational. In both cases the
    geometric and algebraic multiplicities of every peripheral value must
    agree, and an ergodic map must stay ergodic under compression.

    The ergodic map, compressed, has a faithful state, so each peripheral
    value t is simple: its eigenspace is spanned by a power of one
    eigenunitary, and eig places one eigenvalue at t. The representative
    eigen-operator is then eig's own eigenvector, checked by one residual
    ||sigma x - t x||, and no kernel of sigma - t is taken; a value that
    eig places twice aborts with :class:`NumericalHealthError`.
    """
    return _classify_od(system, tol, tol_peripheral)[0]


def classify_chain(
    system: PopescuSystem,
    tol: float = 1e-8,
    tol_peripheral: float = 1e-9,
) -> ClassificationReport:
    """Full report: adds the two-sided chain verdicts to :func:`classify_od`.

    Pipeline: compute the invariant state; if it is not faithful, compress
    to its support and continue there. Test the hypotheses (the generated
    algebra M is a factor, the fixed space equals the commutant M', the
    state is faithful). When they hold, the chain state is pure iff the
    peripheral spectrum of the transfer map restricted to M is {1}, and
    purity coincides with factoriality in this finite-dimensional setting.

    M' lies in the fixed space, since sigma(X) = X sum_i V_i V_i* = X for
    X in M'. So when the compressed map is ergodic, M' = C.1 and
    M = M'' = M_n: the first two hypotheses hold as a theorem, and the
    restricted spectrum is the peripheral spectrum of the compressed map,
    already computed for k, so the chain state is pure iff k = 1.

    Otherwise the state of the compressed map is faithful, so its fixed
    space is M' (a smaller commutant aborts as a kernel at the tolerance
    boundary), and M' is solved inside the fixed space. The centre of M is
    M cap M' = Z(M'), so M is a factor iff the commutant of M' inside M' is
    C.1; M itself is never formed. The restricted spectrum is read off the
    peripheral set that :func:`classify_od` reported for the uncompressed
    map, by two facts:

    * with one central block, K = C^{n_1} (x) C^{m_1}, V_i = W_i (x) I,
      M = M_{n_1} (x) I and sigma = sigma_W (x) id, so sigma restricted to
      M has the peripheral set of sigma;
    * the peripheral eigenvectors of the trace-preserving predual sigma_*
      live on the support p of the Cesaro state, where sigma_* acts on
      p M_n p as the predual of the compressed map, so the uncompressed
      map has the peripheral set of the compressed one.
    """
    base, (wform, wstate, fixed) = _classify_od(system, tol, tol_peripheral)
    notes = list(base.notes)
    if base.ergodic:
        hyp = ChainHypotheses(
            m_is_factor=True, fixed_equals_m_prime=True, phi_faithful=wstate.faithful
        )
    else:
        wform, wstate, fixed = _comparable_system(wform, wstate, fixed, notes, tol)
        comm = commutant(wform.system.operators, tol, within=fixed)
        if comm.dim != fixed.dim:
            raise NumericalHealthError(
                f"the commutant of the operators ({comm.dim}-dimensional) is smaller "
                f"than the fixed space ({fixed.dim}-dimensional) although the state "
                "is faithful, where the two are equal; a kernel is at the tolerance "
                "boundary; classification is aborted"
            )
        hyp = ChainHypotheses(
            m_is_factor=commutant(comm.basis, tol, within=comm).dim == 1,
            fixed_equals_m_prime=True,
            phi_faithful=wstate.faithful,
        )
    if not hyp.all_met():
        failing = [
            name
            for name, ok in (
                ("M_is_factor", hyp.m_is_factor),
                ("fixed_equals_M_prime", hyp.fixed_equals_m_prime),
                ("phi_faithful", hyp.phi_faithful),
            )
            if not ok
        ]
        notes.append(f"chain hypotheses failed: {', '.join(failing)}")
        return replace(
            base, chain_hypotheses=hyp, chain_pure=HYPOTHESES_NOT_MET, notes=tuple(notes)
        )
    chain_pure = spectral_sets_match(base.peripheral, [1.0], tol)
    return replace(
        base,
        chain_hypotheses=hyp,
        chain_pure=chain_pure,
        chain_factor=chain_pure,
        notes=tuple(notes),
    )
