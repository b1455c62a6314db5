"""Known-answer input generators for the fcstates benchmark.

Every generator draws from a numpy ``Generator``, builds its system only
through ``PopescuSystem.from_operators``, and returns the verdicts that
follow from the construction.  The benchmark checks each output against
these verdicts, so a check never trusts the code it measures.

Verdict keys follow the JSON report of ``fcstates analyze``: ``ergodic``,
``k`` (an integer, or ``"undefined"`` when the map is not ergodic),
``support_rank``, ``M_is_factor`` and ``chain_pure`` (``True``, ``False``
or ``"hypotheses not met"``).  The verdicts hold for every draw outside a
set of measure zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fcstates import PopescuSystem

HYPOTHESES_NOT_MET = "hypotheses not met"

#: Largest residual any structural identity may show on a valid system.
RESIDUAL_BOUND = 1e-8
#: Smallest eigenvalue a positive semidefinite moment Gram may show.
PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class Case:
    """One generated input and the answers its construction implies."""

    family: str
    system: PopescuSystem
    expect: dict
    level: int | None = None  # dilation level L
    omega: np.ndarray | None = None  # unit vector for the moment tables
    observables: tuple[tuple[np.ndarray, ...], ...] = field(default_factory=tuple)

    @property
    def shape(self) -> tuple[int, int, int | None]:
        """(n, d, L): the input size, independent of the drawn entries."""
        return (self.system.n, self.system.d, self.level)


def _row_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols complex matrix with orthonormal rows."""
    g = rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows))
    q, _ = np.linalg.qr(g)
    return q.conj().T


def _random_operators(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    # [V_1 ... V_d] with orthonormal rows is exactly sum_i V_i V_i* = 1
    w = _row_isometry(rng, n, d * n)
    return [w[:, i * n : (i + 1) * n] for i in range(d)]


def _verdicts(ergodic, k, support_rank, factor, chain_pure) -> dict:
    return {
        "ergodic": ergodic,
        "k": k,
        "support_rank": support_rank,
        "M_is_factor": factor,
        "chain_pure": chain_pure,
    }


def random_case(rng: np.random.Generator, d: int, n: int) -> Case:
    """Generic system: ergodic, primitive, faithful state, M = M_n, pure chain."""
    system = PopescuSystem.from_operators(_random_operators(rng, d, n))
    return Case("random", system, _verdicts(True, 1, n, True, True))


def direct_sum_case(rng: np.random.Generator, d: int, n1: int, n2: int) -> Case:
    """V_i = A_i (+) B_i for two independent random systems.

    The fixed space is spanned by the two block projections, so the map is
    not ergodic and the centre of M = M_n1 (+) M_n2 is two-dimensional.  The
    Cesaro limit from I/n weights both blocks, so it stays faithful.
    """
    n = n1 + n2
    ops = []
    for a, b in zip(_random_operators(rng, d, n1), _random_operators(rng, d, n2)):
        v = np.zeros((n, n), dtype=complex)
        v[:n1, :n1] = a
        v[n1:, n1:] = b
        ops.append(v)
    system = PopescuSystem.from_operators(ops)
    return Case("direct_sum", system, _verdicts(False, "undefined", n, False, HYPOTHESES_NOT_MET))


def periodic_case(rng: np.random.Generator, d: int, k: int, m: int) -> Case:
    """Block shift on C^k (x) C^m: V_i maps block j to block j+1 mod k.

    Each step uses its own random system, so the k-step return map is
    primitive: the map is ergodic with peripheral spectrum the k-th roots
    of unity.  The state is faithful, M' = C 1, so M = M_n is a factor and
    the chain state is not pure (its restricted peripheral set is not {1}).
    """
    if k < 2:
        raise ValueError("a block shift needs k >= 2")
    n = k * m
    ops = [np.zeros((n, n), dtype=complex) for _ in range(d)]
    for j in range(k):
        t = (j + 1) % k
        for i, a in enumerate(_random_operators(rng, d, m)):
            ops[i][t * m : (t + 1) * m, j * m : (j + 1) * m] = a
    system = PopescuSystem.from_operators(ops)
    return Case("periodic", system, _verdicts(True, k, n, True, False))


def nonfaithful_case(rng: np.random.Generator, d: int, r: int, s: int) -> Case:
    """Invariant state supported on a proper co-invariant subspace C^r.

    In the split C^r (+) C^s, V_i = [[A_i, 0], [C_i, D_i]], so every V_i*
    maps C^r into itself.  The rows of [V_1 ... V_d] are built orthonormal:
    the first r rows from a random system A on C^r, the last s rows random
    and orthogonal to them.  Mass outside C^r leaks out, so the unique
    invariant state has rank r; compressed to C^r the system is a generic
    random one.
    """
    n = r + s
    w = np.zeros((n, d * n), dtype=complex)
    for i, a in enumerate(_random_operators(rng, d, r)):
        w[:r, i * n : i * n + r] = a
    g = rng.standard_normal((s, d * n)) + 1j * rng.standard_normal((s, d * n))
    g -= (g @ w[:r].conj().T) @ w[:r]
    q, _ = np.linalg.qr(g.conj().T)
    w[r:] = q.conj().T
    system = PopescuSystem.from_operators([w[:, i * n : (i + 1) * n] for i in range(d)])
    return Case("nonfaithful", system, _verdicts(True, 1, r, True, True))


def ancilla_case(rng: np.random.Generator, d: int, m: int, a: int) -> Case:
    """V_i (x) I_a for a random system V on C^m.

    The fixed space is 1 (x) M_a (not ergodic), which is exactly the
    commutant of M = M_m (x) 1; M is a factor, the state rho_V (x) I/a is
    faithful, and the restricted peripheral set is that of V, so the chain
    state is pure.
    """
    ops = [np.kron(v, np.eye(a)) for v in _random_operators(rng, d, m)]
    system = PopescuSystem.from_operators(ops)
    return Case("ancilla", system, _verdicts(False, "undefined", m * a, True, True))


def dilation_case(rng: np.random.Generator, d: int, n: int, level: int) -> Case:
    """Random system for the truncated dilation at word length ``level``.

    The level-L quotient is (C^d)^{(x) L} (x) C^n, so its dimension is
    d^L n; the Cuntz relations hold below the boundary, the moment Gram is
    positive semidefinite, and both moment routes agree.
    """
    system = PopescuSystem.from_operators(_random_operators(rng, d, n))
    omega = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    omega /= np.linalg.norm(omega)
    expect = {
        "dim": d**level * n,
        "residual_bound": RESIDUAL_BOUND,
        "psd_floor": PSD_FLOOR,
    }
    return Case("dilation", system, expect, level=level, omega=omega)


def _predual_fixed_point(ops: list[np.ndarray], tol: float = 1e-14, max_iter: int = 20000) -> np.ndarray:
    # power iteration of rho -> sum_i V_i* rho V_i in Kraus form; a generic
    # random system is primitive, so this converges geometrically
    n = ops[0].shape[0]
    rho = np.eye(n, dtype=complex) / n
    for _ in range(max_iter):
        nxt = sum(v.conj().T @ rho @ v for v in ops)
        if np.linalg.norm(nxt - rho) <= tol:
            return 0.5 * (nxt + nxt.conj().T)
        rho = nxt
    raise ArithmeticError("predual power iteration did not converge")


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def chain_value(ops: list[np.ndarray], rho: np.ndarray, factors) -> complex:
    """omega(A_1 (x) ... (x) A_m) = trace(rho E_A1(... E_Am(1))), in Kraus form."""
    b = np.eye(rho.shape[0], dtype=complex)
    for a in reversed(factors):
        b = sum(a[i, j] * ops[i] @ b @ ops[j].conj().T for i in range(len(ops)) for j in range(len(ops)))
    return complex(np.trace(rho @ b))


def state_case(rng: np.random.Generator, d: int, n: int) -> Case:
    """Random faithful system with its invariant state and two 2-site observables.

    The invariant state comes from a power iteration written here, not from
    fcstates, so chain expectations have an independent reference value.
    The duality identities hold to roundoff, the dual pair agrees on
    ergodicity and peripheral spectrum, and two-point functions cluster.
    """
    ops = _random_operators(rng, d, n)
    system = PopescuSystem.from_operators(ops)
    rho = _predual_fixed_point(list(system.operators))
    observables = tuple((_hermitian(rng, d), _hermitian(rng, d)) for _ in range(2))
    expect = {
        "chain_value": chain_value(list(system.operators), rho, observables[0]),
        "decayed": True,
        "max_residual": RESIDUAL_BOUND,
        "psp_match": True,
        "ergodic_match": True,
    }
    return Case("state", system, expect, observables=observables)
