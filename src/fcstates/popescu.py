"""Core domain types: isometry tuples, words, validation, compression.

A system here is a tuple of complex n x n operators V_1, ..., V_d obeying
the defining relation sum_i V_i V_i* = 1. Equivalently, stacking the adjoints
into a single column gives an isometry from the n-dimensional space into its
d-fold direct sum; every such tuple is the compression of a d-isometry
representation to a co-invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ValidationError
from .numerics import as_matrix

__all__ = [
    "Word",
    "PopescuSystem",
    "validate",
    "v_word",
    "words_of_length",
    "words_up_to",
    "random_system",
    "compress",
]

#: A word is a finite tuple of 0-based letters in range(d); () is the empty word.
Word = tuple[int, ...]

DEFAULT_VALIDATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PopescuSystem:
    """Immutable tuple of d generators on an n-dimensional space.

    Construct through :meth:`from_operators`, which enforces the defining
    relation; the raw constructor is reserved for internal callers that have
    already validated. The residual of the relation and the real matrix of
    the transfer map are each computed once and held (:attr:`residual`,
    :attr:`transfer`), so systems compare and hash by identity.
    """

    operators: tuple[np.ndarray, ...]
    d: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(as_matrix(v, "operator")) for v in self.operators)
        if len(ops) < 2:
            raise ValidationError("a system needs at least d = 2 generators")
        n = ops[0].shape[0]
        for v in ops:
            if v.shape != (n, n):
                raise ValidationError(
                    f"all operators must be {n}x{n}, got {v.shape}"
                )
        for v in ops:
            v.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "d", len(ops))
        object.__setattr__(self, "n", n)

    @classmethod
    def from_operators(cls, operators, tol: float = DEFAULT_VALIDATE_TOL) -> "PopescuSystem":
        sys_ = cls(tuple(np.asarray(v, dtype=complex) for v in operators))
        residual = validate(sys_)
        if residual > tol:
            raise ValidationError(
                f"defining relation fails: ||sum V_i V_i* - I|| = {residual:.3e} > {tol:.3e}"
            )
        return sys_

    def __iter__(self):
        return iter(self.operators)

    @cached_property
    def residual(self) -> float:
        """||sum_i V_i V_i* - I||, the residual of the defining relation."""
        acc = sum(v @ v.conj().T for v in self.operators)
        return float(np.linalg.norm(acc - np.eye(self.n), 2))

    @cached_property
    def transfer(self):
        """The transfer map sigma(X) = sum_i V_i X V_i* as a real matrix in
        Hermitian coordinates (:class:`~fcstates.cpmap.RealTransfer`), with
        its certified Ritz pair: every spectral stage reads this one map."""
        from . import cpmap  # looked up per call, so a wrapper on real_transfer sees each build

        return cpmap.real_transfer(self)


def validate(system: PopescuSystem) -> float:
    """Residual ||sum_i V_i V_i* - I|| of the defining relation, computed
    once per system."""
    return system.residual


def v_word(system: PopescuSystem, word: Word) -> np.ndarray:
    """Ordered product V_{i_1} V_{i_2} ... V_{i_m}; the empty word gives I."""
    out = np.eye(system.n, dtype=complex)
    for letter in word:
        if not 0 <= letter < system.d:
            raise ValueError(f"letter {letter} out of range for d = {system.d}")
        out = out @ system.operators[letter]
    return out


def words_of_length(d: int, length: int) -> list[Word]:
    """All words of exactly the given length, in lexicographic order."""
    return [tuple(w) for w in product(range(d), repeat=length)]


def words_up_to(d: int, max_len: int) -> list[Word]:
    """All words of length <= max_len, ordered by length then lexicographically."""
    out: list[Word] = []
    for m in range(max_len + 1):
        out.extend(words_of_length(d, m))
    return out


def random_system(d: int, n: int, seed: int) -> PopescuSystem:
    """Draw a Haar-ish random system, deterministic in the seed.

    An (n*d) x n complex Gaussian matrix is orthonormalized; its d row-blocks
    B_i then satisfy sum_i B_i* B_i = I, so V_i = B_i* is a valid system with
    validation residual at roundoff level.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * d, n)) + 1j * rng.standard_normal((n * d, n))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * n : (i + 1) * n, :].conj().T for i in range(d))
    return PopescuSystem.from_operators(ops, tol=1e-12)


def compress(system: PopescuSystem, basis, tol: float = 1e-8) -> PopescuSystem:
    """The operators B* V_i B on the range of an n x r isometry B that every
    V_i* leaves invariant, such as the support basis
    :attr:`DensityState.carrier <fcstates.cpmap.DensityState.carrier>`.

    Requires B*B = I and (I - BB*) V_i* B = 0, whose norm is
    ||EV_i - EV_iE|| for E = BB*. The result is re-validated unconditionally:
    a co-invariant range that is not the support of an invariant state can
    give an invalid compression, and that must surface as an error.
    """
    basis = as_matrix(basis, "basis")
    n = system.n
    if basis.shape[0] != n or basis.shape[1] == 0:
        raise ValidationError(f"basis must be {n} x r with r >= 1, got {basis.shape}")
    if np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]), 2) > tol:
        raise ValidationError("basis is not an isometry within tolerance")
    for i, v in enumerate(system.operators):
        image = v.conj().T @ basis
        dev = np.linalg.norm(image - basis @ (basis.conj().T @ image), 2)
        if dev > tol:
            raise ValidationError(
                f"co-invariance violated for generator {i}: ||(I - BB*) V* B|| = {dev:.3e}; "
                "range(B) is not the support of an invariant state"
            )
    compressed = PopescuSystem(tuple(basis.conj().T @ v @ basis for v in system.operators))
    residual = validate(compressed)
    if residual > max(tol, DEFAULT_VALIDATE_TOL):
        raise ValidationError(
            f"compressed system fails the defining relation (residual {residual:.3e}); "
            "range(B) is co-invariant but not the support of an invariant state"
        )
    return compressed
