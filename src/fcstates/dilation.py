"""Truncated dilation: a finite-level space carrying approximate d-isometries.

The minimal dilation of a system is a Cuntz representation S_1..S_d whose
adjoints leave the base space invariant and restrict to the V_i* there, so
the word vector I (x) xi = S_I xi obeys the prefix rule

    < I (x) xi, IJ (x) eta > = < xi, V_J eta >,    0 unless one word
                                                   is a prefix of the other.

Below the truncation level L no new vectors appear: sum_i V_i V_i* = 1 gives
xi = sum_i S_i V_i* xi, so a word vector of length k < L equals
sum_{|J| = L-k} IJ (x) V_J* xi, and by the prefix rule the vectors of length
exactly L are orthonormal. The level-L piece of the dilation is therefore
(C^d)^{(x) L} (x) C^n for every system, with the base space embedded by
E_L = [V_J*]_{|J| = L} and the compressed shifts S_i = e_i (x) I (x) [V_1 ... V_d].
This space is invariant under the exact adjoints S_i*, so all adjoint-side
identities hold exactly, and the isometry relations hold below the
truncation boundary: the top word level is a boundary where no claims are
made.

The same data in scalar form is the moment function C(I, J), either from a
unit vector (C = <V_I* Omega, V_J* Omega>) or from a density state
(C = phi(V_I V_J*)), with its two structural properties: positive
semidefiniteness of the C-Gram and the recursion sum_i C(Ii, Ji) = C(I, J).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import DensityState
from .numerics import as_matrix
from .popescu import PopescuSystem, Word, words_up_to

__all__ = [
    "TruncatedDilation",
    "CuntzResiduals",
    "MomentTable",
    "build",
    "cuntz_residuals",
    "moments",
    "moment_checks",
    "moment_psd_with_D",
    "dilation_moments",
]


def _word_products(system: PopescuSystem, max_len: int) -> dict[Word, np.ndarray]:
    prods: dict[Word, np.ndarray] = {(): np.eye(system.n, dtype=complex)}
    for word in words_up_to(system.d, max_len):
        if word not in prods:
            prods[word] = prods[word[:-1]] @ system.operators[word[-1]]
    return prods


def _adjoint_stack(system: PopescuSystem, length: int) -> np.ndarray:
    """E_k = [V_J*]_{|J| = k}, stacked in the order of ``words_of_length``: (d^k n) x n.

    V_{jJ}* = V_J* V_j*, so E_k is E_{k-1} V_j* stacked over the first letter j.
    It is an isometry because sum_J V_J V_J* = 1.
    """
    e = np.eye(system.n, dtype=complex)
    for _ in range(length):
        e = np.vstack([e @ v.conj().T for v in system.operators])
    return e


@dataclass(frozen=True)
class TruncatedDilation:
    """The level-L piece (C^d)^{(x) L} (x) C^n of the minimal dilation.

    Coordinates are e_K (x) eta over words K of length L in lexicographic
    order. ``operators`` are the compressed shifts
    S_i = e_i (x) I_{d^{L-1}} (x) [V_1 ... V_d], which send e_K (x) eta with
    K = K'k to e_{iK'} (x) V_k eta; ``base_embedding`` is the isometry
    E_L = [V_J*]_{|J| = L}, the image of the empty-word vectors.
    """

    system: PopescuSystem
    level: int
    operators: tuple[np.ndarray, ...]
    base_embedding: np.ndarray

    @property
    def dim(self) -> int:
        return self.base_embedding.shape[0]

    def level_subspace(self, max_len: int) -> np.ndarray:
        """Orthonormal basis (columns) of the image of vectors of length <= max_len.

        Shorter word vectors expand into those of length m = ``max_len``, which
        map to e_I (x) E_{L-m} xi, so the basis is the isometry I_{d^m} (x) E_{L-m}.
        """
        if not 0 <= max_len <= self.level:
            raise ValueError(f"max_len must lie in 0..{self.level}, got {max_len}")
        return np.kron(
            np.eye(self.system.d**max_len), _adjoint_stack(self.system, self.level - max_len)
        )


def build(system: PopescuSystem, level: int) -> TruncatedDilation:
    """Construct the truncated dilation at the given word-length level.

    The dimension is d^level * n for every system; see the module docstring.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    d = system.d
    row = np.hstack(system.operators)  # [V_1 ... V_d]: e_k (x) eta -> V_k eta
    middle = np.kron(np.eye(d ** (level - 1)), row)
    ops = tuple(np.kron(np.eye(d)[:, i : i + 1], middle) for i in range(d))
    return TruncatedDilation(
        system=system,
        level=level,
        operators=ops,
        base_embedding=_adjoint_stack(system, level),
    )


@dataclass(frozen=True)
class CuntzResiduals:
    """Deviations from the d-isometry relations below the truncation boundary."""

    isometry_residual: float  # max_ij ||(S_i* S_j - delta_ij I)|restricted||
    completeness_residual: float  # ||(sum_i S_i S_i* - I)|restricted||


def cuntz_residuals(dil: TruncatedDilation) -> CuntzResiduals:
    """Isometry and completeness residuals on the image of sub-boundary vectors.

    At level 1 the restriction is to the embedded base space itself.
    """
    w = dil.level_subspace(dil.level - 1)
    q = dil.dim
    iso = 0.0
    for i, si in enumerate(dil.operators):
        for j, sj in enumerate(dil.operators):
            delta = np.eye(q) if i == j else np.zeros((q, q))
            iso = max(iso, float(np.linalg.norm((si.conj().T @ sj - delta) @ w, 2)))
    comp_op = sum(s @ s.conj().T for s in dil.operators) - np.eye(q)
    comp = float(np.linalg.norm(comp_op @ w, 2))
    return CuntzResiduals(iso, comp)


@dataclass(frozen=True)
class MomentTable:
    """Values C(I, J) over all word pairs up to a maximum length."""

    d: int
    max_len: int
    words: tuple[Word, ...]
    values: np.ndarray  # (W, W), values[a, b] = C(words[a], words[b])

    def index(self, word: Word) -> int:
        return self._index_map[tuple(word)]

    @property
    def _index_map(self) -> dict[Word, int]:
        cached = getattr(self, "_index_cache", None)
        if cached is None:
            cached = {w: a for a, w in enumerate(self.words)}
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def value(self, i_word: Word, j_word: Word) -> complex:
        return complex(self.values[self.index(i_word), self.index(j_word)])


def moments(system: PopescuSystem, source, max_len: int) -> MomentTable:
    """Moment table from a unit vector Omega or a DensityState.

    Vector source: C(I, J) = <V_I* Omega, V_J* Omega>  (so C(I, J) = Omega* V_I V_J* Omega).
    Density source: C(I, J) = phi(V_I V_J*) = trace(rho V_I V_J*).
    """
    words = words_up_to(system.d, max_len)
    prods = _word_products(system, max_len)
    stack = np.stack([prods[w] for w in words])  # (W, n, n)
    if isinstance(source, DensityState):
        b = np.einsum("ij,wjk->wik", source.rho, stack)
        c = b.reshape(len(words), -1) @ stack.reshape(len(words), -1).conj().T
    else:
        omega = np.asarray(source, dtype=complex).reshape(-1)
        if omega.shape != (system.n,):
            raise ValueError(f"Omega must be a vector of length {system.n}")
        if abs(np.linalg.norm(omega) - 1.0) > 1e-8:
            raise ValueError("Omega must be a unit vector")
        cols = np.stack([prods[w].conj().T @ omega for w in words], axis=1)  # V_I* Omega
        c = cols.conj().T @ cols
    return MomentTable(system.d, max_len, tuple(words), c)


@dataclass(frozen=True)
class MomentChecks:
    psd_min_eig: float
    recursion_residual: float


def moment_checks(table: MomentTable, system: PopescuSystem, tol: float = 1e-10) -> MomentChecks:
    """Positivity and recursion diagnostics of a moment table.

    ``psd_min_eig`` is the smallest eigenvalue of the Hermitized C-Gram;
    ``recursion_residual`` is max over |I|, |J| < max_len of
    |sum_i C(Ii, Ji) - C(I, J)|.
    """
    c = 0.5 * (table.values + table.values.conj().T)
    psd_min = float(np.linalg.eigvalsh(c)[0])
    resid = 0.0
    short = [w for w in table.words if len(w) < table.max_len]
    for wi in short:
        for wj in short:
            s = sum(
                table.value((*wi, i), (*wj, i)) for i in range(table.d)
            )
            resid = max(resid, abs(s - table.value(wi, wj)))
    return MomentChecks(psd_min, float(resid))


@dataclass(frozen=True)
class DominationCheck:
    psd: bool
    dominated: bool
    min_eig: float
    dominated_min_eig: float


def moment_psd_with_D(
    system: PopescuSystem,
    omega,
    d_op,
    max_len: int,
    tol: float = 1e-8,
) -> DominationCheck:
    """Positivity of the D-weighted moment form and its domination by the state.

    For Hermitian D fixed by the transfer map, the form
    (I, J) -> <V_I* Omega, D V_J* Omega> is PSD when D >= 0, and the
    difference form with D replaced by I - D is PSD when additionally
    D <= I (the compressed-commutant order interval).
    """
    d_op = as_matrix(d_op, "D")
    if np.linalg.norm(d_op - d_op.conj().T, 2) > tol:
        raise ValueError("D must be Hermitian")
    fixed_resid = np.linalg.norm(
        sum(v @ d_op @ v.conj().T for v in system.operators) - d_op, 2
    )
    if fixed_resid > tol:
        raise ValueError(
            f"D is not fixed by the transfer map: residual {fixed_resid:.3e}"
        )
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(omega) - 1.0) > 1e-8:
        raise ValueError("Omega must be a unit vector")
    words = words_up_to(system.d, max_len)
    prods = _word_products(system, max_len)
    cols = np.stack([prods[w].conj().T @ omega for w in words], axis=1)
    psd_floor = -max(tol, 1e-10)

    def min_eig(op: np.ndarray) -> float:
        g = cols.conj().T @ op @ cols
        return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])

    lo = min_eig(d_op)
    hi = min_eig(np.eye(system.n) - d_op)
    return DominationCheck(lo >= psd_floor, lo >= psd_floor and hi >= psd_floor, lo, hi)


def dilation_moments(dil: TruncatedDilation, omega, max_len: int | None = None) -> MomentTable:
    """Vector-state moments <Lambda(0 x Omega), S_I S_J* Lambda(0 x Omega)> of the dilation.

    Independent route to the same table as :func:`moments`; agreement is the
    executable form of the state/system/moment correspondence.
    """
    max_len = dil.level if max_len is None else max_len
    if max_len > dil.level:
        raise ValueError("cannot read moments beyond the truncation level")
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    root = dil.base_embedding @ omega
    words = words_up_to(dil.system.d, max_len)
    # C(I, J) = <S_I* root, S_J* root>, and S_I* applies S_{i_1}* first
    adj = []
    for w in words:
        u = root
        for letter in w:
            u = dil.operators[letter].conj().T @ u
        adj.append(u)
    cols = np.stack(adj, axis=1)
    c = cols.conj().T @ cols
    return MomentTable(dil.system.d, max_len, tuple(words), c)
