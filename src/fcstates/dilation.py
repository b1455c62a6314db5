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
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    prods: dict[Word, np.ndarray] = {(): np.eye(system.n, dtype=complex)}
    for word in words_up_to(system.d, max_len):
        if word not in prods:
            prods[word] = prods[word[:-1]] @ system.operators[word[-1]]
    return prods


def _unit_vector(omega, n: int) -> np.ndarray:
    """Omega as a complex unit vector of length n; ValueError otherwise."""
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if omega.shape != (n,):
        raise ValueError(f"Omega must be a vector of length {n}")
    if abs(np.linalg.norm(omega) - 1.0) > 1e-8:
        raise ValueError("Omega must be a unit vector")
    return omega


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
    order. The compressed shifts S_i = e_i (x) I_{d^{L-1}} (x) ``row``, with
    ``row`` = [V_1 ... V_d] (n x dn), send e_K (x) eta with K = K'k to
    e_{iK'} (x) V_k eta; they are held in this factored form and applied by
    :meth:`apply` and :meth:`apply_adjoint`, never as q x q arrays.
    ``base_embedding`` is the isometry E_L = [V_J*]_{|J| = L}, the image of
    the empty-word vectors.
    """

    system: PopescuSystem
    level: int
    row: np.ndarray
    base_embedding: np.ndarray

    @property
    def dim(self) -> int:
        return self.base_embedding.shape[0]

    def apply(self, i: int, x: np.ndarray) -> np.ndarray:
        """S_i X for a q x k block X, at q n k multiply-adds.

        X is read as (d^{L-1}, dn, k) over (K', (k, eta)); ``row`` maps each
        (k, eta) column block to C^n, and the result fills slot i of the first
        letter, the other d - 1 slots being zero.
        """
        d, n = self.system.d, self.system.n
        cols = x.shape[1]
        out = np.zeros((d, self.dim // (d * n), n, cols), dtype=complex)
        out[i] = self.row @ x.reshape(-1, d * n, cols)
        return out.reshape(self.dim, cols)

    def apply_adjoint(self, i: int, x: np.ndarray) -> np.ndarray:
        """S_i* X for a q x k block X: slot i of the first letter, times row*."""
        d, n = self.system.d, self.system.n
        cols = x.shape[1]
        slot = x.reshape(d, -1, n, cols)[i]
        return (self.row.conj().T @ slot).reshape(self.dim, cols)

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
    Only ``row`` (n x dn) and the q x n embedding are stored.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    return TruncatedDilation(
        system=system,
        level=level,
        row=np.hstack(system.operators),  # [V_1 ... V_d]: e_k (x) eta -> V_k eta
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

    With w = ``level_subspace(L-1)`` (q x m, m = q/d) the residual matrices
    are S_i* (S_i w) - w and sum_i S_i (S_i* w) - w, formed by
    :meth:`TruncatedDilation.apply` and :meth:`TruncatedDilation.apply_adjoint`
    at q n m multiply-adds per application, 4d of them in all, followed by
    d + 1 spectral norms of q x m matrices. No q x q array is formed.

    The blocks S_i* S_j w with i != j are exactly zero, not merely small:
    S_j writes only slot j of the first letter and S_i* reads only slot i,
    so they are read as 0.0 without forming them. The d diagonal residuals
    all equal I (x) (row* row - I) applied to w, but each goes through slot i
    of both methods, so a slot that either method gets wrong shows.
    """
    w = dil.level_subspace(dil.level - 1)
    iso = 0.0
    comp_w = -w
    for i in range(dil.system.d):
        r = dil.apply_adjoint(i, dil.apply(i, w)) - w
        iso = max(iso, float(np.linalg.norm(r, 2)))
        comp_w += dil.apply(i, dil.apply_adjoint(i, w))
    comp = float(np.linalg.norm(comp_w, 2))
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
        omega = _unit_vector(source, system.n)
        cols = np.stack([prods[w].conj().T @ omega for w in words], axis=1)  # V_I* Omega
        c = cols.conj().T @ cols
    return MomentTable(system.d, max_len, tuple(words), c)


@dataclass(frozen=True)
class MomentChecks:
    psd_min_eig: float
    recursion_residual: float


def moment_checks(table: MomentTable, system: PopescuSystem) -> MomentChecks:
    """Positivity and recursion diagnostics of a moment table.

    ``psd_min_eig`` is the smallest eigenvalue of the Hermitized C-Gram;
    ``recursion_residual`` is max over |I|, |J| < max_len of
    |sum_i C(Ii, Ji) - C(I, J)|.

    In ``words_up_to`` order the word at index a has its children Ii at
    d a + 1 + i, so the sums over i are read by one index gather of
    (#short words)^2 d entries. ``system`` is not read; it stays for
    callers that pass it positionally.
    """
    c = 0.5 * (table.values + table.values.conj().T)
    psd_min = float(np.linalg.eigvalsh(c)[0])
    short = sum(table.d**m for m in range(table.max_len))
    children = table.d * np.arange(short)[:, None] + 1 + np.arange(table.d)
    sums = table.values[children[:, None, :], children[None, :, :]].sum(axis=2)
    resid = np.max(np.abs(sums - table.values[:short, :short]), initial=0.0)
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
    omega = _unit_vector(omega, system.n)
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

    C(I, J) = <S_I* root, S_J* root>, and S_I* applies S_{i_1}* first, so the
    vector of the word Il is S_l* applied to the vector of I. The vectors are
    built one word length at a time: level k + 1 is d applications of
    :meth:`TruncatedDilation.apply_adjoint` to level k's q x d^k block,
    written into the columns that ``words_up_to`` order gives the children
    (d a + 1 + l for the word at index a). Each application costs q n per
    column, so every word other than the empty one costs q n multiply-adds,
    where replaying every word letter by letter costs sum_I |I| such steps.
    The working set is the q x W table of word vectors and the W x W Gram
    (W words); the Gram, q W^2, is the largest cost.
    """
    max_len = dil.level if max_len is None else max_len
    if not 0 <= max_len <= dil.level:
        raise ValueError(
            f"max_len must lie in 0..{dil.level} (the truncation level), got {max_len}"
        )
    omega = _unit_vector(omega, dil.system.n)
    d = dil.system.d
    words = words_up_to(d, max_len)
    cols = np.empty((dil.dim, len(words)), dtype=complex)
    cols[:, 0] = dil.base_embedding @ omega
    start, width = 0, 1  # columns of the words of the current length
    for _ in range(max_len):
        parent = cols[:, start : start + width]
        child = start + width
        for letter in range(d):
            cols[:, child + letter : child + d * width : d] = dil.apply_adjoint(letter, parent)
        start, width = child, d * width
    c = cols.conj().T @ cols
    return MomentTable(d, max_len, tuple(words), c)
