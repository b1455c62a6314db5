"""Shared fixtures: the four named reference systems and small helpers."""

import numpy as np
import pytest
from scipy.linalg import block_diag

import fcstates.cpmap
from fcstates import PopescuSystem, peripheral_spectrum, random_system
from fcstates.cpmap import OperatorSubspace, _to_hermitian

from oracles import (
    kernel_peripheral_spectrum,
    peripheral_eigenspace,
    squared_certificate,
    svd_fixed_dimension,
    svd_fixed_kernels,
    svd_route_fixed_kernels,
)


def eij(i: int, j: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


@pytest.fixture(scope="session")
def averaging3() -> PopescuSystem:
    """d=4 on C^3; transfer map X -> diag(X11, X22, (X11+X22)/2).

    The standard example of a fixed-point set that is not an algebra.
    """
    return PopescuSystem.from_operators(
        [
            eij(0, 0, 3),
            eij(1, 1, 3),
            eij(2, 0, 3) / np.sqrt(2),
            eij(2, 1, 3) / np.sqrt(2),
        ]
    )


@pytest.fixture(scope="session")
def rank_one2() -> PopescuSystem:
    """d=2 on C^2 with V_i = e_{i1}; unique invariant state is pure (e11)."""
    return PopescuSystem.from_operators([eij(0, 0, 2), eij(1, 0, 2)])


@pytest.fixture(scope="session")
def swap2() -> PopescuSystem:
    """d=2 on C^2 with V_1 = e12, V_2 = e21; peripheral spectrum {1, -1}."""
    return PopescuSystem.from_operators([eij(0, 1, 2), eij(1, 0, 2)])


def scalar(alpha: complex, beta: complex) -> PopescuSystem:
    """d=2 on C^1 with V = (alpha, beta), |alpha|^2 + |beta|^2 = 1."""
    return PopescuSystem.from_operators(
        [np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex)]
    )


@pytest.fixture(scope="session")
def scalar_half() -> PopescuSystem:
    return scalar(1 / np.sqrt(2), 1 / np.sqrt(2))


def record_transfer_factorizations(monkeypatch) -> list[tuple[str, int]]:
    """Record (name, size) of every ``np.linalg`` svd, eig and solve of a
    square matrix of the size n^2 of a real transfer matrix built while
    recording, and ("real_transfer", n^2) for each build.

    Every build goes through ``fcstates.cpmap.real_transfer``, which
    :attr:`PopescuSystem.transfer` looks up when a system first needs its
    map, so only systems that have not built theirs yet are counted: run
    the code under test on a system made in the test itself."""
    sizes, calls = set(), []
    build = fcstates.cpmap.real_transfer

    def building(system):
        sizes.add(system.n**2)
        calls.append(("real_transfer", system.n**2))
        return build(system)

    def recorder(name):
        original = getattr(np.linalg, name)

        def recording(a, *args, **kwargs):
            shape = np.shape(a)
            if shape[0] == shape[1] and shape[0] in sizes:
                calls.append((name, shape[0]))
            return original(a, *args, **kwargs)

        return recording

    monkeypatch.setattr(fcstates.cpmap, "real_transfer", building)
    for name in ("svd", "eig", "solve"):
        monkeypatch.setattr(np.linalg, name, recorder(name))
    return calls


def record_kernels(monkeypatch) -> list[tuple[np.dtype, tuple[int, ...]]]:
    """Record the dtype and shape of every kernel that cpmap takes."""
    calls = []
    kernel = fcstates.cpmap.kernel

    def recording(a, *args, **kwargs):
        a = np.asarray(a)
        calls.append((a.dtype, a.shape))
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(fcstates.cpmap, "kernel", recording)
    return calls


def assert_peripheral_spectrum_matches_kernel_oracle(system):
    """The peripheral spectrum against the dense-eig oracle
    :func:`oracles.kernel_peripheral_spectrum`, on the system's one
    transfer map."""
    # the library solves the Ritz matrix of a certified subspace and the
    # oracle the whole matrix, so a value may move by roundoff: 1e-12 is
    # 10^4 below set_tol. A simple value's eigenspace is a line, so the two
    # representatives agree; a kernel's first basis vector is not canonical,
    # so at a larger cluster the representative must lie in the oracle's
    # eigenspace, and the eigenspaces taken at the two values must agree
    form = system.transfer
    got = peripheral_spectrum(system)
    want = kernel_peripheral_spectrum(system)
    assert [p.multiplicity for p in got] == [q.multiplicity for q in want]
    assert all(q.multiplicity == q.algebraic for q in want)
    for p, q in zip(got, want):
        assert abs(p.value - q.value) <= 1e-12
        if p.multiplicity == 1:
            assert np.linalg.norm(p.operator - q.operator) <= 1e-10
            continue
        space = peripheral_eigenspace(form, q.value)
        c = _to_hermitian(p.operator)
        assert np.linalg.norm(c - space @ (space.conj().T @ c)) <= 1e-10 * np.linalg.norm(c)
        ours = OperatorSubspace.from_hermitian(peripheral_eigenspace(form, p.value), form.n)
        assert ours.span_equals(OperatorSubspace.from_hermitian(space, form.n), 1e-10)


def span_projector(basis: np.ndarray) -> np.ndarray:
    """The orthogonal projector onto the column span of a real basis."""
    q = np.linalg.qr(basis)[0]
    return q @ q.T


def assert_fixed_kernels_match_svd_route(system, tol=1e-8, bound=1e-12):
    """The fixed spaces and the certificate of the system's transfer map
    against the routes they replace (``tests/oracles.py``).

    F is orthonormal and H dual to it, F^T H = I; each spans the kernel that
    one full SVD of sigma - I gives, of the dimension that its singular
    values alone give, and, for f = 1, the closed form e and the bordered
    solve h of (sigma^T - I + e e^T) h = e. The worst gap of the
    projectors is 4.7e-15 on the known systems, the ORACLE_FAMILIES of
    test_classify and random(2,4,5) (x) I_3, and 2.1e-10 on the slow mixers
    and pauli_channel(1e-6), whose second singular value eps leaves every
    route eps_mach / eps from the fixed spaces (1 BLAS thread). Where X is
    sampled, the squaring loop certifies it as well.
    """
    form = system.transfer
    fixed, predual_fixed = form.fixed_kernels(tol)
    assert fixed.shape == predual_fixed.shape
    assert fixed.shape[1] == svd_fixed_dimension(form, tol)
    eye = np.eye(fixed.shape[1])
    assert np.linalg.norm(fixed.T @ fixed - eye, 2) <= 1e-13
    assert np.linalg.norm(fixed.T @ predual_fixed - eye, 2) <= 1e-13
    for oracle_fixed, oracle_predual in (
        svd_fixed_kernels(form, tol),
        svd_route_fixed_kernels(form, tol),
    ):
        assert np.linalg.norm(fixed @ fixed.T - oracle_fixed @ oracle_fixed.T, 2) <= bound
        gap = span_projector(predual_fixed) - span_projector(oracle_predual)
        assert np.linalg.norm(gap, 2) <= bound
    basis = form.ritz_matrix(1e-9)[0]
    assert basis.shape[1] == form.n**2 or squared_certificate(form, basis, 1e-9) is not None


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random n x n unitary."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def conjugated(system: PopescuSystem, seed: int) -> PopescuSystem:
    """U V_i U* for a random unitary U: the same system in another basis."""
    u = random_unitary(np.random.default_rng(seed), system.n)
    return PopescuSystem.from_operators([u @ v @ u.conj().T for v in system.operators])


def direct_sum(a: PopescuSystem, b: PopescuSystem) -> PopescuSystem:
    """V_i = A_i (+) B_i."""
    return PopescuSystem.from_operators(
        [block_diag(x, y) for x, y in zip(a.operators, b.operators)]
    )


def ancilla(system: PopescuSystem, a: int) -> PopescuSystem:
    """V_i (x) I_a."""
    return PopescuSystem.from_operators([np.kron(v, np.eye(a)) for v in system.operators])


def block_shift(k: int, d: int, m: int, seed: int) -> PopescuSystem:
    """Block shift on C^k (x) C^m: V_i maps block j to block j+1 mod k.

    Each step uses its own random system, so the peripheral spectrum is the
    k-th roots of unity.
    """
    n = k * m
    ops = [np.zeros((n, n), dtype=complex) for _ in range(d)]
    for j in range(k):
        t = (j + 1) % k
        for i, a in enumerate(random_system(d, m, seed + j).operators):
            ops[i][t * m : (t + 1) * m, j * m : (j + 1) * m] = a
    return PopescuSystem.from_operators(ops)


def nonfaithful(d: int, r: int, s: int, seed: int) -> PopescuSystem:
    """V_i = [[A_i, 0], [C_i, D_i]] on C^r (+) C^s with A a random system on C^r.

    Every V_i* maps C^r into itself and mass outside C^r leaks out, so the
    unique invariant state has rank r.
    """
    rng = np.random.default_rng(seed)
    n = r + s
    w = np.zeros((n, d * n), dtype=complex)
    for i, a in enumerate(random_system(d, r, seed).operators):
        w[:r, i * n : i * n + r] = a
    g = rng.standard_normal((s, d * n)) + 1j * rng.standard_normal((s, d * n))
    g -= (g @ w[:r].conj().T) @ w[:r]
    q, _ = np.linalg.qr(g.conj().T)
    w[r:] = q.conj().T
    return PopescuSystem.from_operators([w[:, i * n : (i + 1) * n] for i in range(d)])


def pauli_channel(p: float) -> PopescuSystem:
    """V = (sqrt(1-p) I, sqrt(p/2) X, sqrt(p/2) Z): ergodic, second eigenvalue 1 - p."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return PopescuSystem.from_operators(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 2) * x, np.sqrt(p / 2) * z]
    )


def slow_mixer(eps: float) -> PopescuSystem:
    """sigma = (1 - eps) id + eps sigma_V on 3 x 3 matrices: ergodic, with
    second eigenvalue 1 - O(eps)."""
    v = random_system(2, 3, 9)
    return PopescuSystem.from_operators(
        [np.sqrt(1 - eps) * np.eye(3)] + [np.sqrt(eps) * w for w in v.operators]
    )


def permutative_cycles(big_n: int) -> list[tuple[tuple[int, ...], PopescuSystem]]:
    """The cycle systems of the two-tap permutative filter of odd order N.

    On the basis e_m, m = -N..0, S_0* e_m = e_{pi(m)}/sqrt(2) and
    S_1* e_m = +-e_{pi(m)}/sqrt(2), with the sign - at even m, where
    pi(m) = m/2 for even m and (m - N)/2 for odd m permutes {-N, ..., 0}.
    The span of the e_m along one cycle of pi is invariant under both S_i*,
    and V_i = (S_i* restricted there)* is a system on C^{len(cycle)}: the
    scaled partial permutations V_0 = P/sqrt(2) and V_1 = D P/sqrt(2),
    ergodic with gauge order k = len(cycle) (Bratteli-Jorgensen, Mem. AMS
    139 (1999)). Each cycle is listed from its largest element, and the
    cycles by that element, descending.
    """
    if big_n % 2 == 0:
        raise ValueError(f"N = {big_n} is not odd")

    def pi(m):
        return m // 2 if m % 2 == 0 else (m - big_n) // 2

    out, seen = [], set()
    for start in range(0, -big_n - 1, -1):
        if start in seen:
            continue
        cycle = [start]
        while pi(cycle[-1]) != start:
            cycle.append(pi(cycle[-1]))
        seen.update(cycle)
        n = len(cycle)
        where = {m: j for j, m in enumerate(cycle)}
        adjoints = [np.zeros((n, n), dtype=complex) for _ in range(2)]
        for j, m in enumerate(cycle):
            target = where[pi(m)]
            adjoints[0][target, j] = np.sqrt(0.5)
            adjoints[1][target, j] = -np.sqrt(0.5) if m % 2 == 0 else np.sqrt(0.5)
        out.append((tuple(cycle), PopescuSystem.from_operators([a.conj().T for a in adjoints])))
    return out


BUILT_SYSTEMS = {
    "direct_sum": lambda: direct_sum(random_system(2, 2, 61), random_system(2, 3, 62)),
    "ancilla": lambda: ancilla(random_system(2, 2, 63), 3),
    "block_shift3": lambda: block_shift(3, 2, 2, 64),
    "random_n4": lambda: random_system(3, 4, 65),
    "random_n9": lambda: random_system(2, 9, 66),
}


@pytest.fixture(params=["averaging3", "swap2", "rank_one2", *BUILT_SYSTEMS])
def known_system(request) -> PopescuSystem:
    """Named and structured systems on which closed forms meet their oracles."""
    if request.param in BUILT_SYSTEMS:
        return BUILT_SYSTEMS[request.param]()
    return request.getfixturevalue(request.param)
