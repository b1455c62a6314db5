"""Shared fixtures: the four named reference systems and small helpers."""

import numpy as np
import pytest
from scipy.linalg import block_diag

import fcstates.cpmap
from fcstates import PopescuSystem, peripheral_spectrum, random_system
from fcstates.cpmap import OperatorSubspace, _to_hermitian, real_transfer, vec

from oracles import kernel_peripheral_spectrum, peripheral_eigenspace


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


def record_transfer_svds(monkeypatch, *modules) -> list[bool]:
    """Record ``compute_uv`` of every SVD of sigma_r - I or its transpose,
    for every real transfer matrix that the given modules build."""
    forms, flags = [], []
    build, svd = fcstates.cpmap.real_transfer, np.linalg.svd

    def building(system):
        forms.append(build(system))
        return forms[-1]

    def recording(a, *args, **kwargs):
        a = np.asarray(a)
        for form in forms:
            shifted = form.shifted(1.0)
            if a.shape == shifted.shape and (
                np.array_equal(a, shifted) or np.array_equal(a, shifted.T)
            ):
                flags.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "real_transfer", building, raising=False)
    monkeypatch.setattr(np.linalg, "svd", recording)
    return flags


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
    :func:`oracles.kernel_peripheral_spectrum`, on one transfer map."""
    # the library solves the Ritz matrix of a certified subspace and the
    # oracle the whole matrix, so a value may move by roundoff: 1e-12 is
    # 10^4 below set_tol. A simple value's eigenspace is a line, so the two
    # representatives agree; a kernel's first basis vector is not canonical,
    # so at a larger cluster the representative must lie in the oracle's
    # eigenspace, and the eigenspaces taken at the two values must agree
    form = real_transfer(system)
    got = peripheral_spectrum(form)
    want = kernel_peripheral_spectrum(form)
    assert [(p.multiplicity, p.algebraic) for p in got] == [
        (q.multiplicity, q.algebraic) for q in want
    ]
    for p, q in zip(got, want):
        assert abs(p.value - q.value) <= 1e-12
        if p.algebraic == 1:
            assert np.linalg.norm(p.operator - q.operator) <= 1e-10
            continue
        space = peripheral_eigenspace(form, q.value)
        c = _to_hermitian(vec(p.operator))
        assert np.linalg.norm(c - space @ (space.conj().T @ c)) <= 1e-10 * np.linalg.norm(c)
        ours = OperatorSubspace.from_hermitian(peripheral_eigenspace(form, p.value), form.n)
        assert ours.span_equals(OperatorSubspace.from_hermitian(space, form.n), 1e-10)


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
