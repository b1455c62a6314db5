"""Every CLI slot of the benchmark, at its own sizes, against its known answers.

The benchmark's own tests check its generators only at n <= 6. Here each
``classify_random``, ``classify_structured`` and ``state_dual`` slot of
``perfbench/workloads.py`` runs for seeds 41-43, round 0, through the
benchmark's ``prepare`` and ``check``, exactly as a benchmark op runs; the
modules are imported, and nothing under ``perfbench/`` is written.

Each op also guards the spectral route. An op builds exactly one transfer
matrix sigma_r (n^2 x n^2), the one its system holds, on the system that
the op reads from its file: no slot is both not ergodic
and not faithful, the one case that compresses, and a state that is not
faithful is read on the same map. sigma_r takes exactly one n^2 x n^2 LU
solve, the bordered system of its invariant state, and no SVD or eig of
that size: every other spectral object is read from the p x p Ritz
matrix, p < n^2 on every slot. Every ``analyze`` op must print a state invariance residual
of at most 1e-14, which a predual fixed space read from the squared power
of sigma would exceed. The 87 ops take about 2.2 s with the guard and
2.0 s without (Intel Xeon, 1 BLAS thread).

Each ``state_dual`` slot of the ``dual`` command also guards the dual
layer's memory: ``dual_system`` and ``verify_duality`` hold d n x n
parameters and take n x n norms, so their traced peak allocation stays
below 16 n^4 bytes, one complex n^2 x n^2 array (sigma_r itself is that
size, so only the two calls are traced).

The seven ``dilation_moments`` slots run the same way, and each guards the
Cuntz check: ``cuntz_residuals`` takes Frobenius norms, so no SVD runs
inside it. ``np.linalg.norm(x, 2)`` reaches the SVD through the module
global ``numpy.linalg._linalg.svd``, which is where the guard records it.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _linalg

import fcstates

from conftest import record_transfer_factorizations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SLOTS = [
    (name, slot_no, slot)
    for name in ("classify_random", "classify_structured", "state_dual")
    for slot_no, slot in enumerate(workloads.WORKLOADS[name].slots)
]
IDS = [f"{name}-{slot_no}-{slot.label}" for name, slot_no, slot in SLOTS]


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("name, slot_no, slot", SLOTS, ids=IDS)
def test_benchmark_slot_meets_its_known_answers(monkeypatch, tmp_path, name, slot_no, slot, seed):
    case = slot.make(workloads.op_rng(seed, 0, slot_no))
    run = workloads.prepare(slot, case, tmp_path / "system.json")
    calls = record_transfer_factorizations(monkeypatch)
    output = run()
    monkeypatch.undo()
    assert workloads.check(slot, case, output) == []
    built = sorted(size for kind, size in calls if kind == "real_transfer")
    assert len(built) == 1
    assert sorted(size for kind, size in calls if kind != "real_transfer") == built
    assert all(kind == "solve" for kind, _ in calls if kind != "real_transfer")
    if slot.command == "analyze":
        assert json.loads(output[1])["residuals"]["state_invariance"] <= 1e-14


DUAL_SLOTS = [(slot_no, slot) for _, slot_no, slot in SLOTS if slot.command == "dual"]


def record_peaks(monkeypatch, module, *names) -> list[int]:
    """The traced peak allocation, in bytes, of each call of the named
    functions of the module, measured around that call alone."""
    peaks = []

    def traced(original):
        def tracing(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return tracing

    for name in names:
        monkeypatch.setattr(module, name, traced(getattr(module, name)))
    return peaks


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("slot_no, slot", DUAL_SLOTS, ids=[s.label for _, s in DUAL_SLOTS])
def test_dual_slot_allocates_no_n4_array(monkeypatch, tmp_path, slot_no, slot, seed):
    case = slot.make(workloads.op_rng(seed, 0, slot_no))
    run = workloads.prepare(slot, case, tmp_path / "system.json")
    peaks = record_peaks(monkeypatch, fcstates.cli, "dual_system", "verify_duality")
    output = run()
    monkeypatch.undo()
    assert workloads.check(slot, case, output) == []
    assert len(peaks) == 2
    assert max(peaks) < 16 * case.system.n**4


DILATION_SLOTS = list(enumerate(workloads.WORKLOADS["dilation_moments"].slots))


def record_svds_in_cuntz_residuals(monkeypatch) -> list[tuple[int, ...]]:
    """Shapes of the SVDs taken inside ``fcstates.cuntz_residuals``."""
    shapes = []
    svd, residuals = _linalg.svd, fcstates.cuntz_residuals

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_residuals(dil):
        with monkeypatch.context() as inside:
            inside.setattr(_linalg, "svd", recording_svd)
            return residuals(dil)

    monkeypatch.setattr(fcstates, "cuntz_residuals", recording_residuals)
    return shapes


def test_the_svd_guard_sees_a_spectral_norm(monkeypatch):
    monkeypatch.setattr(fcstates, "cuntz_residuals", lambda x: np.linalg.norm(x, 2))
    shapes = record_svds_in_cuntz_residuals(monkeypatch)
    assert fcstates.cuntz_residuals(np.ones((4, 3))) == pytest.approx(np.sqrt(12))
    assert shapes == [(4, 3)]


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("slot_no, slot", DILATION_SLOTS, ids=[s.label for _, s in DILATION_SLOTS])
def test_dilation_slot_meets_its_known_answers(monkeypatch, tmp_path, slot_no, slot, seed):
    case = slot.make(workloads.op_rng(seed, 0, slot_no))
    run = workloads.prepare(slot, case, tmp_path / "system.json")
    svds = record_svds_in_cuntz_residuals(monkeypatch)
    output = run()
    monkeypatch.undo()
    assert workloads.check(slot, case, output) == []
    assert svds == []
