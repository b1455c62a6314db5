"""Every CLI slot of the benchmark, at its own sizes, against its known answers.

The benchmark's own tests check its generators only at n <= 6. Here each
``classify_random``, ``classify_structured`` and ``state_dual`` slot of
``perfbench/workloads.py`` runs for seeds 41-43, round 0, through the
benchmark's ``prepare`` and ``check``, exactly as a benchmark op runs; the
modules are imported, and nothing under ``perfbench/`` is written. The 87
ops take about 3 s (Intel Xeon, 1 BLAS thread).
"""

import sys
from pathlib import Path

import pytest

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
def test_benchmark_slot_meets_its_known_answers(tmp_path, name, slot_no, slot, seed):
    case = slot.make(workloads.op_rng(seed, 0, slot_no))
    output = workloads.prepare(slot, case, tmp_path / "system.json")()
    assert workloads.check(slot, case, output) == []
