"""Tests of the benchmark itself: generators, checks, tracing and the runner.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fcstates  # noqa: E402
import known_answers as ka  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Slot  # noqa: E402

SMALL_ANALYZE = [
    lambda r: ka.random_case(r, 2, 3),
    lambda r: ka.direct_sum_case(r, 2, 2, 3),
    lambda r: ka.periodic_case(r, 2, 2, 2),
    lambda r: ka.periodic_case(r, 3, 3, 2),
    lambda r: ka.nonfaithful_case(r, 2, 2, 2),
    lambda r: ka.ancilla_case(r, 2, 2, 2),
]


def _run_op(slot: Slot, case, tmp_path):
    call = workloads.prepare(slot, case, tmp_path / "system.json")
    return workloads.check(slot, case, call())


@pytest.mark.parametrize("make", SMALL_ANALYZE, ids=["random", "direct_sum", "periodic2", "periodic3",
                                                     "nonfaithful", "ancilla"])
def test_analyze_generators_meet_their_verdicts(make, tmp_path):
    slot = Slot("small", make, "analyze")
    for seed in range(3):
        case = make(np.random.default_rng(seed))
        assert _run_op(slot, case, tmp_path) == [], case.family


@pytest.mark.parametrize("command", ["chain-eval", "cluster", "dual"])
def test_state_generator_meets_its_answers(command, tmp_path):
    make = lambda r: ka.state_case(r, 2, 3)  # noqa: E731
    case = make(np.random.default_rng(5))
    assert _run_op(Slot("small", make, command), case, tmp_path) == []


def test_dilation_generator_meets_its_answers(tmp_path):
    make = lambda r: ka.dilation_case(r, 2, 2, 3)  # noqa: E731
    case = make(np.random.default_rng(5))
    assert case.expect["dim"] == 16
    assert _run_op(Slot("small", make, "dilation"), case, tmp_path) == []


def test_checks_catch_a_wrong_answer(tmp_path):
    make = lambda r: ka.periodic_case(r, 2, 2, 2)  # noqa: E731
    case = make(np.random.default_rng(0))
    wrong = ka.Case(case.family, case.system, {**case.expect, "k": 3})
    assert _run_op(Slot("small", make, "analyze"), wrong, tmp_path) == ["k: got 2, expected 3"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_inputs_but_not_shapes(name):
    for slot_no, slot in enumerate(workloads.WORKLOADS[name].slots):
        a = slot.make(workloads.op_rng(1, 1, slot_no))
        b = slot.make(workloads.op_rng(2, 1, slot_no))
        again = slot.make(workloads.op_rng(1, 1, slot_no))
        assert a.shape == b.shape
        assert not np.allclose(a.system.operators[0], b.system.operators[0])
        assert all(np.array_equal(x, y) for x, y in zip(a.system.operators, again.system.operators))


def test_every_op_of_a_run_gets_its_own_seed():
    rngs = [workloads.op_rng(7, r, s).integers(1 << 62) for r in range(4) for s in range(11)]
    assert len(set(rngs)) == len(rngs)


def _bindings():
    mods = [fcstates] + [getattr(fcstates, m) for m in spans.MODULES]
    out = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}
    out[("PopescuSystem", "from_operators")] = vars(fcstates.PopescuSystem)["from_operators"]
    return out


def test_tracer_patches_every_binding_and_restores_all(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        from fcstates import classify, modular, numerics

        assert classify.eig is numerics.eig is modular.eig is fcstates.eig
        assert numerics.eig is not before[("fcstates.numerics", "eig")]
        make = lambda r: ka.random_case(r, 2, 3)  # noqa: E731
        case = make(np.random.default_rng(0))
        tracer.op = 0
        assert _run_op(Slot("small", make, "analyze"), case, tmp_path) == []
        tracer.op = None
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "classify.classify_chain", "numerics.eig", "popescu.from_operators"} <= names
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert all(s.op == 0 and (s.parent is None or s.parent < s.id) for s in tracer.spans)
    assert all(s.parent is not None for s in tracer.spans[1:])


def test_spans_outside_an_op_are_not_recorded():
    tracer = spans.Tracer()
    tracer.install()
    try:
        fcstates.eig(np.eye(2))
    finally:
        tracer.restore()
    assert tracer.spans == []


def test_summary_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(0, "classify.classify_chain", None, 0, 0.0, 10.0),
        spans.Span(1, "numerics.eig", 0, 0, 2.0, 5.0),
        spans.Span(2, "numerics.kernel", 0, 0, 6.0, 7.0),
        spans.Span(3, "numerics.eig", 1, 0, 3.0, 4.0),
    ]
    out = tracer.summary()
    assert out["classify.classify_chain"]["self_s"] == pytest.approx(6.0)
    assert out["numerics.eig"]["calls"] == 2
    assert out["numerics.eig"]["total_s"] == pytest.approx(3.0)  # nested call counted once
    assert out["numerics.eig"]["self_s"] == pytest.approx(3.0)
    assert out["numerics"]["self_s"] == pytest.approx(4.0)


def test_benchmark_json_matches_the_metrics_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in doc["end_to_end"])
    assert [m["name"] for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["paths"] == [HERE.name]


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "state_dual", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
