import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = str(ROOT / "tools" / "verdict_digest.py")


def run_tool(*args, threads=None):
    env = None
    if threads is not None:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    return subprocess.run(
        [sys.executable, TOOL, *map(str, args)], capture_output=True, text=True, timeout=300, env=env
    )


@pytest.fixture(scope="module")
def one_round(tmp_path_factory):
    """The tool's output on one seed and round, and the dump it wrote."""
    dump = tmp_path_factory.mktemp("digest") / "ops.jsonl"
    return run_tool("--seeds", "41", "--rounds", "1", "--dump", dump), dump


def test_verdict_digest_runs_on_one_round(one_round):
    # the tool hashes the exit code and stdout of every CLI op of the
    # benchmark's analyze and dual workloads: 29 ops per seed and round
    done, dump = one_round
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  29 ops\n", done.stdout)
    ops = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(ops) == 29
    assert {op["command"] for op in ops} == {"analyze", "chain-eval", "cluster", "dual"}


def test_a_dump_compared_with_itself_reports_nothing(one_round):
    _, dump = one_round
    done = run_tool("--compare", dump, dump)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "29 ops, no difference\n"


def test_a_doctored_verdict_is_reported(one_round, tmp_path):
    # one analyze op has its verdict flipped and its rho moved by 1e-12, and
    # one dual op exits 3: the comparison names the first two as differences
    # and reports the float move under its command and key
    _, dump = one_round
    ops = [json.loads(line) for line in dump.read_text().splitlines()]
    analyze = next(op for op in ops if op["command"] == "analyze" and op["code"] == 0)
    doc = json.loads(analyze["stdout"])
    doc["ergodic"] = not doc["ergodic"]
    doc["invariant_state"]["rho"][0][0][0] += 1e-12
    analyze["stdout"] = json.dumps(doc)
    dual = next(op for op in ops if op["command"] == "dual")
    dual["code"] = 3
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("".join(json.dumps(op) + "\n" for op in ops))
    done = run_tool("--compare", dump, doctored)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert f"slot={analyze['slot']}: ergodic: {json.dumps(not doc['ergodic'])} != " in done.stdout
    assert any(f"slot={dual['slot']}: exit code 0 != 3" in line for line in lines)
    moved = re.fullmatch(r"largest float difference (\S+)  analyze invariant_state\.rho\[\]\[\]\[\]", lines[-1])
    assert moved and float(moved[1]) == pytest.approx(1e-12, rel=1e-3)
    assert len(lines) == 3


def test_the_digest_does_not_depend_on_the_blas_threads():
    # the floats depend on the BLAS thread count, so the tool pins it to
    # one thread: a run asked for two prints the digest of a one-thread run
    one, two = (run_tool("--seeds", "41", "--rounds", "1", threads=t) for t in (1, 2))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert two.stdout == one.stdout
