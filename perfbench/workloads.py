"""The four benchmark workloads: input schedules, timed calls and checks.

A workload is a fixed round of slots.  Each slot names a generator with
its input size and the command that runs on it; every op draws a fresh
system from its own seed, so no input is ever seen twice.  Rounds always
run whole, so every run has the same mix of sizes whatever its length.
Why each workload exists, and which layers it stresses, is written down in
README.md next to this file.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fcstates
import fcstates.cli
import known_answers as ka
from known_answers import Case


@dataclass(frozen=True)
class Slot:
    """One op of a round: how to draw its input and what to run on it."""

    label: str
    make: Callable[[np.random.Generator], Case]
    command: str  # "analyze", "chain-eval", "cluster", "dual" or "dilation"
    largest: bool = False  # counts towards largest_p50_s


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]

    @property
    def smallest(self) -> Slot:
        """The slot used for the untimed warm-up op."""
        return self.slots[0]


def _analyze(label, make, largest=False) -> Slot:
    return Slot(label, make, "analyze", largest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify_random",
            # n=8, d=2 runs twice so that a round has an odd number of ops
            # and the median falls inside one size class, not between two
            tuple(
                _analyze(f"random n={n} d={d}", lambda r, d=d, n=n: ka.random_case(r, d, n), (n, d) == (16, 4))
                for n, d in ((8, 2), (8, 2), (8, 4), (12, 2), (12, 4), (16, 2), (16, 4))
            ),
        ),
        Workload(
            "classify_structured",
            (
                _analyze("nonfaithful r=4 s=4 d=2", lambda r: ka.nonfaithful_case(r, 2, 4, 4)),
                _analyze("ancilla m=4 a=2 d=2", lambda r: ka.ancilla_case(r, 2, 4, 2)),
                _analyze("periodic k=4 m=2 d=2", lambda r: ka.periodic_case(r, 2, 4, 2)),
                _analyze("periodic k=2 m=4 d=2", lambda r: ka.periodic_case(r, 2, 2, 4)),
                _analyze("direct_sum 4+4 d=2", lambda r: ka.direct_sum_case(r, 2, 4, 4)),
                _analyze("periodic k=3 m=3 d=2", lambda r: ka.periodic_case(r, 2, 3, 3)),
                _analyze("nonfaithful r=8 s=4 d=2", lambda r: ka.nonfaithful_case(r, 2, 8, 4), True),
                _analyze("ancilla m=4 a=3 d=2", lambda r: ka.ancilla_case(r, 2, 4, 3), True),
                _analyze("periodic k=4 m=3 d=3", lambda r: ka.periodic_case(r, 3, 4, 3), True),
                _analyze("periodic k=6 m=2 d=3", lambda r: ka.periodic_case(r, 3, 6, 2), True),
                _analyze("direct_sum 6+6 d=2", lambda r: ka.direct_sum_case(r, 2, 6, 6), True),
            ),
        ),
        Workload(
            "dilation_moments",
            tuple(
                Slot(f"dilation d={d} n={n} L={L}", lambda r, d=d, n=n, L=L: ka.dilation_case(r, d, n, L),
                     "dilation", d**L * n == 512)
                for d, n, L in ((2, 4, 5), (4, 2, 3), (2, 8, 4), (3, 4, 4), (2, 4, 6), (2, 6, 6), (4, 2, 4))
            ),
        ),
        Workload(
            "state_dual",
            # dual at n=16 runs three times: with 11 ops, p50 and p90 fall
            # inside one command's class, and the largest class is dual
            tuple(
                Slot(f"{cmd} n={n} d=2", lambda r, n=n: ka.state_case(r, 2, n), cmd, n == 16)
                for n, cmd in [(n, cmd) for n in (8, 12, 16) for cmd in ("chain-eval", "cluster", "dual")]
                + [(16, "dual"), (16, "dual")]
            ),
        ),
    )
}


def op_rng(seed: int, round_no: int, slot_no: int) -> np.random.Generator:
    """The generator of one op: distinct for every (seed, round, slot)."""
    return np.random.default_rng(np.random.SeedSequence([seed, round_no, slot_no]))


# ----------------------------------------------------------------------
# input files and the timed call
# ----------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_system(case: Case, path: Path) -> None:
    """Write the system file format that ``fcstates`` reads."""
    doc = {
        "d": case.system.d,
        "dim": case.system.n,
        "operators": [_matrix_json(v) for v in case.system.operators],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _observable(factors) -> str:
    return json.dumps({"start_site": 1, "factors": [_matrix_json(f) for f in factors]})


def prepare(slot: Slot, case: Case, path: Path) -> Callable[[], object]:
    """Write the op's input and return the call to time (no work done yet)."""
    if slot.command == "dilation":
        return lambda: _dilation_pipeline(case)
    write_system(case, path)
    argv = [slot.command, str(path)]
    if slot.command == "chain-eval":
        argv.append(_observable(case.observables[0]))
    elif slot.command == "cluster":
        argv += [_observable(case.observables[0][:1]), _observable(case.observables[1][:1])]
    return lambda: _run_cli(argv)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = fcstates.cli.main(argv)
    return code, out.getvalue()


def _dilation_pipeline(case: Case) -> dict:
    fc = fcstates
    dil = fc.build(case.system, case.level)
    res = fc.cuntz_residuals(dil)
    table = fc.moments(case.system, case.omega, case.level)
    checks = fc.moment_checks(table, case.system)
    via_dilation = fc.dilation_moments(dil, case.omega)
    return {
        "dim": dil.dim,
        "residual": max(res.isometry_residual, res.completeness_residual, checks.recursion_residual),
        "psd_min": checks.psd_min_eig,
        "moment_gap": float(np.max(np.abs(table.values - via_dilation.values))),
    }


# ----------------------------------------------------------------------
# checks against the known answers
# ----------------------------------------------------------------------

def check(slot: Slot, case: Case, output) -> list[str]:
    """Mismatches between an op's output and its known answers (empty if right)."""
    if slot.command == "dilation":
        return _check_dilation(case.expect, output)
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    return _CLI_CHECKS[slot.command](case.expect, doc)


def _mismatch(name, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


def _check_analyze(expect: dict, doc: dict) -> list[str]:
    hyp = doc.get("chain_hypotheses") or {}
    got = {
        "ergodic": doc.get("ergodic"),
        "k": doc.get("k"),
        "support_rank": doc.get("invariant_state", {}).get("support_rank"),
        "M_is_factor": hyp.get("M_is_factor"),
        "chain_pure": doc.get("chain_pure"),
    }
    return [m for key, want in expect.items() for m in _mismatch(key, got[key], want)]


def _check_chain_eval(expect: dict, doc: dict) -> list[str]:
    got = complex(*doc["value"])
    err = abs(got - expect["chain_value"])
    return [] if err <= ka.RESIDUAL_BOUND else [f"chain value off by {err:.3e}"]


def _check_cluster(expect: dict, doc: dict) -> list[str]:
    return _mismatch("decayed", doc["decayed"], expect["decayed"])


def _check_dual(expect: dict, doc: dict) -> list[str]:
    keys = ("completeness", "double_dual", "dual_invariance", "vector_consistency",
            "commutation", "parameter_isometry", "predual_invariance")
    worst = max(doc[k] for k in keys)
    out = [] if worst <= expect["max_residual"] else [f"duality residual {worst:.3e}"]
    out += _mismatch("psp_match", doc["psp_match"], expect["psp_match"])
    out += _mismatch("ergodic_match", doc["ergodic_match"], expect["ergodic_match"])
    return out


def _check_dilation(expect: dict, got: dict) -> list[str]:
    out = _mismatch("dim", got["dim"], expect["dim"])
    for key in ("residual", "moment_gap"):
        if not got[key] <= expect["residual_bound"]:
            out.append(f"{key} {got[key]:.3e}")
    if not got["psd_min"] >= expect["psd_floor"]:
        out.append(f"moment Gram min eigenvalue {got['psd_min']:.3e}")
    return out


_CLI_CHECKS = {
    "analyze": _check_analyze,
    "chain-eval": _check_chain_eval,
    "cluster": _check_cluster,
    "dual": _check_dual,
}
