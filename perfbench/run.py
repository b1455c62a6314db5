"""Closed-loop benchmark of fcstates through its public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify_random --seed 1 --seconds 22 --trace 0

One client runs one op at a time; the next op starts when the previous one
has returned.  Each op gets a system drawn from its own seed, and every
output is checked against the answer its generator knows.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Earlier lines
describe the run and its environment; spans of a traced run are written
to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: BLAS threads; one thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
#: Fresh processes timed from start to ready; setup_s is their median.
SETUP_PROBES = 7
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "largest_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


@dataclass
class Record:
    round_no: int
    label: str
    latency: float
    problems: list[str]
    traced: bool
    largest: bool


def _import_program():
    """Import fcstates from this checkout's src/, never from elsewhere."""
    if not (SRC / "fcstates" / "__init__.py").is_file():
        raise ImportError(f"no fcstates sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import fcstates

    if Path(fcstates.__file__).resolve().parent != SRC / "fcstates":
        raise ImportError(f"fcstates was imported from {fcstates.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Bench:
    """One workload in this process: set-up, then rounds of timed ops."""

    def __init__(self, workload_name: str, seed: int, workdir: Path):
        import workloads

        self.w = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # round 0 is the untimed warm-up on the smallest input
        slot = self.workload.smallest
        case = slot.make(workloads.op_rng(seed, 0, 0))
        call = workloads.prepare(slot, case, workdir / "warmup.json")
        call()
        self.pending = self.prepare_round(1)

    def prepare_round(self, round_no: int) -> list:
        ops = []
        for slot_no, slot in enumerate(self.workload.slots):
            case = slot.make(self.w.op_rng(self.seed, round_no, slot_no))
            path = self.workdir / f"r{round_no}-s{slot_no}.json"
            ops.append((slot, case, self.w.prepare(slot, case, path)))
        return ops

    def run(self, seconds: float, tracer=None) -> list[Record]:
        """Whole rounds until ``seconds`` have passed.

        With a tracer, untraced and traced rounds alternate and the run
        ends after a traced round, so both halves see the same mix.
        """
        records: list[Record] = []
        start = time.perf_counter()
        round_no = 1
        while True:
            traced = tracer is not None and round_no % 2 == 0
            if traced:
                tracer.install()
            try:
                for slot, case, call in self.pending:
                    records.append(self._op(slot, case, call, round_no, tracer if traced else None, len(records)))
            finally:
                if traced:
                    tracer.restore()
            if time.perf_counter() - start >= seconds and (tracer is None or traced):
                return records
            round_no += 1
            self.pending = self.prepare_round(round_no)

    def _op(self, slot, case, call, round_no, tracer, op_id) -> Record:
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            output = call()
        except Exception as exc:  # an op that raises counts as failed
            output, problems = None, [f"raised {exc!r}"]
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if output is not None:
            try:
                problems = self.w.check(slot, case, output)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        return Record(round_no, slot.label, latency, problems, tracer is not None, slot.largest)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _end_to_end(records: list[Record], setup: list[float]) -> dict:
    lat = [r.latency for r in records]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": _percentile(lat, 50),
        "latency_p90_s": _percentile(lat, 90),
        "largest_p50_s": statistics.median(r.latency for r in records if r.largest),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(not r.problems for r in records) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer(records: list[Record], tracer) -> dict:
    import spans

    def ops_per_s(traced: bool) -> float:
        lat = [r.latency for r in records if r.traced == traced]
        return len(lat) / sum(lat)

    overhead = ops_per_s(False) / ops_per_s(True) - 1.0
    traced_ops = sum(r.traced for r in records)
    return spans.layer_metrics(tracer.summary(), traced_ops, overhead)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            Bench(args.workload, args.seed, workdir)
            print(time.time())
            return 0
        setup = [] if args.trace else [
            _probe_setup(args.workload, args.seed + 7919 * k) for k in range(1, SETUP_PROBES + 1)
        ]
        bench = Bench(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        records = bench.run(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failed = [r for r in records if r.problems]
    p90 = _percentile([r.latency for r in records], 90)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "closed_loop_clients": 1,
        "rounds": records[-1].round_no,
        "ops": len(records),
        "samples_beyond_p90": sum(r.latency > p90 for r in records),
        "largest_ops": sum(r.largest for r in records),
        "setup_probes_s": setup,
        "failures": [f"{r.label}: {'; '.join(r.problems)}" for r in failed],
        "environment": _environment(),
    }
    if tracer is not None:
        metrics = _per_layer(records, tracer)
        info["traced_ops"] = sum(r.traced for r in records)
        info["spans"] = len(tracer.spans)
        tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = _end_to_end(records, setup)

    (OUT / f"result-{tag}.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
