"""One SHA-256 over the verdicts of the benchmark's CLI ops, and a per-op
comparison of two runs.

Usage, from the root of a checkout:

    python3 tools/verdict_digest.py --seeds 41 42 43 --rounds 2 [--root DIR] [--dump FILE]
    python3 tools/verdict_digest.py --compare A B

For every ``classify_random``, ``classify_structured`` and ``state_dual``
op of the given seeds and rounds (rounds 0 .. R-1, every slot), the op's
input is drawn and run exactly as ``perfbench/run.py`` draws and runs it,
and its exit code and standard output are fed, in order, into one hash.
Two checkouts that print the same digest gave bit-identical verdicts on
every op. The BLAS libraries run on one thread, whatever the environment
asks, since the floats depend on the thread count. ``--root`` names the checkout whose ``src/`` and ``perfbench/``
are imported (default: the one holding this script), so the same script
can digest another checkout. Nothing under ``perfbench/`` is written.

``--dump FILE`` also writes each op as one JSON line: its workload, seed,
round, slot label, command, exit code and standard output. ``--compare A B``
reads two such dumps of the same ops and prints every difference in exit
code, in the keys of the JSON output, or in a value that is not a float,
then the largest float difference per command and key (list positions are
merged, so ``rho[][][]`` is every entry of rho). It exits 1 when anything
but floats differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("classify_random", "classify_structured", "state_dual")
OP_FIELDS = ("workload", "seed", "round", "slot")


def _ops(root: Path, seeds: list[int], rounds: int):
    """(workload, seed, round, slot, exit code, stdout) of every op, in order."""
    # the digest depends on the BLAS thread count; pin it to one thread
    # before numpy loads, as perfbench/run.py does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        for name in WORKLOADS:
            for seed in seeds:
                for round_no in range(rounds):
                    for slot_no, slot in enumerate(workloads.WORKLOADS[name].slots):
                        case = slot.make(workloads.op_rng(seed, round_no, slot_no))
                        code, out = workloads.prepare(slot, case, path)()
                        yield {
                            "workload": name,
                            "seed": seed,
                            "round": round_no,
                            "slot": slot.label,
                            "command": slot.command,
                            "code": code,
                            "stdout": out,
                        }


def _parsed(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return stdout


def _is_float(x) -> bool:
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool))


def _differences(a, b, key: str, floats: dict[str, float]):
    """The non-float differences between two parsed outputs, as text; the
    largest float difference per merged key goes into ``floats``."""
    if _is_float(a) and _is_float(b) and (isinstance(a, float) or isinstance(b, float)):
        floats[key] = max(floats.get(key, 0.0), abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            yield f"{key or '.'}: keys {list(a)} != {list(b)}"
        for k in [k for k in a if k in b]:
            yield from _differences(a[k], b[k], f"{key}.{k}" if key else k, floats)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _differences(x, y, f"{key}[]", floats)
    elif a != b:
        yield f"{key or '.'}: {json.dumps(a)} != {json.dumps(b)}"


def compare(path_a: Path, path_b: Path) -> int:
    ops_a = [json.loads(line) for line in path_a.read_text().splitlines()]
    ops_b = [json.loads(line) for line in path_b.read_text().splitlines()]
    if [[op[f] for f in OP_FIELDS] for op in ops_a] != [[op[f] for f in OP_FIELDS] for op in ops_b]:
        print("the dumps do not hold the same ops in the same order", file=sys.stderr)
        return 2
    found, floats = 0, {}
    for a, b in zip(ops_a, ops_b):
        where = " ".join(f"{f}={a[f]}" for f in OP_FIELDS)
        lines = [f"exit code {a['code']} != {b['code']}"] if a["code"] != b["code"] else []
        per_command = floats.setdefault(a["command"], {})
        lines += _differences(_parsed(a["stdout"]), _parsed(b["stdout"]), "", per_command)
        for line in lines:
            print(f"{where}: {line}")
        found += len(lines)
    moved = [(c, k, v) for c, keys in sorted(floats.items()) for k, v in sorted(keys.items()) if v]
    for command, key, value in moved:
        print(f"largest float difference {value:.3e}  {command} {key}")
    if not found and not moved:
        print(f"{len(ops_a)} ops, no difference")
    return 1 if found else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--dump", type=Path, help="also write each op as a JSON line here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two dumps op by op, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    ops = list(_ops(args.root.resolve(), args.seeds, args.rounds))
    digest = hashlib.sha256()
    for op in ops:
        digest.update(f"{op['code']}\n{op['stdout']}\n".encode())
    if args.dump:
        args.dump.write_text("".join(json.dumps(op) + "\n" for op in ops))
    print(f"{digest.hexdigest()}  {len(ops)} ops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
