"""One SHA-256 over the verdicts of the benchmark's CLI ops.

Usage, from the root of a checkout:

    python3 tools/verdict_digest.py --seeds 41 42 43 --rounds 2 [--root DIR]

For every ``classify_random``, ``classify_structured`` and ``state_dual``
op of the given seeds and rounds (rounds 0 .. R-1, every slot), the op's
input is drawn and run exactly as ``perfbench/run.py`` draws and runs it,
and its exit code and standard output are fed, in order, into one hash.
Two checkouts that print the same digest gave bit-identical verdicts on
every op. ``--root`` names the checkout whose ``src/`` and ``perfbench/``
are imported (default: the one holding this script), so the same script
can digest another checkout. Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("classify_random", "classify_structured", "state_dual")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    digest = hashlib.sha256()
    ops = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        for name in WORKLOADS:
            for seed in args.seeds:
                for round_no in range(args.rounds):
                    for slot_no, slot in enumerate(workloads.WORKLOADS[name].slots):
                        case = slot.make(workloads.op_rng(seed, round_no, slot_no))
                        code, out = workloads.prepare(slot, case, path)()
                        digest.update(f"{code}\n{out}\n".encode())
                        ops += 1
    print(f"{digest.hexdigest()}  {ops} ops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
