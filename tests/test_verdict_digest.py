import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_digest_runs_on_one_round():
    # the tool hashes the exit code and stdout of every CLI op of the
    # benchmark's analyze and dual workloads: 29 ops per seed and round
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verdict_digest.py"), "--seeds", "41", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  29 ops\n", done.stdout)
