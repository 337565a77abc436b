"""tools/engine_gap.py runs the e2e programs on every engine and checks them.

Run as a subprocess, as CI does, so the ``benchmarks/e2e`` modules it
puts on ``sys.path`` stay out of this interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "engine_gap.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_smoke_prints_one_checked_line_per_row_and_engine():
    out = _run("--smoke", "--rows", "tfim_ring,catbcast_inproc")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()[1:]
    assert [line.split()[:2] for line in lines] == [
        [row, engine]
        for row in ("tfim_ring", "catbcast_inproc")
        for engine in ("shared", "sharded:1", "sharded:4")
    ]
    assert all(line.split()[-1] != "failed" for line in lines)


def test_unknown_row_is_rejected():
    out = _run("--smoke", "--rows", "nope")
    assert out.returncode == 2 and "unknown rows" in out.stderr
