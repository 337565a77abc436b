#!/usr/bin/env python
"""Engine gap: the end-to-end programs on ``shared``, ``sharded:1`` and ``sharded:4``.

Runs the programs and inputs of ``benchmarks/e2e`` (imported read-only
from there: ``workloads``, ``programs``, ``reference``) through
``qmpi_run`` on each engine, over the ``inproc`` transport and in
complex128, as the benchmark runs them.  Engines alternate inside
every repetition round, so a host that drifts slows all of them alike;
every run is checked with ``workloads.check`` against the oracle after
its clock stops.  Prints min and median wall time per row and engine,
and each engine's median over ``shared``'s.

Usage::

    python tools/engine_gap.py [--rows tfim_ring,sweep_small] [--reps 7] [--seed 1]
    python tools/engine_gap.py --smoke   # smoke sizes, one round, no warm-up

Exits 1 when any run fails its check or raises.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import workloads  # noqa: E402
from programs import PROGRAMS  # noqa: E402

from repro.qmpi import qmpi_run  # noqa: E402

ENGINES = ("shared", "sharded:1", "sharded:4")
#: One row per program; ``trotter_sharded`` and ``catbcast_mp`` run the
#: same programs as ``trotter_shared`` and ``catbcast_inproc``.
ROWS = ("tfim_ring", "trotter_shared", "qft_sharded", "sweep_small", "catbcast_inproc")


def run_once(name, engine, program_args, run_seed, ref):
    """One checked ``qmpi_run`` of row ``name`` on ``engine``; returns ``(seconds, problems)``."""
    wl = workloads.WORKLOADS[name]
    start = time.perf_counter()
    world = qmpi_run(
        wl.n_ranks,
        PROGRAMS[wl.kind],
        args=program_args,
        seed=run_seed,
        backend=engine,
        shots=wl.shots,
        transport="inproc",
        dtype="complex128",  # the oracle's tolerance, whatever REPRO_QMPI_DTYPE says
    )
    world.close()
    wall = time.perf_counter() - start
    return wall, workloads.check(name, world, ref)[1]


def measure(name, seed, reps, warmup, smoke):
    """``{engine: [seconds, ...]}`` for row ``name`` and the failed checks."""
    program_args, run_seed = workloads.make_inputs(name, seed, smoke)
    ref = workloads.make_reference(name, program_args)
    walls = {engine: [] for engine in ENGINES}
    problems = []
    for rnd in range(warmup + reps):
        for engine in ENGINES:
            try:
                wall, found = run_once(name, engine, program_args, run_seed, ref)
            except Exception as exc:  # a raising run is a failed run
                wall, found = None, [f"{type(exc).__name__}: {exc}"]
            problems += [f"{name} on {engine}: {p}" for p in found]
            if rnd >= warmup and not found:
                walls[engine].append(wall)
    return walls, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", default=",".join(ROWS), help="comma-separated workload names")
    ap.add_argument("--reps", type=int, default=7, help="timed rounds per row")
    ap.add_argument("--warmup", type=int, default=2, help="untimed rounds per row")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true", help="smoke sizes, one round, no warm-up")
    args = ap.parse_args(argv)
    reps, warmup = (1, 0) if args.smoke else (args.reps, args.warmup)
    rows = [r for r in args.rows.split(",") if r]
    unknown = [r for r in rows if r not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown rows {unknown}; known: {sorted(workloads.WORKLOADS)}")

    print(f"{'row':16s} {'engine':10s} {'min ms':>9s} {'median ms':>10s} {'x shared':>9s}")
    problems = []
    for name in rows:
        walls, found = measure(name, args.seed, reps, warmup, args.smoke)
        problems += found
        base = statistics.median(walls["shared"]) if walls["shared"] else None
        for engine in ENGINES:
            ts = walls[engine]
            if not ts:
                print(f"{name:16s} {engine:10s} {'failed':>9s}")
                continue
            med = statistics.median(ts)
            ratio = f"{med / base:9.2f}" if base else f"{'-':>9s}"
            print(f"{name:16s} {engine:10s} {min(ts) * 1e3:9.1f} {med * 1e3:10.1f} {ratio}")
    for p in problems:
        print("FAILED", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
