"""Schedule-cache cold vs warm replay -> BENCH_cache.json.

One ``flush`` phase on a parameter-sweep workload (the cache's target:
the same circuit *shape* replayed with fresh angles every pass): the
per-flush rate of a three-layer rotation/entangler sweep at 6-12
qubits on both engines, with contraction planning forced on
(``repro.sim.schedule.PLAN_MIN_QUBITS = 0`` for the run), so the
planner runs inside the gate.  The default lowering *bypasses* the
planner below 16 qubits because re-planning every flush eats the
planned schedule's win; the cache changes that economics —
``cache="off"`` re-plans every flush while ``cache="on"`` replays the
compiled segment list with a rebound payload, so the planner runs
once per circuit shape.  The acceptance bar is warm >= 1.3x cold on
every row.

End-to-end sweep traffic through the default configuration is the
``sweep_small`` and ``catbcast_inproc`` rows of BENCHMARK.json.

Every row records ``speedup = cold time / warm time`` — the ratio
gated (30% tolerance) by tools/bench_compare.py in CI.

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_cache.py --quick

or full (committed baseline)::

    PYTHONPATH=src python benchmarks/bench_cache.py

See docs/benchmarks.md for the BENCH_cache.json schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # script run without PYTHONPATH/install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.qmpi import (  # noqa: E402
    Op,
    OpStream,
    SharedBackend,
    ShardedBackend,
)
from repro.sim import schedule  # noqa: E402

FLUSH_QUBITS = [6, 8, 10, 12]


def _layer_shape(n_qubits):
    """Rotation + entangler layers (survives peephole fusion: no two
    adjacent single-qubit gates share a qubit), with symbolic angles."""
    shape = []
    for _ in range(3):
        shape.extend(("ry", (q,), 1) for q in range(n_qubits))
        shape.extend(("cnot", (q, q + 1), 0) for q in range(n_qubits - 1))
        shape.extend(("crz", (q, q + 1), 1) for q in range(0, n_qubits - 1, 2))
    return shape


def _materialize(shape, qubits, angles):
    it = iter(angles)
    return [
        Op(gate, tuple(qubits[i] for i in qs),
           tuple(next(it) for _ in range(n_params)))
        for gate, qs, n_params in shape
    ]


def _angle_sets(shape, n_sets, seed=11):
    rng = np.random.default_rng(seed)
    n_params = sum(p for _, _, p in shape)
    return [tuple(float(a) for a in rng.uniform(-np.pi, np.pi, n_params))
            for _ in range(n_sets)]


def _time_flushes(factory, shape, n_qubits, cache, min_time, min_reps):
    """Best per-flush seconds, sweeping fresh angles every flush."""
    be = factory(cache)
    try:
        qubits = tuple(be.alloc(0, n_qubits))
        angle_sets = _angle_sets(shape, 16)
        stream = OpStream(be, 0, fusion="auto", max_pending=1 << 20)

        def one_pass(k):
            for op in _materialize(shape, qubits, angle_sets[k % len(angle_sets)]):
                stream.append(op)
            stream.flush()

        one_pass(0)  # warm-up: compiles and caches the shape
        best = float("inf")
        elapsed = 0.0
        reps = 0
        while elapsed < min_time or reps < min_reps:
            t0 = time.perf_counter()
            one_pass(reps + 1)
            dt = time.perf_counter() - t0
            best = min(best, dt)
            elapsed += dt
            reps += 1
        return best
    finally:
        be.close()


def run_flush_phase(n_shards, min_time, min_reps):
    rows = []
    shapes = {n: _layer_shape(n) for n in FLUSH_QUBITS}
    for n_qubits in FLUSH_QUBITS:
        for label, factory in (
            ("shared", lambda c: SharedBackend(seed=0, cache=c)),
            ("sharded", lambda c: ShardedBackend(seed=0, n_shards=n_shards, cache=c)),
        ):
            shape = shapes[n_qubits]
            cold = _time_flushes(factory, shape, n_qubits, "off", min_time, min_reps)
            warm = _time_flushes(factory, shape, n_qubits, "on", min_time, min_reps)
            row = {
                "kernel": "layers",
                "n_qubits": n_qubits,
                "backend": label,
                "cold_flushes_per_s": round(1.0 / cold, 1),
                "warm_flushes_per_s": round(1.0 / warm, 1),
                "speedup": round(cold / warm, 3),
            }
            rows.append(row)
            print(
                f"layers     n={n_qubits:>2} {label:<8} cold {1/cold:>8.0f}  "
                f"warm {1/warm:>8.0f} flushes/s  x{row['speedup']}"
            )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="short passes (CI)")
    ap.add_argument("--n-shards", type=int, default=4, help="sharded engine chunk count")
    ap.add_argument("--out", default="BENCH_cache.json", help="output JSON path")
    args = ap.parse_args(argv)

    min_time, min_reps = (0.15, 6) if args.quick else (0.4, 8)
    # Planning forced on at every register size: the configuration the
    # cache makes affordable (see module docstring).
    schedule.PLAN_MIN_QUBITS = 0

    print("# flush phase: warm (cache=on) vs cold (cache=off) per-flush rate")
    flush = run_flush_phase(args.n_shards, min_time, min_reps)

    payload = {
        "quick": args.quick,
        "n_shards": args.n_shards,
        "cpu_count": os.cpu_count() or 1,
        "flush": flush,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    floor = [r for r in flush if r["speedup"] < 1.3]
    if floor:
        print(f"WARNING: {len(floor)} flush row(s) below the 1.3x acceptance bar")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
