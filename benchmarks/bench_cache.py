"""Schedule-cache cold vs warm replay -> BENCH_cache.json.

Two phases, both on parameter-sweep workloads (the cache's target: the
same circuit *shape* replayed with fresh angles every pass):

Flush phase — per-flush rate on the small-register sweep of
BENCH_schedule.json (<= 12 qubits), with contraction planning forced
on (``CostModel(plan_min_qubits=0)``).  The BENCH_schedule "small"
rows show why the default cost model *bypasses* the planner there:
re-planning every flush eats the planned schedule's win (~1.0x).  The
cache changes that economics — ``cache="off"`` re-plans every flush
while ``cache="on"`` replays the compiled segment list with a rebound
payload, so the planner runs once per circuit shape.  The acceptance
bar for this PR is warm >= 1.3x cold on these rows.

Sweep phase — end-to-end TFIM-Trotter parameter sweeps through two
execution surfaces: plain statevector sweeps (``trotter``) and one
shot-batched world whose program sweeps internally (``trotter_shots``).
These run the *default* deployment config (no forced planning) and
include all non-compile work — program dispatch and measurement — so
the ratios are heavily diluted: shared
rows stay clearly > 1.0, the sharded row hovers ~1.0 (execution
dominates its flush cost at this size).  Their role in the bench-gate
is regression protection, not a speedup floor.

Every row records ``speedup = warm / cold`` — the ratio gated (30%
tolerance) by tools/bench_compare.py in CI.

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
from repro.sim.schedule import CostModel  # noqa: E402

#: Flush-phase lowering config: planning forced on at every register
#: size — the configuration the cache makes affordable (see module
#: docstring).
PLAN_CM = CostModel(plan_min_qubits=0)

FLUSH_QUBITS = [6, 8, 10, 12]
SWEEP_QUBITS = 8
TROTTER_STEPS = 3
SHOTS = 64
N_POINTS_QUICK, N_POINTS_FULL = 8, 24


def _layer_shape(n_qubits):
    """Rotation + entangler layers (survives peephole fusion: no two
    adjacent single-qubit gates share a qubit), with symbolic angles."""
    shape = []
    for _ in range(3):
        shape.extend(("ry", (q,), 1) for q in range(n_qubits))
        shape.extend(("cnot", (q, q + 1), 0) for q in range(n_qubits - 1))
        shape.extend(("crz", (q, q + 1), 1) for q in range(0, n_qubits - 1, 2))
    return shape


def _trotter_shape(n_qubits):
    """First-order TFIM Trotter step: rx field layer + crz coupling layer."""
    shape = []
    for _ in range(TROTTER_STEPS):
        shape.extend(("rx", (q,), 1) for q in range(n_qubits))
        shape.extend(("crz", (q, q + 1), 1) for q in range(n_qubits - 1))
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
        stream = OpStream(
            be, 0, fusion="auto", max_pending=1 << 20, cost_model=PLAN_CM
        )

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


def _sweep_prog(qc, shape, n_qubits, angle_sets):
    """Rank-0 program: apply every angle set, flushing per set."""
    q = qc.alloc_qmem(n_qubits)
    for angles in angle_sets:
        for op in _materialize(shape, q, angles):
            getattr(qc, op.gate)(*op.qubits, *op.params)
        qc.flush_ops()
    return [qc.measure(x) for x in q[:2]]


def _time_backend_sweep(factory, shape, n_qubits, angle_sets, cache, reps):
    best = float("inf")
    for _ in range(reps):
        be = factory(cache)
        try:
            qubits = tuple(be.alloc(0, n_qubits))
            stream = OpStream(be, 0, fusion="auto", max_pending=1 << 20)
            t0 = time.perf_counter()
            for angles in angle_sets:
                for op in _materialize(shape, qubits, angles):
                    stream.append(op)
                stream.flush()
            best = min(best, time.perf_counter() - t0)
        finally:
            be.close()
    return best


def _time_shots_sweep(shape, n_qubits, angle_sets, cache, reps):
    from repro.qmpi import qmpi_run

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        qmpi_run(
            1,
            _sweep_prog,
            args=(shape, n_qubits, angle_sets),
            seed=0,
            shots=SHOTS,
            cache=cache,
        )
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep_phase(n_points, reps):
    shape = _trotter_shape(SWEEP_QUBITS)
    angle_sets = _angle_sets(shape, n_points, seed=23)
    rows = []

    def row(kernel, backend, cold, warm):
        r = {
            "kernel": kernel,
            "n_qubits": SWEEP_QUBITS,
            "backend": backend,
            "cold_s": round(cold, 4),
            "warm_s": round(warm, 4),
            "speedup": round(cold / warm, 3),
        }
        rows.append(r)
        print(
            f"{kernel:<14} n={SWEEP_QUBITS:>2} {backend:<8} "
            f"cold {cold:>7.3f}s  warm {warm:>7.3f}s  x{r['speedup']}"
        )

    for backend, factory in (
        ("shared", lambda c: SharedBackend(seed=0, cache=c)),
        ("sharded", lambda c: ShardedBackend(seed=0, cache=c)),
    ):
        cold = _time_backend_sweep(factory, shape, SWEEP_QUBITS, angle_sets, "off", reps)
        warm = _time_backend_sweep(factory, shape, SWEEP_QUBITS, angle_sets, "on", reps)
        row("trotter", backend, cold, warm)

    cold = _time_shots_sweep(shape, SWEEP_QUBITS, angle_sets, "off", reps)
    warm = _time_shots_sweep(shape, SWEEP_QUBITS, angle_sets, "on", reps)
    row("trotter_shots", "shared", cold, warm)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="short passes (CI)")
    ap.add_argument("--n-shards", type=int, default=4, help="sharded engine chunk count")
    ap.add_argument("--out", default="BENCH_cache.json", help="output JSON path")
    args = ap.parse_args(argv)

    min_time, min_reps = (0.15, 6) if args.quick else (0.4, 8)
    sweep_reps = 2 if args.quick else 4
    n_points = N_POINTS_QUICK if args.quick else N_POINTS_FULL

    print("# flush phase: warm (cache=on) vs cold (cache=off) per-flush rate")
    flush = run_flush_phase(args.n_shards, min_time, min_reps)
    print("# sweep phase: trotter parameter sweeps (plain / shots)")
    sweep = run_sweep_phase(n_points, sweep_reps)

    payload = {
        "quick": args.quick,
        "n_shards": args.n_shards,
        "cpu_count": os.cpu_count() or 1,
        "trotter_steps": TROTTER_STEPS,
        "shots": SHOTS,
        "n_points": n_points,
        "flush": flush,
        "sweep": sweep,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    floor = [r for r in flush if r["speedup"] < 1.3]
    if floor:
        print(f"WARNING: {len(floor)} flush row(s) below the 1.3x acceptance bar")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
