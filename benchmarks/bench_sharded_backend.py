"""Shared vs. sharded engine gate throughput -> BENCH_sharded.json,
plus fused vs. unfused op-stream dispatch -> BENCH_fusion.json.

Engine phase — times the two simulation engines on the kernels that
dominate QMPI workloads and records gates/second so the perf trajectory
is tracked from this PR onward:

* ``h_sweep``      — one H per qubit (mixes local strided kernels and
                     high-axis pair-chunk exchanges on the sharded engine)
* ``rz_sweep``     — one Rz per qubit (diagonal: the sharded engine never
                     communicates, the shared engine still pays the full
                     tensordot + moveaxis)
* ``cnot_ladder``  — CNOT(i, i+1) down the register (two-qubit mixed axes)

Fusion phase — runs op-stream kernels through the full backend path
(``OpStream`` -> ``apply_ops`` batches) with fusion on vs. off
(``fusion="off"`` = the legacy eager per-gate dispatch):

* ``sq_sweep``     — 4 layers of Rx on every qubit (fuses to one 2x2
                     per qubit)
* ``rz_sweep``     — 4 layers of Rz (diagonal coalescing)
* ``chigh_cnot``   — CNOTs into a high-axis target (exercises the
                     pair-exchange controlled path + batching; fusion
                     cannot merge these)

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_sharded_backend.py --quick

or full (8-20 qubits)::

    PYTHONPATH=src python benchmarks/bench_sharded_backend.py

BENCH_sharded.json schema: ``{"quick": bool, "n_shards": int, "cpu_count": int, "results":
[{"kernel", "n_qubits", "shared_gates_per_s", "sharded_gates_per_s",
"speedup"}]}``. BENCH_fusion.json rows additionally carry
``sharded_unfused/fused_gates_per_s``, ``fused_speedup`` (sharded
fused over unfused) and ``sharded_fused_vs_shared``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # script run without PYTHONPATH/install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.qmpi import Op, OpStream, SharedBackend, ShardedBackend  # noqa: E402
from repro.sim import ShardedStateVector, StateVector  # noqa: E402

QUICK_QUBITS = [8, 10, 12]
FULL_QUBITS = [8, 12, 16, 20]


def _kernel_h_sweep(sv, n):
    for q in range(n):
        sv.h(q)
    return n


def _kernel_rz_sweep(sv, n):
    for q in range(n):
        sv.rz(q, 0.137)
    return n


def _kernel_cnot_ladder(sv, n):
    for q in range(n - 1):
        sv.cnot(q, q + 1)
    return n - 1


KERNELS = {
    "h_sweep": _kernel_h_sweep,
    "rz_sweep": _kernel_rz_sweep,
    "cnot_ladder": _kernel_cnot_ladder,
}


def _time_kernel(make_engine, kernel, n_qubits, min_time: float, min_reps: int):
    """Gates/second for ``kernel`` on a fresh engine (best-of-passes)."""
    sv = make_engine(n_qubits)
    kernel(sv, n_qubits)  # warm-up (also JITs numpy's dispatch caches)
    best = float("inf")
    elapsed = 0.0
    reps = 0
    while elapsed < min_time or reps < min_reps:
        t0 = time.perf_counter()
        gates = kernel(sv, n_qubits)
        dt = time.perf_counter() - t0
        best = min(best, dt / gates)
        elapsed += dt
        reps += 1
    return 1.0 / best


# ----------------------------------------------------------------------
# fusion phase: the OpStream -> apply_ops path, fused vs. unfused
# ----------------------------------------------------------------------
FUSION_DEPTH = 4


def _fusion_kernel_sq_sweep(stream, qubits):
    for d in range(FUSION_DEPTH):
        theta = 0.1 + 0.05 * d
        for q in qubits:
            stream.append(Op("rx", (q,), (theta,)))
    stream.flush()
    return FUSION_DEPTH * len(qubits)


def _fusion_kernel_rz_sweep(stream, qubits):
    for d in range(FUSION_DEPTH):
        theta = 0.07 + 0.03 * d
        for q in qubits:
            stream.append(Op("rz", (q,), (theta,)))
    stream.flush()
    return FUSION_DEPTH * len(qubits)


def _fusion_kernel_chigh_cnot(stream, qubits):
    # qubits[0] is the first-allocated qubit = the top (shard) axis.
    for _ in range(2):
        for q in qubits[1:]:
            stream.append(Op("cnot", (q, qubits[0])))
    stream.flush()
    return 2 * (len(qubits) - 1)


FUSION_KERNELS = {
    "sq_sweep": _fusion_kernel_sq_sweep,
    "rz_sweep": _fusion_kernel_rz_sweep,
    "chigh_cnot": _fusion_kernel_chigh_cnot,
}


def _time_fusion_kernel(make_backend, kernel, n_qubits, fusion, min_time, min_reps):
    """Gates/second for an op-stream kernel through the backend path."""
    be = make_backend()
    qubits = tuple(be.alloc(0, n_qubits))
    stream = OpStream(be, 0, fusion=fusion)
    kernel(stream, qubits)  # warm-up
    best = float("inf")
    elapsed = 0.0
    reps = 0
    while elapsed < min_time or reps < min_reps:
        t0 = time.perf_counter()
        gates = kernel(stream, qubits)
        dt = time.perf_counter() - t0
        best = min(best, dt / gates)
        elapsed += dt
        reps += 1
    return 1.0 / best


def run_fusion(quick: bool, n_shards: int, min_time: float, min_reps: int) -> dict:
    qubit_counts = QUICK_QUBITS if quick else FULL_QUBITS
    results = []
    for n_qubits in qubit_counts:
        for name, kernel in FUSION_KERNELS.items():
            cols = {}
            for label, factory in (
                ("shared", lambda: SharedBackend(seed=0)),
                ("sharded", lambda: ShardedBackend(seed=0, n_shards=n_shards)),
            ):
                for fusion in ("off", "auto"):
                    key = f"{label}_{'fused' if fusion == 'auto' else 'unfused'}"
                    cols[key] = _time_fusion_kernel(
                        factory, kernel, n_qubits, fusion, min_time, min_reps
                    )
            row = {
                "kernel": name,
                "n_qubits": n_qubits,
                **{k: round(v, 1) for k, v in cols.items()},
                "fused_speedup": round(
                    cols["sharded_fused"] / cols["sharded_unfused"], 3
                ),
                "sharded_fused_vs_shared": round(
                    cols["sharded_fused"] / cols["shared_unfused"], 3
                ),
            }
            results.append(row)
            print(
                f"{name:<12} n={n_qubits:>2}  sharded unfused "
                f"{cols['sharded_unfused']:>12.0f}  fused "
                f"{cols['sharded_fused']:>12.0f} gates/s  "
                f"x{row['fused_speedup']} (vs shared x{row['sharded_fused_vs_shared']})"
            )
    return {
        "quick": quick,
        "n_shards": n_shards,
        "cpu_count": os.cpu_count() or 1,
        "depth": FUSION_DEPTH,
        "qubit_counts": qubit_counts,
        "results": results,
    }


def run(quick: bool, n_shards: int, min_time: float, min_reps: int) -> dict:
    qubit_counts = QUICK_QUBITS if quick else FULL_QUBITS
    results = []
    for n_qubits in qubit_counts:
        for name, kernel in KERNELS.items():
            shared = _time_kernel(
                lambda n: StateVector(n, seed=0), kernel, n_qubits, min_time, min_reps
            )
            sharded = _time_kernel(
                lambda n: ShardedStateVector(n, seed=0, n_shards=n_shards),
                kernel,
                n_qubits,
                min_time,
                min_reps,
            )
            row = {
                "kernel": name,
                "n_qubits": n_qubits,
                "shared_gates_per_s": round(shared, 1),
                "sharded_gates_per_s": round(sharded, 1),
                "speedup": round(sharded / shared, 3),
            }
            results.append(row)
            print(
                f"{name:<12} n={n_qubits:>2}  shared {shared:>12.0f} gates/s  "
                f"sharded {sharded:>12.0f} gates/s  x{row['speedup']}"
            )
    return {
        "quick": quick,
        "n_shards": n_shards,
        "cpu_count": os.cpu_count() or 1,
        "qubit_counts": qubit_counts,
        "results": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small sizes, short passes (CI)")
    ap.add_argument("--n-shards", type=int, default=4, help="sharded engine chunk count")
    ap.add_argument("--out", default="BENCH_sharded.json", help="output JSON path")
    ap.add_argument(
        "--fusion-out",
        default="BENCH_fusion.json",
        help="fused-vs-unfused output JSON path ('' skips the fusion phase)",
    )
    args = ap.parse_args(argv)

    min_time, min_reps = (0.05, 3) if args.quick else (0.5, 5)
    payload = run(args.quick, args.n_shards, min_time, min_reps)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.fusion_out:
        payload = run_fusion(args.quick, args.n_shards, min_time, min_reps)
        Path(args.fusion_out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.fusion_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
