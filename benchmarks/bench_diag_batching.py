"""Diagonal phase-vector batching -> BENCH_diag.json.

Coalescing phase — diagonal-heavy sweeps through the full op-stream
path (``OpStream`` -> ``apply_ops``), comparing the PR 2 dispatch
(``fusion="nodiag"``: peephole fusion, no ``DiagBatch``) against the
coalesced path (``fusion="auto"``: runs collapse into per-chunk phase
vectors):

* ``qft_ladder`` — the QFT controlled-phase ladder: all ``n(n-1)/2``
  distinct cphase pairs, one pass (worst case for table merging —
  every pair is distinct);
* ``tfim_zz``    — 8 Trotter layers of the TFIM ZZ chain (crz ladder)
  plus an Rz sweep per layer (repeated pairs merge into one table).

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_diag_batching.py --quick

or full (12-20 qubits)::

    PYTHONPATH=src python benchmarks/bench_diag_batching.py

See docs/benchmarks.md for the BENCH_diag.json schema.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # script run without PYTHONPATH/install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.qmpi import Op, OpStream, SharedBackend, ShardedBackend  # noqa: E402

QUICK_QUBITS = [10, 12]
FULL_QUBITS = [12, 16, 20]
TFIM_LAYERS = 8


# ----------------------------------------------------------------------
# coalescing phase: diagonal sweeps, PR 2 dispatch vs DiagBatch
# ----------------------------------------------------------------------
def _kernel_qft_ladder(stream, qubits):
    n = len(qubits)
    for i in range(n):
        for j in range(i + 1, n):
            stream.append(
                Op("cphase", (qubits[j], qubits[i]), (math.pi / (1 << (j - i)),))
            )
    stream.flush()
    return n * (n - 1) // 2


def _kernel_tfim_zz(stream, qubits):
    n = len(qubits)
    for _ in range(TFIM_LAYERS):
        for i in range(n - 1):
            stream.append(Op("crz", (qubits[i], qubits[i + 1]), (0.31,)))
        for q in qubits:
            stream.append(Op("rz", (q,), (0.17,)))
    stream.flush()
    return TFIM_LAYERS * (2 * n - 1)


COALESCE_KERNELS = {
    "qft_ladder": _kernel_qft_ladder,
    "tfim_zz": _kernel_tfim_zz,
}


def _time_stream_kernel(make_backend, kernel, n_qubits, fusion, min_time, min_reps):
    """Gates/second for an op-stream kernel through the backend path."""
    be = make_backend()
    qubits = tuple(be.alloc(0, n_qubits))
    stream = OpStream(be, 0, fusion=fusion, max_pending=1 << 20)
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


def run_coalescing(quick: bool, n_shards: int, min_time: float, min_reps: int) -> list:
    qubit_counts = QUICK_QUBITS if quick else FULL_QUBITS
    rows = []
    for n_qubits in qubit_counts:
        for name, kernel in COALESCE_KERNELS.items():
            for label, factory in (
                ("shared", lambda: SharedBackend(seed=0)),
                ("sharded", lambda: ShardedBackend(seed=0, n_shards=n_shards)),
            ):
                pr2 = _time_stream_kernel(
                    factory, kernel, n_qubits, "nodiag", min_time, min_reps
                )
                coalesced = _time_stream_kernel(
                    factory, kernel, n_qubits, "auto", min_time, min_reps
                )
                row = {
                    "kernel": name,
                    "n_qubits": n_qubits,
                    "backend": label,
                    "pr2_gates_per_s": round(pr2, 1),
                    "coalesced_gates_per_s": round(coalesced, 1),
                    "speedup": round(coalesced / pr2, 3),
                }
                rows.append(row)
                print(
                    f"{name:<10} n={n_qubits:>2} {label:<8} "
                    f"pr2 {pr2:>10.0f}  coalesced {coalesced:>10.0f} gates/s  "
                    f"x{row['speedup']}"
                )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small sizes, short passes (CI)")
    ap.add_argument("--n-shards", type=int, default=4, help="sharded engine chunk count")
    ap.add_argument("--out", default="BENCH_diag.json", help="output JSON path")
    args = ap.parse_args(argv)

    min_time, min_reps = (0.05, 3) if args.quick else (0.5, 5)
    payload = {
        "quick": args.quick,
        "n_shards": args.n_shards,
        "cpu_count": os.cpu_count() or 1,
        "tfim_layers": TFIM_LAYERS,
        "coalescing": run_coalescing(args.quick, args.n_shards, min_time, min_reps),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
