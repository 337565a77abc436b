"""Contraction-plan fusion + DP diagonal materializer -> BENCH_plan.json.

Plan phase — two-qubit-dense sweeps through the full op-stream path
(``OpStream`` -> ``apply_ops``), comparing per-op dispatch
(``fusion="nodiag"``: peephole fusion only, every two-qubit gate hits
the engine individually) against contraction planning
(``fusion="auto"``: bounded qubit windows fuse into one precontracted
4x4/8x8 unitary each, one matmul per chunk per plan):

* ``rand2q``    — a random two-qubit-dense circuit: mixed
  cnot/swap/crz/ry on randomly drawn nearby pairs (the multi-window
  planner keeps one window per interaction cluster);
* ``brickwork`` — alternating layers of ry+cnot+crz+cnot blocks on
  even/odd pairs (each block fuses into one 4x4, windows stay open
  across the interleaved disjoint pairs);
* ``tfim_step`` — Listing 1's Trotter step: a cnot-rz-cnot ring, then
  an rx layer.  The stream folds every bond into one diagonal ``rzz``
  in both arms, so the row measures one ``DiagBatch`` plus windows of
  lone ``rx`` per step against per-op ``rzz``/``rx`` dispatch.

Every plan row also reports ``lowered_records`` — how many records the
fused arm's flush lowers to, i.e. the number of sweeps over the
amplitudes (``tfim_step``: ``records_per_step`` beside it).

Diag phase — the ``qft_ladder`` kernel of ``bench_diag_batching.py``
(all ``n(n-1)/2`` distinct cphase pairs, the worst case for phase-table
materialization), re-measured here because the doubling/DP materializer
(:func:`repro.sim.diag.chunk_phase`) is what lifts the sharded row: a
table whose highest live bit is ``P`` now costs ``2^(P+1)`` updates
instead of a full-size pass.

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_contraction.py --quick

or full (12-20 qubits)::

    PYTHONPATH=src python benchmarks/bench_contraction.py

See docs/benchmarks.md for the BENCH_plan.json schema.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # script run without PYTHONPATH/install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.qmpi import Op, OpStream, SharedBackend, ShardedBackend  # noqa: E402

QUICK_QUBITS = [10, 12]
FULL_QUBITS = [12, 16, 20]
RAND_DEPTH_PER_QUBIT = 12
BRICK_LAYERS = 4
TFIM_STEPS = 4


def _rand2q_ops(qubits, seed=5):
    """Random two-qubit-dense circuit on nearby pairs (deterministic)."""
    rng = np.random.default_rng(seed)
    n = len(qubits)
    ops = []
    for _ in range(RAND_DEPTH_PER_QUBIT * n):
        i = int(rng.integers(0, n - 1))
        a, b = qubits[i], qubits[i + 1]
        roll = rng.random()
        if roll < 0.35:
            ops.append(Op("cnot", (a, b)))
        elif roll < 0.55:
            ops.append(Op("swap", (a, b)))
        elif roll < 0.8:
            ops.append(Op("crz", (a, b), (float(rng.random()),)))
        else:
            ops.append(Op("ry", (b,), (float(rng.random()),)))
    return ops


def _brickwork_ops(qubits, seed=9):
    """Brickwork entangler: ry+cnot+crz+cnot blocks on even/odd pairs."""
    rng = np.random.default_rng(seed)
    n = len(qubits)
    ops = []
    for layer in range(BRICK_LAYERS):
        for i in range(layer % 2, n - 1, 2):
            a, b = qubits[i], qubits[i + 1]
            ops.append(Op("ry", (a,), (float(rng.random()),)))
            ops.append(Op("cnot", (a, b)))
            ops.append(Op("crz", (a, b), (0.21,)))
            ops.append(Op("cnot", (a, b)))
    return ops


def _tfim_step_ops(qubits, seed=None):
    """TFIM Trotter steps: cnot-rz-cnot ring, then the rx layer."""
    n = len(qubits)
    ops = []
    for step in range(TFIM_STEPS):
        for i in range(n):
            a, b = qubits[i], qubits[(i + 1) % n]
            ops.append(Op("cnot", (a, b)))
            ops.append(Op("rz", (b,), (0.3 + 0.1 * step,)))
            ops.append(Op("cnot", (a, b)))
        for q in qubits:
            ops.append(Op("rx", (q,), (-0.4 - 0.1 * step,)))
    return ops


def _qft_ladder_ops(qubits, seed=None):
    """The QFT controlled-phase ladder: all distinct cphase pairs."""
    n = len(qubits)
    return [
        Op("cphase", (qubits[j], qubits[i]), (math.pi / (1 << (j - i)),))
        for i in range(n)
        for j in range(i + 1, n)
    ]


PLAN_KERNELS = {
    "rand2q": _rand2q_ops,
    "brickwork": _brickwork_ops,
    "tfim_step": _tfim_step_ops,
}
DIAG_KERNELS = {"qft_ladder": _qft_ladder_ops}


def _time_ops(make_backend, ops_builder, n_qubits, fusion, min_time, min_reps):
    """Gates/second replaying a fixed op list through the stream path.

    Also returns the number of records the (single) flush lowered to,
    read off the schedule-cache entry the warm-up pass created.
    """
    be = make_backend()
    qubits = tuple(be.alloc(0, n_qubits))
    ops = ops_builder(qubits)
    stream = OpStream(be, 0, fusion=fusion, max_pending=1 << 20)

    def one_pass():
        for op in ops:
            stream.append(op)
        stream.flush()

    one_pass()  # warm-up
    (entry,) = be.schedule_cache._entries.values()
    best = float("inf")
    elapsed = 0.0
    reps = 0
    while elapsed < min_time or reps < min_reps:
        t0 = time.perf_counter()
        one_pass()
        dt = time.perf_counter() - t0
        best = min(best, dt / len(ops))
        elapsed += dt
        reps += 1
    return 1.0 / best, len(entry.lowered)


def run_phase(kernels, quick, n_shards, min_time, min_reps):
    qubit_counts = QUICK_QUBITS if quick else FULL_QUBITS
    rows = []
    for n_qubits in qubit_counts:
        for name, builder in kernels.items():
            for label, factory in (
                ("shared", lambda: SharedBackend(seed=0)),
                ("sharded", lambda: ShardedBackend(seed=0, n_shards=n_shards)),
            ):
                unfused, _ = _time_ops(
                    factory, builder, n_qubits, "nodiag", min_time, min_reps
                )
                fused, records = _time_ops(
                    factory, builder, n_qubits, "auto", min_time, min_reps
                )
                row = {
                    "kernel": name,
                    "n_qubits": n_qubits,
                    "backend": label,
                    "unfused_gates_per_s": round(unfused, 1),
                    "fused_gates_per_s": round(fused, 1),
                    "speedup": round(fused / unfused, 3),
                    "lowered_records": records,
                }
                if name == "tfim_step":
                    row["records_per_step"] = round(records / TFIM_STEPS, 2)
                rows.append(row)
                print(
                    f"{name:<10} n={n_qubits:>2} {label:<8} "
                    f"per-op {unfused:>10.0f}  fused {fused:>10.0f} gates/s  "
                    f"x{row['speedup']}  ({records} records)"
                )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small sizes, short passes (CI)")
    ap.add_argument("--n-shards", type=int, default=4, help="sharded engine chunk count")
    ap.add_argument("--out", default="BENCH_plan.json", help="output JSON path")
    args = ap.parse_args(argv)

    min_time, min_reps = (0.05, 3) if args.quick else (0.4, 4)
    plan_rows = run_phase(PLAN_KERNELS, args.quick, args.n_shards, min_time, min_reps)
    diag_rows = run_phase(DIAG_KERNELS, args.quick, args.n_shards, min_time, min_reps)
    payload = {
        "quick": args.quick,
        "n_shards": args.n_shards,
        "cpu_count": os.cpu_count() or 1,
        "rand_depth_per_qubit": RAND_DEPTH_PER_QUBIT,
        "brick_layers": BRICK_LAYERS,
        "tfim_steps": TFIM_STEPS,
        "plan": plan_rows,
        "diag": diag_rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
