"""Shot batching throughput -> BENCH_shots.json.

Batching phase — the same program sampled N times, two ways: a loop of
independent single-shot ``qmpi_run`` calls (the only option before shot
batching) vs one ``qmpi_run(..., shots=N)`` pass.  The batched pass runs
the state evolution *once* and vectorizes sampling, so its shots/second
column should beat the loop by orders of magnitude on measure-at-the-end
circuits, and still win on mid-circuit-measurement programs (teleport),
where trajectories fork into branch groups instead of re-running.

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_shots.py --quick

or full (committed baseline)::

    PYTHONPATH=src python benchmarks/bench_shots.py

See docs/benchmarks.md for the BENCH_shots.json schema.
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

from repro.qmpi import qmpi_run  # noqa: E402


def ghz(qc, n):
    q = qc.alloc_qmem(n)
    qc.h(q[0])
    for i in range(n - 1):
        qc.cnot(q[i], q[i + 1])
    return [qc.measure(x) for x in q]


def teleport(qc, theta):
    if qc.rank == 0:
        q = qc.alloc_qmem(1)
        qc.ry(q[0], theta)
        qc.send_move(q, 1)
        return None
    t = qc.alloc_qmem(1)
    qc.recv_move(t, 0)
    return qc.measure(t[0])


KERNELS = {
    # name -> (fn, args, n_ranks)
    "ghz": (ghz, None, 1),  # args filled with the qubit count
    "teleport": (teleport, (1.1,), 2),
}


def bench_batching(n_qubits, shots, loop_iters):
    rows = []
    for name, (fn, args, n_ranks) in KERNELS.items():
        args = (n_qubits,) if args is None else args
        # looped single-shot reference (extrapolated to `shots`)
        t0 = time.perf_counter()
        for s in range(loop_iters):
            qmpi_run(n_ranks, fn, args=args, seed=s).close()
        looped = loop_iters / (time.perf_counter() - t0)
        # one batched pass
        t0 = time.perf_counter()
        w = qmpi_run(n_ranks, fn, args=args, seed=0, shots=shots)
        w.counts
        w.close()
        batched = shots / (time.perf_counter() - t0)
        row = {
            "kernel": name,
            "n_qubits": n_qubits if name == "ghz" else 1,
            "n_ranks": n_ranks,
            "shots": shots,
            "looped_shots_per_s": round(looped, 1),
            "batched_shots_per_s": round(batched, 1),
            "speedup": round(batched / looped, 1),
        }
        rows.append(row)
        print(
            f"{name:<10} ranks={n_ranks} shots={shots:>5} "
            f"looped {looped:>8.1f}/s  batched {batched:>10.1f}/s "
            f"x{row['speedup']}"
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small sizes, short passes (CI)")
    ap.add_argument("--out", default="BENCH_shots.json", help="output JSON path")
    args = ap.parse_args(argv)

    if args.quick:
        n_qubits, shots, loop_iters = 10, 512, 20
    else:
        n_qubits, shots, loop_iters = 16, 4096, 100

    print("# batching phase: looped single-shot runs vs one shots=N pass")
    batching = bench_batching(n_qubits, shots, loop_iters)

    payload = {
        "quick": args.quick,
        "cpu_count": os.cpu_count() or 1,
        "n_qubits": n_qubits,
        "shots": shots,
        "loop_iters": loop_iters,
        "batching": batching,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
