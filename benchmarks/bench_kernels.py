"""Native jit kernels vs their planar numpy twins -> BENCH_kernels.json.

One section of ``kernels`` rows recording ``speedup = numpy_time /
jit_time`` (the two arms are bit-identical, so the ratio is pure dispatch
economics) for the two kernels that have a native arm, each timed in
isolation on engine-shaped arrays at 12-20 qubits, both on one
monolithic array (``shared``) and on a 4-chunk sharded layout
(``sharded``): the strided single-qubit pass (``sq``) and the diagonal
phase-table fill (``diag``).  These calibrate
:data:`repro.sim.kernels.JIT_MIN_AMPS_DEFAULT`.  Every other kernel
(the controlled pass, the scales, the csel/ct window contraction) runs
the same numpy code in both arms, so its ratio is 1.0 by definition
and it has no row.  The end-to-end case is carried by the
``qft_sharded`` and ``trotter_shared`` rows of ``BENCHMARK.json``.

The ratios are host-SIMD-dependent (how well numpy's ufuncs vectorize
vs one -O3 scalar loop), so the CI bench-gate compares this file at a
wider tolerance than the default.

Run standalone (CI quick mode)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick

or full (committed baseline)::

    PYTHONPATH=src python benchmarks/bench_kernels.py

See docs/benchmarks.md for the BENCH_kernels.json schema.
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

from repro.sim.diag import chunk_phase  # noqa: E402
from repro.sim.kernels import KernelDispatch, provider_name  # noqa: E402

QUBITS_FULL = [12, 16, 20]
QUBITS_QUICK = [12, 16]
N_SHARDS = 4


def _rand_state(rng, n):
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    return psi


def _rand_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _chunks(psi, backend):
    """The engine-shaped view: one flat array, or 4 sharded chunks."""
    if backend == "shared":
        return [psi], int(np.log2(psi.size))
    return list(psi.reshape(N_SHARDS, -1)), int(np.log2(psi.size // N_SHARDS))


def _best(fn, min_reps, min_time):
    fn()  # warm-up (jit: ensures the provider is resolved and compiled)
    best = float("inf")
    elapsed = 0.0
    reps = 0
    while reps < min_reps or elapsed < min_time:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        elapsed += dt
        reps += 1
    return best


def _micro_ops(rng, n_qubits, backend):
    """Per-family closures applying one kernel over every chunk."""
    psi = _rand_state(rng, n_qubits)
    chunks, nl = _chunks(psi, backend)
    u2 = _rand_unitary(rng, 2)
    b = nl // 2
    # diag workload: a coalesced batch touching every local axis (an rz
    # layer + a few crz couplings), so the materialized table spans the
    # chunk — capped under chunk_phase's 24-part angle-path threshold,
    # which is numpy in both arms by design and would measure nothing
    singles = [
        (ax, np.exp(1j * rng.uniform(-np.pi, np.pi, 2))) for ax in range(nl)
    ]
    pairs = [
        ((ax, ax + 1), np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
        for ax in range(0, min(nl - 1, 6), 2)
    ]

    def sq(kd):
        for c in chunks:
            kd.sq(c, u2, b, diag=False)

    def diag(kd):
        for ci in range(len(chunks)):
            chunk_phase(singles, pairs, nl, ci, kernels=kd)

    return {"sq": sq, "diag": diag}


def run_micro_section(sizes, min_reps, min_time):
    rows = []
    jit, ref = KernelDispatch(), KernelDispatch()
    jit.jit_min_amps = 0  # native at every size
    ref.jit_min_amps = float("inf")  # never native
    jit.warmup()
    for n_qubits in sizes:
        for backend in ("shared", "sharded"):
            rng = np.random.default_rng((7, n_qubits))
            fams = _micro_ops(rng, n_qubits, backend)
            for family, fn in fams.items():
                t_np = _best(lambda: fn(ref), min_reps, min_time)
                t_jit = _best(lambda: fn(jit), min_reps, min_time)
                row = {
                    "kernel": family,
                    "n_qubits": n_qubits,
                    "backend": backend,
                    "numpy_ms": round(t_np * 1e3, 4),
                    "jit_ms": round(t_jit * 1e3, 4),
                    "speedup": round(t_np / t_jit, 3),
                }
                rows.append(row)
                print(
                    f"{family:<6} n={n_qubits:>2} {backend:<8} "
                    f"numpy {t_np*1e3:>9.3f}ms  jit {t_jit*1e3:>9.3f}ms  "
                    f"x{row['speedup']}"
                )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="short passes (CI)")
    ap.add_argument("--out", default="BENCH_kernels.json", help="output JSON path")
    args = ap.parse_args(argv)

    provider = provider_name()
    if provider is None:
        print(
            "ERROR: no native kernel provider resolves (need cffi and a C "
            "toolchain); a jit-vs-numpy benchmark cannot run",
            file=sys.stderr,
        )
        return 1
    print(f"# provider: {provider}")

    sizes = QUBITS_QUICK if args.quick else QUBITS_FULL
    min_reps, min_time = (3, 0.05) if args.quick else (6, 0.25)

    print("# per-kernel jit vs planar numpy")
    micro = run_micro_section(sizes, min_reps, min_time)

    payload = {
        "quick": args.quick,
        "provider": provider,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count() or 1,
        "kernels": micro,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
