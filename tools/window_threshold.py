#!/usr/bin/env python
"""Per-call calibration of ``repro.sim.sharded._WINDOW_BELOW_AMPS``.

The store runs a chunk-local single-target entry either as the strided
pass (``KernelDispatch.sq`` / ``cc``, numpy twin or native) or as one
``KernelDispatch.contract`` over a frozen ``Window``; the threshold is
the chunk size from which the strided pass stops losing.  This times
both on one complex128 chunk of ``2^nl`` amplitudes, per gate and
target bit, and prints microseconds per call (the best of seven rounds'
means).  Pin BLAS to one thread for repeatable numbers::

    OPENBLAS_NUM_THREADS=1 python tools/window_threshold.py [--bits 6-15]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.kernels import KernelDispatch, Window, provider_name  # noqa: E402
from repro.sim.ops import Op  # noqa: E402
from repro.sim.schedule import monomial_pattern  # noqa: E402


def per_call_us(fn, reps: int) -> float:
    """Best of seven rounds of ``reps`` calls, in microseconds per call."""
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best * 1e6


def dispatch(min_amps: float) -> KernelDispatch:
    kd = KernelDispatch()
    kd.jit_min_amps = min_amps
    return kd


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bits", default="6-15", help="chunk sizes as a range of log2 amplitudes")
    ap.add_argument("--reps", type=int, default=20000, help="calls per round at 2^6 amplitudes")
    args = ap.parse_args(argv)
    lo, _, hi = args.bits.partition("-")
    numpy_arm, native_arm = dispatch(float("inf")), dispatch(0)
    native = provider_name() is not None
    rng = np.random.default_rng(0)
    print(f"provider: {provider_name()}")
    print(f"{'nl':>2s}  {'gate':6s} {'bits':>6s} {'numpy':>7s} "
          f"{'native':>7s} {'window':>7s}  (us/call)")
    for nl in range(int(lo), int(hi or lo) + 1):
        reps = max(20, args.reps >> max(0, nl - 6))
        chunk = rng.standard_normal(1 << nl) + 1j * rng.standard_normal(1 << nl)
        chunk /= np.linalg.norm(chunk)
        for gate, params, controlled in (
            ("ry", (0.3,), False), ("rz", (0.3,), False), ("h", (), False),
            ("cnot", (), True), ("crz", (0.4,), True),
        ):
            op = Op(gate, (1, 0) if controlled else (0,), params)
            u = np.asarray(op.target_matrix(), dtype=np.complex128)
            diag = op.is_diagonal
            pattern = monomial_pattern(op, full=False)
            pairs = ((0, nl - 1), (nl - 1, 0), (nl // 2, nl // 2 + 1)) if controlled else (
                (None, 0), (None, nl // 2), (None, nl - 1))
            for c, t in pairs:
                controls = () if c is None else (c,)
                win = Window((t,), nl, controls, pattern)
                if c is None:
                    arms = (numpy_arm, native_arm)
                    strided = [lambda kd=kd: kd.sq(chunk, u, t, diag) for kd in arms]
                else:  # cc has no native arm
                    strided = [lambda: numpy_arm.cc(chunk, u, controls, t, nl, diag)]
                times = [per_call_us(fn, reps) for fn in strided]
                nat = f"{times[1]:7.1f}" if len(times) > 1 and native else f"{'-':>7s}"
                window = per_call_us(lambda: numpy_arm.contract(chunk, u, win), reps)
                where = f"{t}" if c is None else f"{c}>{t}"
                print(f"{nl:2d}  {gate:6s} {where:>6s} {times[0]:7.1f} {nat} {window:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
