"""Native jit kernels vs the planar numpy fallback -> BENCH_kernels.json.

Two sections, both recording ``speedup = numpy_time / jit_time`` (the
modes are bit-identical, so the ratio is pure dispatch economics):

Micro section (``kernels`` rows) — each dispatched kernel family timed
in isolation on engine-shaped arrays: the strided single-qubit pass
(``sq``), the locally-controlled pass (``cc``) and the diagonal
phase-table materializer (``diag``), at 12-20 qubits, both on one monolithic array (``shared``)
and on a 4-chunk sharded layout (``sharded``).  These calibrate the
``jit_min_amps`` break-even in :data:`repro.sim.schedule.CostModel` and
show where the single-pass native driver beats one numpy ufunc sweep
per step.  (The csel/ct window contraction has no row: it is one BLAS
routine in both modes, so its ratio is 1.0 by definition.)

Replay section (``replay`` rows) — the end-to-end acceptance row: a
parameter-sweep circuit replayed through the schedule cache's frozen
programs (PR 8) with ``kernels="jit"`` vs ``kernels="numpy"``, timing
only warm passes.  On the sharded engine the frozen steps collapse
into typed opcode blocks walked by one native call per chunk; on the
shared engine only the diag materializer dispatches (dense steps are
already BLAS), so its ratio hovers near 1 by design.  The sweep runs
``fusion="noplan"``: with the default cost model, 16q+ layers lower
into contraction plans whose BLAS matmuls are mode-identical, and the
row exists to measure the kernel driver, not zgemm.  The PR 9
acceptance bar is >= 2x on a sharded frozen-replay row at 16q+.

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

from repro.qmpi import Op, OpStream, SharedBackend, ShardedBackend  # noqa: E402
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
    controls = (0, nl - 1)
    t_bit = nl // 2
    # diag workload: a coalesced batch touching every local axis (an rz
    # layer + a few crz couplings), so the materialized table spans the
    # chunk — capped under chunk_phase's 24-part angle-path threshold,
    # which is mode-identical by design and would measure nothing
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

    def cc(kd):
        for c in chunks:
            kd.cc(c, u2, controls, t_bit, nl, diag=False)

    def diag(kd):
        for ci in range(len(chunks)):
            chunk_phase(singles, pairs, nl, ci, kernels=kd)

    return {"sq": sq, "cc": cc, "diag": diag}


def run_micro_section(sizes, min_reps, min_time):
    rows = []
    jit = KernelDispatch("jit")
    ref = KernelDispatch("numpy")
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


def _sweep_shape(n_qubits):
    """Mixed layers: sq/cc kernel passes + a diag-coalescible layer."""
    shape = []
    for _ in range(2):
        shape.extend(("ry", (q,), 1) for q in range(n_qubits))
        shape.extend(("cnot", (q, q + 1), 0) for q in range(n_qubits - 1))
        shape.extend(("rz", (q,), 1) for q in range(n_qubits))
        shape.extend(("crz", (q, q + 1), 1) for q in range(0, n_qubits - 1, 2))
    return shape


def _materialize(shape, qubits, angles):
    it = iter(angles)
    return [
        Op(gate, tuple(qubits[i] for i in qs),
           tuple(next(it) for _ in range(n_params)))
        for gate, qs, n_params in shape
    ]


def _time_warm_replay(factory, shape, n_qubits, kernels, min_reps, min_time):
    """Best warm-pass seconds: pass 1 compiles + freezes, the rest replay."""
    be = factory(kernels)
    try:
        qubits = tuple(be.alloc(0, n_qubits))
        rng = np.random.default_rng(13)
        n_params = sum(p for _, _, p in shape)
        # noplan: at 16q+ the default cost model routes these layers
        # into contraction plans whose BLAS matmuls are identical in
        # both modes — this row must keep measuring the kernel driver.
        stream = OpStream(be, 0, fusion="noplan", max_pending=1 << 20)

        def one_pass():
            angles = tuple(float(a) for a in rng.uniform(-np.pi, np.pi, n_params))
            for op in _materialize(shape, qubits, angles):
                stream.append(op)
            stream.flush()

        one_pass()  # cold: compile, freeze, and (jit) warm the provider
        return _best(one_pass, min_reps, min_time)
    finally:
        be.close()


def run_replay_section(sizes, min_reps, min_time):
    rows = []
    for n_qubits in sizes:
        shape = _sweep_shape(n_qubits)
        for backend, factory in (
            ("shared", lambda k: SharedBackend(seed=0, cache="on", kernels=k)),
            (
                "sharded",
                lambda k: ShardedBackend(
                    seed=0, n_shards=N_SHARDS, cache="on", kernels=k
                ),
            ),
        ):
            t_np = _time_warm_replay(
                factory, shape, n_qubits, "numpy", min_reps, min_time
            )
            t_jit = _time_warm_replay(
                factory, shape, n_qubits, "jit", min_reps, min_time
            )
            row = {
                "kernel": "frozen_replay",
                "n_qubits": n_qubits,
                "backend": backend,
                "numpy_ms": round(t_np * 1e3, 4),
                "jit_ms": round(t_jit * 1e3, 4),
                "speedup": round(t_np / t_jit, 3),
            }
            rows.append(row)
            print(
                f"frozen n={n_qubits:>2} {backend:<8} "
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

    print("# micro section: per-kernel jit vs planar numpy")
    micro = run_micro_section(sizes, min_reps, min_time)
    print("# replay section: frozen schedule replay, warm passes")
    replay = run_replay_section(sizes, min_reps, min_time)

    payload = {
        "quick": args.quick,
        "provider": provider,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count() or 1,
        "kernels": micro,
        "replay": replay,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    bar = [
        r for r in replay
        if r["backend"] == "sharded" and r["n_qubits"] >= 16 and r["speedup"] >= 2.0
    ]
    if not bar:
        print("WARNING: no sharded frozen-replay row at 16q+ reached the 2x bar")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
