"""Past-20-qubit scale: the two dtype tiers -> BENCH_scale.json.

One ``scale`` row per ``(n_qubits, dtype)`` configuration: a
layered sweep circuit (h / cnot-chain / rz / crz couplings, ~3.5n
gates) runs once on a 4-shard :class:`ShardedStateVector` and records
gates/second next to the peak RSS the register cost.

Every configuration runs in its **own subprocess** so the RSS
high-water mark is attributable: ``peak_rss_bytes`` is the process
high-water (``ru_maxrss``) minus the resident size sampled right
before the register is allocated — interpreter + numpy overhead is
subtracted out, what remains is the state plus the engine's transient
copies.  The absolute high-water and the pre-alloc baseline are kept
alongside (``peak_rss_abs_bytes``, ``baseline_rss_bytes``), and every
row carries ``peak_over_state`` (``peak_rss_bytes / state_bytes``),
which the CI bench compare holds under a ceiling: every engine step
runs in slab-sized scratch, so the register should cost about 1x its
state.

Both dtypes run at every grid size.  The ``complex64`` row carries
``speedup`` (c128 wall / c64 wall, gated by the CI bench compare) and
``rss_c64_over_c128`` (the acceptance bar: <= 0.55 at equal qubit
count — half the bytes plus halved transients).

The full grid is 22q/24q/26q; ``--quick`` measures only 22q so the CI
bench-gate matches the 22q rows of the committed baseline and skips
the rest.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick
    PYTHONPATH=src python benchmarks/bench_scale.py

See docs/benchmarks.md for the BENCH_scale.json schema.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

QUBITS_FULL = [22, 24, 26]
QUBITS_QUICK = [22]
N_SHARDS = 4


def _rss_now_bytes() -> int:
    """Current resident set size, from /proc (Linux) with a ru fallback."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-procfs host
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss_peak_bytes() -> int:
    """Process high-water RSS (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _sweep(sv, n):
    gates = 0
    for q in range(n):
        sv.h(q)
    gates += n
    for q in range(n - 1):
        sv.cnot(q, q + 1)
    gates += n - 1
    for q in range(n):
        sv.rz(q, 0.3 + 0.01 * q)
    gates += n
    for q in range(0, n - 1, 2):
        sv.crz(q, q + 1, 0.7)
    gates += (n - 1 + 1) // 2
    return gates


def run_one(spec: dict) -> dict:
    """One configuration, in-process: called inside the child."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.sim import ShardedStateVector

    n = spec["n_qubits"]
    dtype = spec["dtype"]
    state_bytes = (1 << n) * (8 if dtype == "complex64" else 16)

    baseline = _rss_now_bytes()
    sv = ShardedStateVector(n, seed=1, n_shards=N_SHARDS, dtype=dtype)
    t0 = time.perf_counter()
    gates = _sweep(sv, n)
    wall = time.perf_counter() - t0
    norm = float(sv.norm())
    peak_abs = _rss_peak_bytes()
    peak = max(0, peak_abs - baseline)

    return {
        "n_qubits": n,
        "backend": "sharded",
        "dtype": dtype,
        "gates": gates,
        "wall_s": round(wall, 4),
        "gates_per_s": round(gates / wall, 2),
        "state_bytes": state_bytes,
        "norm": round(norm, 6),
        "baseline_rss_bytes": baseline,
        "peak_rss_abs_bytes": peak_abs,
        "peak_rss_bytes": peak,
        "peak_over_state": round(peak / state_bytes, 3),
    }


def _spawn(spec: dict) -> dict:
    """Run one configuration in a fresh interpreter for a clean RSS."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", json.dumps(spec)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="22q subset (CI)")
    ap.add_argument("--out", default="BENCH_scale.json", help="output JSON path")
    ap.add_argument("--one", help="internal: run one JSON spec and print the row")
    args = ap.parse_args(argv)

    if args.one:
        print(json.dumps(run_one(json.loads(args.one))))
        return 0

    sizes = QUBITS_QUICK if args.quick else QUBITS_FULL
    rows = []
    for n in sizes:
        by_dtype = {}
        for dtype in ("complex128", "complex64"):
            row = _spawn({"n_qubits": n, "dtype": dtype})
            by_dtype[dtype] = row
            rows.append(row)
            print(
                f"n={n} {dtype:<10} {row['gates_per_s']:>8.2f} gates/s  "
                f"peak {row['peak_rss_bytes'] / 2**20:>8.1f} MiB "
                f"({row['peak_over_state']:.2f}x the state)"
            )
        c64, c128 = by_dtype["complex64"], by_dtype["complex128"]
        c64["speedup"] = round(c128["wall_s"] / c64["wall_s"], 3)
        c64["rss_c64_over_c128"] = round(
            c64["peak_rss_bytes"] / max(1, c128["peak_rss_bytes"]), 3
        )
        print(
            f"n={n} c64 speedup x{c64['speedup']}  "
            f"rss ratio {c64['rss_c64_over_c128']}"
        )

    payload = {
        "quick": args.quick,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count() or 1,
        "scale": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    bar = [r for r in rows if r.get("rss_c64_over_c128", 1.0) <= 0.55]
    if not bar:
        print("WARNING: no row met the 0.55x complex64 peak-RSS bar")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
