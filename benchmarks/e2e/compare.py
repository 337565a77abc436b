"""Compare two sets of ``run.py --out`` files: ``compare.py A.json B.json``.

A is the base, B the candidate; either may be several runs, given as
``A1.json,A2.json,...``. A sample is one run's value of a metric. For
every workload and end-to-end metric it prints both sides' medians
over their runs with the quartiles, the ratio B/A with its base, and a
verdict from the bounds in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side (quartile distance over
  median) is wider than the bound, so "no change" cannot be claimed —
  unless every run of B is better than every run of A;
* ``ok``         — otherwise.

One run a side has no spread to show, so nothing is ever ``unresolved``
then; a change near the bound needs several runs a side (README, "How
steady").

A rise in ``fail_rate`` (failed / attempted repetitions) is always a
regression. Per-layer counts (units ``count`` and ``bytes``: calls,
cache, RPC, ledger) must repeat exactly between two runs of one commit
and seed; those that differ between the first run of each side are
listed. Exit code 1 on any ``regressed`` or ``fail_rate`` rise, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(samples):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(a, b, better, bound):
    """``(verdict, ratio)`` for base samples ``a`` and candidate samples ``b``."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (bm - am) / am > bound:
        return "regressed", bm / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if spread > bound and not all_better:
        return "unresolved", bm / am
    return "ok", bm / am


def compare(side_a, side_b, spec):
    """Print the comparison of two lists of reports; returns the number of regressions."""
    regressions = 0
    for name in (w["name"] for w in spec["workloads"]):
        rows_a = [doc["workloads"][name] for doc in side_a if name in doc["workloads"]]
        rows_b = [doc["workloads"][name] for doc in side_b if name in doc["workloads"]]
        if not rows_a or not rows_b:
            continue
        print(name)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            sa = [row["end_to_end"][key] for row in rows_a if key in row.get("end_to_end", {})]
            sb = [row["end_to_end"][key] for row in rows_b if key in row.get("end_to_end", {})]
            if not sa or not sb:
                continue
            word, ratio = verdict(sa, sb, metric["better"], metric["bound"])
            regressions += word == "regressed"
            (a1, am, a3), (b1, bm, b3) = quartiles(sa), quartiles(sb)
            print(
                f"  {key:<12} A {am:>10.5g} [{a1:.5g}, {a3:.5g}] n={len(sa):<3}"
                f" B {bm:>10.5g} [{b1:.5g}, {b3:.5g}] n={len(sb):<3}"
                f" B/A {ratio:.3f} of {am:.5g} {metric['unit']}"
                f"  bound {metric['bound']:.0%}  {word}"
            )
        failed_a, tried_a = (sum(row[k] for row in rows_a) for k in ("failed", "attempted"))
        failed_b, tried_b = (sum(row[k] for row in rows_b) for k in ("failed", "attempted"))
        word = "regressed" if failed_b / tried_b > failed_a / tried_a else "ok"
        regressions += word == "regressed"
        print(f"  {'fail_rate':<12} A {failed_a}/{tried_a}  B {failed_b}/{tried_b}  {word}")
        layers_a, layers_b = rows_a[0].get("per_layer", {}), rows_b[0].get("per_layer", {})
        for metric in spec["per_layer"]:
            key = metric["name"]
            if metric["unit"] in ("count", "bytes") and key in layers_a and key in layers_b:
                if layers_a[key] != layers_b[key]:
                    print(f"  count differs: {key}  A {layers_a[key]}  B {layers_b[key]}")
    return regressions


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = ([json.loads(Path(p).read_text()) for p in arg.split(",")] for arg in argv)
    for side, docs in (("A", a), ("B", b)):
        for doc in docs:
            print(f"{side}: seed {doc['seed']}, {doc['seconds']} s a workload, host {doc['host']}")
    regressions = compare(a, b, spec)
    print(f"{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
