#!/usr/bin/env python
"""Compare fresh benchmark runs against the committed BENCH_*.json baselines.

The committed files record *speedup ratios* from full runs: warm/cold
schedule-cache replay (``BENCH_cache.json``), numpy/native kernel time
(``BENCH_kernels.json``) and complex128/complex64 wall time
(``BENCH_scale.json``).  CI re-runs the same benchmarks in ``--quick``
mode and this tool fails (exit 1) if any ratio **regresses** by more
than the tolerance (default 30%) against the committed baseline for
the same ``(kernel, n_qubits, backend, ...)`` row, or if a
:data:`CEILINGS` column of a fresh row exceeds its ceiling
(``peak_over_state``, the peak RSS of ``BENCH_scale.json`` over the
state's bytes).  Ratios are what
make quick-vs-full comparison meaningful: both arms run on the same
host in the same process, so the ratio is far more stable than an
absolute rate.

Rules:

* rows are matched on their identity keys; rows present on only one
  side (quick mode measures fewer sizes than full) are reported as
  ``skip`` and never gate;
* whole sections present on only one side — or malformed ones — are
  reported as a single section-level ``skip`` with the reason, never a
  traceback (an unreadable crash in the blocking gate hides the diff);
* an unreadable/unparsable file fails the pair with a message (the
  bench step upstream did not produce what the gate was told to check);
* a pair that compares no gated ratio at all fails: a gate that
  checks nothing must not read as a pass;
* *improvements* never fail, only regressions beyond tolerance do;
* a ceiling column is an absolute upper bound on the fresh value (the
  table's ``base`` column shows the ceiling), whatever the tolerance.

Usage::

    python tools/bench_compare.py \\
        --baseline BENCH_cache.json --fresh fresh/BENCH_cache.json \\
        [--tolerance 0.30]

Repeat ``--baseline``/``--fresh`` pairs to gate several files at once;
a table of every compared row is always printed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: Fields that identify a row (whichever subset is present is the key).
KEY_FIELDS = ("kernel", "n_qubits", "backend", "dtype")

#: Ratio columns gated per benchmark row, by column name.
RATIO_FIELDS = ("speedup",)

#: Columns gated as an upper bound on the fresh row, by column name.
#: ``peak_over_state`` (BENCH_scale.json: peak RSS over the state's
#: bytes) read 1.00-1.09 on the committed full run; an engine step that
#: holds a chunk- or state-sized temporary again reads 1.5 or more.
CEILINGS = {"peak_over_state": 1.3}

#: Columns printed for matched rows but never gated: the absolute
#: peak-RSS column of BENCH_scale.json is reported for inspection; its
#: ratio to the state (``peak_over_state``) is what the gate holds.
INFO_FIELDS = ("peak_rss_bytes",)

#: list-of-rows sections to compare, per file; anything else (scalars)
#: is ignored.
SECTIONS = ("flush", "kernels", "scale")


def _section_rows(payload: dict, section: str):
    """The section's row list, or ``None`` when absent/malformed.

    Returns ``(rows, problem)``: ``problem`` is a human-readable string
    when the section is present but not a list of dict rows (a corrupt
    or hand-edited BENCH file) — the caller reports it instead of
    crashing mid-table.
    """
    rows = payload.get(section)
    if rows is None:
        return None, None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return None, f"section {section!r} is not a list of row objects"
    return rows, None


def _key(section: str, row: dict) -> tuple:
    return (section,) + tuple(
        (f, row[f]) for f in KEY_FIELDS if f in row
    )


def compare(baseline: dict, fresh: dict, tolerance: float):
    """Yield ``(key, field, base, new, verdict)`` for every gated ratio.

    A section present on only one side — a committed file carrying rows
    the fresh (quick) run produced no section for at all, or a fresh
    run measuring something not yet committed — yields a single
    section-level ``skip`` verdict naming the missing side and the row
    count, instead of one cryptic row per orphan.  Malformed sections
    are likewise reported as skips, never tracebacks: the gate's
    output must stay a readable diff whatever the inputs.
    """
    for section in SECTIONS:
        b_rows, b_problem = _section_rows(baseline, section)
        f_rows, f_problem = _section_rows(fresh, section)
        if b_problem or f_problem:
            where = "baseline" if b_problem else "fresh"
            problem = b_problem or f_problem
            yield (section,), "-", None, None, f"skip (malformed {where}: {problem})"
            continue
        if b_rows is None and f_rows is None:
            continue
        if b_rows is None or f_rows is None:
            missing = "fresh" if f_rows is None else "baseline"
            n = len(b_rows if f_rows is None else f_rows)
            yield (
                (section,), "-", None, None,
                f"skip (section missing from {missing}; {n} row(s) not gated)",
            )
            continue
        base_map = {_key(section, r): r for r in b_rows}
        fresh_map = {_key(section, r): r for r in f_rows}
        for key in sorted(set(base_map) | set(fresh_map), key=repr):
            b, f = base_map.get(key), fresh_map.get(key)
            if b is None or f is None:
                yield key, "-", None, None, "skip (no counterpart)"
                continue
            for field in RATIO_FIELDS:
                if field not in b or field not in f:
                    continue
                base_v, new_v = float(b[field]), float(f[field])
                if base_v <= 0:
                    verdict = "skip"
                elif new_v < base_v * (1.0 - tolerance):
                    verdict = "FAIL"
                else:
                    verdict = "ok"
                yield key, field, base_v, new_v, verdict
            for field, ceiling in CEILINGS.items():
                if field in f:
                    new_v = float(f[field])
                    yield key, field, ceiling, new_v, "FAIL" if new_v > ceiling else "ok"
            for field in INFO_FIELDS:
                if field in b and field in f:
                    yield key, field, float(b[field]), float(f[field]), "info"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", action="append", required=True,
                    help="committed baseline JSON (repeatable)")
    ap.add_argument("--fresh", action="append", required=True,
                    help="freshly measured JSON, paired with --baseline")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional regression (default 0.30)")
    args = ap.parse_args(argv)
    if len(args.baseline) != len(args.fresh):
        ap.error("--baseline and --fresh must be paired")

    failures = 0
    width = 64
    print(f"{'row':<{width}} {'field':<12} {'base':>8} {'fresh':>8}  verdict")
    print("-" * (width + 40))
    for base_path, fresh_path in zip(args.baseline, args.fresh):
        print(f"# {base_path} vs {fresh_path}")
        try:
            baseline = json.loads(Path(base_path).read_text())
            fresh = json.loads(Path(fresh_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"  FAIL: cannot load pair: {exc}")
            failures += 1
            continue
        gated = 0
        for key, field, base_v, new_v, verdict in compare(
            baseline, fresh, args.tolerance
        ):
            label = "/".join(str(v) for _, v in key[1:]) or key[0]
            label = f"{key[0]}:{label}"
            if field == "-":  # section-level or row-level skip
                print(f"{label:<{width}} {'-':<12} {'-':>8} {'-':>8}  {verdict}")
                continue
            gated += verdict in ("ok", "FAIL")
            failures += verdict == "FAIL"
            print(
                f"{label:<{width}} {field:<12} {base_v:>8.3f} {new_v:>8.3f}  {verdict}"
            )
        if not gated:
            print(f"  FAIL: no gated ratio compared (sections {', '.join(SECTIONS)})")
            failures += 1
    if failures:
        print(
            f"\n{failures} gate failure(s): ratios regressed more than "
            f"{args.tolerance:.0%} vs the committed baselines, a column "
            "exceeded its ceiling, or a pair could not be loaded or "
            "compared nothing"
        )
        return 1
    print("\nall compared ratios within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
