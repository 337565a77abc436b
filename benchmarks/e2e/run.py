"""End-to-end benchmark driver: paper workloads through the public ``qmpi_run``.

Two ways in, one code path:

* ``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  measures one workload and prints, as the last line of standard
  output, ``{"correct", "attempted", "failed", "metrics"}`` with the
  end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``) that ``BENCHMARK.json`` names.
* ``python benchmarks/e2e/run.py [--seed N] [--out F] [--trace-out F]``
  measures every workload both ways, launches interleaved round-robin
  so host drift hits all workloads alike, prints every metric by name
  with its unit, and writes the samples to ``--out`` for ``compare.py``.

A closed loop with one client: each launch (see ``launch.py``) is a
fresh process that sets up, then repeats the workload back to back.
The oracle (``reference.py``) is computed here, once per workload, and
handed to the launches as a file. Exit code 0 means every repetition of
every workload was correct.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Benchmark-owned build products (kernel cache, oracle files); git-ignored.
BUILD = ROOT / ".bench_build" / "e2e"

#: Untraced launches per workload; ``setup_s`` and ``peak_rss_mb`` are medians over them.
LAUNCHES = 3
LAUNCH_TIMEOUT_S = 170.0


def launch_env():
    """The launches' environment: this checkout's ``repro``, default configuration.

    ``REPRO_QMPI_*`` knobs (kernels, dtype, provider) are dropped so the
    benchmark measures what a user gets by default; the native kernel
    module is cached under :data:`BUILD`, never in ``~/.cache``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_QMPI_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["REPRO_QMPI_KERNEL_CACHE"] = str(BUILD / "kernels")
    return env


def build_kernels(env):
    """Compile the cffi kernel module before any launch, so no ``setup_s`` pays for it.

    Returns the provider name the launches will resolve (``None`` when
    there is no C toolchain and they fall back to numpy).
    """
    code = "from repro.sim.kernels import provider_name; print(provider_name())"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    provider = done.stdout.split()[-1]
    return None if provider == "None" else provider


def host_info(provider):
    """What the numbers were measured on; goes into ``--out`` beside them."""
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else "",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_provider": provider,
    }


def run_launch(name, seed, budget, reference, env, trace=0, smoke=False, spans_out=None):
    """Run one launch process and return the object it printed."""
    cmd = [sys.executable, str(HERE / "launch.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--budget", repr(budget), "--reference", str(reference), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.time())]
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=LAUNCH_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(names, seed, seconds, trace, env, smoke=False, trace_out=None):
    """Launch every workload in ``names``; returns ``{name: row}``.

    Untraced, a workload gets :data:`LAUNCHES` launches sharing
    ``seconds`` of timed repetitions, and its row holds every
    end-to-end metric with the samples behind it. Traced, one untraced
    launch (the base of ``trace.overhead_ratio``) and one traced launch
    share ``seconds``, and the row holds the per-layer metrics.
    Launches go round-robin over the workloads.
    """
    plan = [0, 1] if trace else [0] * LAUNCHES
    work = BUILD / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        gates = {}
        for name in names:
            ref = workloads.make_reference(name, workloads.make_inputs(name, seed, smoke)[0])
            np.savez(work / f"{name}.npz", **ref)
            gates[name] = int(ref["gates"])
        launches = {name: [] for name in names}
        for traced in plan:
            for name in names:
                spans_out = work / f"{name}.spans.json" if traced and trace_out else None
                launches[name].append(
                    run_launch(
                        name, seed, seconds / len(plan), work / f"{name}.npz", env,
                        trace=traced, smoke=smoke, spans_out=spans_out,
                    )
                )  # fmt: skip
        if trace and trace_out:
            spans = {name: json.loads((work / f"{name}.spans.json").read_text()) for name in names}
            Path(trace_out).write_text(json.dumps(spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = {}
    for name in names:
        done = launches[name]
        row = rows[name] = {
            "attempted": sum(launch["attempted"] for launch in done),
            "failed": sum(launch["failed"] for launch in done),
            "problems": [p for launch in done for p in launch["problems"]],
            "error": max(launch["error"] for launch in done),
        }
        if trace:
            row["per_layer"] = per_layer(*done)
        else:
            shots = workloads.WORKLOADS[name].shots or 1
            row["end_to_end"], row["samples"] = end_to_end(done, gates[name], shots)
    return rows


def end_to_end(launches, gates, shots):
    """``(values, samples)`` of one workload's end-to-end metrics.

    ``wall_s`` is the fastest correct timed repetition of the run, not
    the median: on a shared host the slow tail of the repetitions is
    the neighbours' load, and the fastest one repeats from run to run
    about twice as closely (README, "Why the fastest repetition").
    ``setup_s`` and ``peak_rss_mb`` are medians over the launches. The
    samples behind each value are kept for the table's quartiles.
    """
    samples = {
        "wall_s": [w for launch in launches for w in launch["walls"]],
        "setup_s": [launch["setup_s"] for launch in launches],
        "peak_rss_mb": [launch["peak_rss_mb"] for launch in launches],
    }
    if not samples["wall_s"]:
        return {}, samples
    wall = min(samples["wall_s"])
    values = {
        "wall_s": wall,
        "gates_per_s": gates / wall,
        "shots_per_s": shots / wall,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return values, samples


def per_layer(plain, traced):
    """Per-layer metrics from an untraced and a traced launch of one workload."""
    table = dict(traced["layers"])
    if plain["walls"] and traced["walls"]:
        table["trace.overhead_ratio"] = min(traced["walls"]) / min(plain["walls"])
    table["host.calib_s"] = statistics.median([plain["calib_s"], traced["calib_s"]])
    return table


def summarize(name, row, spec):
    """Print one workload's metrics by name with units; returns ``{metric: value}``."""
    unit = "sigma" if workloads.WORKLOADS[name].shots else "max-abs amplitude"
    print(
        f"{name}: {row['failed']} of {row['attempted']} repetitions failed; "
        f"error against the oracle {row['error']:.3g} {unit}"
    )
    for problem in row["problems"]:
        print(f"  FAILED {problem}")
    values = {}
    for metric in spec["end_to_end"]:
        value = row.get("end_to_end", {}).get(metric["name"])
        if value is not None:
            values[metric["name"]] = value
            line = f"  {metric['name']:<44} {value:>14.6g} {metric['unit']:<8}"
            samples = row["samples"].get(metric["name"], ())
            if len(samples) > 1:
                q1, median, q3 = statistics.quantiles(samples, n=4)
                line += f" median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}"
            print(line)
    for metric in spec["per_layer"]:
        value = row.get("per_layer", {}).get(metric["name"])
        if value is not None:
            values[metric["name"]] = value
            print(f"  {metric['name']:<44} {value:>14.6g} {metric['unit']}")
    return values


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="measure this one (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="end-to-end or per-layer only")
    parser.add_argument("--out", help="write all samples here (the input of compare.py)")
    parser.add_argument("--trace-out", help="write the traced launches' spans here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = launch_env()
    provider = build_kernels(env)
    selected = [args.workload] if args.workload else names
    report = {
        "host": host_info(provider),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {name: {"attempted": 0, "failed": 0, "problems": [], "error": 0.0}
                      for name in selected},
    }  # fmt: skip
    for trace in [0, 1] if args.trace is None else [args.trace]:
        rows = measure(selected, args.seed, args.seconds, trace, env, args.smoke, args.trace_out)
        for name, row in rows.items():
            total = report["workloads"][name]
            total["attempted"] += row.pop("attempted")
            total["failed"] += row.pop("failed")
            total["problems"] += row.pop("problems")
            total["error"] = max(total["error"], row.pop("error"))
            total.update(row)

    values = {name: summarize(name, row, spec) for name, row in report["workloads"].items()}
    print(f"host: {report['host']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    failed = sum(row["failed"] for row in report["workloads"].values())
    if args.workload and args.trace is not None:
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values[args.workload]]
        if missing:
            sys.exit(f"not measured: {', '.join(missing)}")
        result = {
            "correct": failed == 0,
            "attempted": report["workloads"][args.workload]["attempted"],
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[args.workload][m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }
        print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
