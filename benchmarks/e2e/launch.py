"""One launch of one workload: a fresh process, as a user would start one.

Everything up to the first timed repetition is set-up and is reported
as ``setup_s``: interpreter start, imports, input generation, loading
the native kernels and one untimed repetition. Then ``qmpi_run`` ...
``world.close()`` is timed under ``time.perf_counter`` until the budget
is spent; every repetition is checked against the driver's oracle
after its clock has stopped. The result is one JSON object on the last
line of standard output. ``run.py`` is the only caller.
"""

import argparse
import json
import statistics
import sys
import time
import traceback

import numpy as np
import workloads
from programs import PROGRAMS

from repro.qmpi import qmpi_run

#: A repetition that takes longer than this is a failed repetition.
REP_TIMEOUT_S = 60.0
MIN_TIMED_REPS = 2


def calibrate():
    """Best of five timings of a fixed numpy triad: a slow or busy host shows here.

    Its 48 MiB would be the peak memory of the small workloads, so it
    runs last, after ``peak_rss_mb`` has been read.
    """
    b = np.ones(1 << 21)
    c = np.ones(1 << 21)
    a = np.empty_like(b)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.multiply(c, 1.5, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb():
    """This process's peak resident set in MiB, read from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries the spawning process's peak across
    ``exec``, so a launch would report the driver's oracle arrays.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Launch:
    """The state of one launch: inputs, optional recorder, and the tallies."""

    def __init__(self, args):
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.program = PROGRAMS[self.wl.kind]
        self.program_args, self.run_seed = workloads.make_inputs(
            args.workload, args.seed, args.smoke
        )
        self.run = qmpi_run
        self.ref = None  # loaded after the first repetition, see attempt()
        self.peak_rss_mb = 0.0
        self.counts = None  # the first repetition's histogram; every later one must equal it
        self.recorder = None
        if args.trace:
            # Imported only when tracing, so an untraced launch's set-up
            # loads the modules a user's process would.
            import layers
            from spans import Recorder

            self.recorder = Recorder()
            layers.install(self.recorder)
            self.run = self.recorder.wrap(qmpi_run, "qmpi.api.qmpi_run")
            if self.wl.transport == "inproc":
                # Rank processes are not traced, and need a picklable program.
                self.program = self.recorder.wrap(self.program, layers.ROOT)
        self.attempted = self.failed = 0
        self.walls = []
        self.problems = []
        self.worst_error = 0.0
        self.layer_reps = []
        self.spans = []

    def repetition(self, transport, run=None):
        """One ``qmpi_run`` ... ``world.close()``; returns ``(seconds, world)``."""
        wl = self.wl
        start = time.perf_counter()
        world = (run or self.run)(
            wl.n_ranks,
            self.program,
            args=self.program_args,
            seed=self.run_seed,
            timeout=REP_TIMEOUT_S,
            backend=wl.backend,
            shots=wl.shots,
            transport=transport,
        )
        world.close()
        return time.perf_counter() - start, world

    def attempt(self, timed):
        """Run one repetition, then check it; returns the seconds the run took."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            wall, world = self.repetition(self.wl.transport)
        except Exception as exc:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"repetition {self.attempted} raised {type(exc).__name__}: {exc}")
            if self.recorder is not None:
                self.recorder.drain()
            return time.perf_counter() - start
        if self.ref is None:
            # Peak memory is read before the oracle's arrays are loaded
            # and before any check copies the state.
            self.peak_rss_mb = peak_rss_mb()
            self.ref = dict(np.load(self.args.reference))
        found = []
        if self.recorder is not None:
            found += self.collect_layers(world, wall, timed)
        error, wrong = workloads.check(self.args.workload, world, self.ref, self.counts)
        found += wrong
        if self.counts is None and self.wl.shots is not None:
            self.counts = world.counts
        self.worst_error = max(self.worst_error, error)
        if found:
            self.failed += 1
            self.problems += [f"repetition {self.attempted}: {p}" for p in found]
        elif timed:
            self.walls.append(wall)
        return wall

    def collect_layers(self, world, wall, timed):
        """Turn the repetition's spans into per-layer metrics; returns failed checks."""
        import layers
        from spans import root_sums

        self.spans, counters = self.recorder.drain(layers.PEAKS)
        table = layers.metrics(self.spans, counters, world)
        roots = root_sums(self.spans, layers.ROOT)
        table["trace.root_coverage"] = max((r[1] for r in roots), default=0.0) / wall
        if timed:
            self.layer_reps.append(table)
        gates = int(self.ref["gates"])
        if roots and table["qmpi.api.gates"] != gates:
            return [f"{table['qmpi.api.gates']} gates through the shims, oracle says {gates}"]
        return []

    def check_transport(self):
        """A process transport must reproduce the thread fabric's histogram.

        Runs the same program and seed once over ``inproc``, untraced
        and after the last clock has stopped; a difference fails every
        repetition of the launch.
        """
        if self.counts is None or self.wl.transport == "inproc":
            return
        if self.repetition("inproc", run=qmpi_run)[1].counts != self.counts:
            self.failed = self.attempted
            self.walls = []
            self.problems.append("histogram differs from the inproc run of the same seed")

    def report(self, setup_s):
        """The launch's result object; also removes the recorder's wrappers."""
        layer_medians = None
        if self.recorder is not None:
            self.recorder.uninstall()
            if self.args.spans_out:
                from spans import dump

                dump(self.args.spans_out, self.spans, workload=self.args.workload)
            layer_medians = {
                key: statistics.median_low([rep[key] for rep in self.layer_reps])
                for key in (self.layer_reps[0] if self.layer_reps else ())
            }
        return {
            "workload": self.args.workload,
            "setup_s": setup_s,
            "walls": self.walls,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "error": self.worst_error,
            "peak_rss_mb": self.peak_rss_mb,
            "calib_s": calibrate(),
            "layers": layer_medians,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed repetitions")
    parser.add_argument("--t0", type=float, required=True, help="time.time() at the driver's spawn")
    parser.add_argument("--reference", required=True, help=".npz written by the driver's oracle")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the last repetition's spans here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    launch = Launch(args)
    launch.attempt(timed=False)
    setup_s = time.time() - args.t0
    spent = 0.0
    reps = 0
    # Stop at the repetition count whose expected time is nearest the budget.
    while reps < MIN_TIMED_REPS or spent + 0.5 * spent / reps < args.budget:
        spent += launch.attempt(timed=True)
        reps += 1
    launch.check_transport()
    result = launch.report(setup_s)
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
