"""The seven benchmark workloads: parameters, inputs, oracle and checks.

``BENCHMARK.json`` holds each workload's name and its "why"; this
module holds what the contract's schema has no room for — the sizes,
how ``--seed`` becomes inputs, which :mod:`reference` function is the
oracle, and what is checked after the clock stops. All run in the
default configuration of ``qmpi_run`` apart from the engine, the
transport and ``shots``, which *are* the workload.
"""

from dataclasses import dataclass

import numpy as np

import reference

#: Max-abs amplitude error a repetition may show against the oracle.
STATE_TOL = 1e-9
#: Binomial standard deviations a round's sampled P(1) may sit from sin^2(theta/2).
P_ONE_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark (``smoke`` overrides ``size`` for the tests)."""

    kind: str  # one of KINDS: selects the program, the oracle and the check
    n_ranks: int
    size: dict
    smoke: dict
    backend: str = "shared"
    transport: str = "inproc"
    shots: int | None = None


WORKLOADS = {
    "tfim_ring": Workload(
        "anneal", 4, {"spins": 4, "steps": 4}, {"spins": 2, "steps": 2}
    ),
    "trotter_shared": Workload(
        "anneal", 1, {"spins": 20, "steps": 6}, {"spins": 10, "steps": 2}
    ),
    "trotter_sharded": Workload(
        "anneal", 1, {"spins": 20, "steps": 6}, {"spins": 10, "steps": 2}, backend="sharded:4"
    ),
    "qft_sharded": Workload("qft", 2, {"n": 10}, {"n": 5}, backend="sharded:4"),
    "sweep_small": Workload("sweep", 1, {"n": 10, "flushes": 400}, {"n": 6, "flushes": 20}),
    "catbcast_inproc": Workload("catbcast", 4, {"rounds": 6}, {"rounds": 2}, shots=1024),
    "catbcast_mp": Workload(
        "catbcast", 4, {"rounds": 6}, {"rounds": 2}, shots=1024, transport="mp"
    ),
}

KINDS = ("anneal", "qft", "sweep", "catbcast")


def make_inputs(name, seed, smoke=False):
    """``(program args, measurement seed)`` for ``name``, a function of ``seed`` alone.

    ``catbcast_inproc`` and ``catbcast_mp`` share a kind, so the same
    seed gives them byte-identical programs and measurement seeds.
    """
    wl = WORKLOADS[name]
    size = wl.smoke if smoke else wl.size
    rng = np.random.default_rng([seed, KINDS.index(wl.kind)])
    run_seed = int(rng.integers(1 << 31))
    if wl.kind == "anneal":
        steps = size["steps"]
        args = (size["spins"], [s / steps for s in range(steps)], float(rng.uniform(0.5, 1.5)))
    elif wl.kind == "qft":
        # Half the bits set, at drawn positions: the x gates that prepare
        # the value are part of the work, so every seed issues as many.
        n = size["n"]
        values = [sum(1 << int(b) for b in rng.permutation(n)[: n // 2]) for _ in range(wl.n_ranks)]
        args = (n, values)
    elif wl.kind == "sweep":
        n = size["n"]
        args = (n, rng.uniform(0.0, 2.0 * np.pi, (size["flushes"], n + n // 2)))
    else:
        # Away from 0 and pi, so every round's outcome is a fair binomial.
        args = ([float(t) for t in rng.uniform(0.4, 2.7, size["rounds"])],)
    return args, run_seed


def make_reference(name, args):
    """The oracle's expectations for ``name`` run on ``args`` (see :mod:`reference`)."""
    wl = WORKLOADS[name]
    if wl.kind == "anneal":
        return reference.anneal(wl.n_ranks, *args)
    if wl.kind == "qft":
        return reference.qft(*args)
    if wl.kind == "sweep":
        return reference.sweep(*args)
    return reference.cat_broadcast(wl.n_ranks, args[0], wl.shots)


def check(name, world, ref, counts=None):
    """Compare one finished run against the oracle.

    Returns ``(error, problems)``: the measured error (max-abs
    amplitude difference, or the worst round's deviation in sigmas for
    the sampled workloads) and a list of failed checks, empty when the
    repetition is correct. ``counts`` is the histogram the run must
    reproduce exactly (the launch's first repetition's), when known.
    """
    wl = WORKLOADS[name]
    problems = []
    ledger = world.ledger.snapshot()
    for key in ("epr_pairs", "classical_bits"):
        if key in ref and getattr(ledger, key) != int(ref[key]):
            problems.append(f"ledger {key} = {getattr(ledger, key)}, oracle says {int(ref[key])}")
    if wl.kind != "catbcast":
        qubits = [q for rank_qubits in world.results for q in rank_qubits]
        error = float(np.max(np.abs(world.backend.statevector(qubits) - ref["state"])))
        if not error <= STATE_TOL:
            problems.append(f"state differs from the oracle by {error:.3e} (> {STATE_TOL:g})")
        return error, problems
    bits = np.array(world.results)  # rank x round x shot
    if not (bits == bits[0]).all():
        problems.append("ranks read different bits from one broadcast")
    error = float(np.max(np.abs(bits[0].mean(axis=1) - ref["p_one"]) / ref["p_sigma"]))
    if not error <= P_ONE_SIGMAS:
        problems.append(f"P(1) is {error:.1f} sigma from sin^2(theta/2) (> {P_ONE_SIGMAS:g})")
    if counts is not None and world.counts != counts:
        problems.append("measurement histogram differs from the first repetition's")
    return error, problems
