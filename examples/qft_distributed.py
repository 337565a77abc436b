#!/usr/bin/env python
"""Diagonal-heavy QFT: the op-stream's phase-vector batching at work.

Each rank runs the quantum Fourier transform on its own register —
a circuit that is almost entirely *diagonal* controlled phases, the
best case for the stream's diagonal batching: every H flushes a run of
cphase ops that coalesce into one ``DiagBatch`` and apply as a single
per-chunk phase-vector multiply (zero chunk communication on the
sharded engine). Run:

    python examples/qft_distributed.py [--backend shared|sharded]
                                       [--qubits N]

The script QFTs |value> per rank, checks the state against the DFT
column analytically, and prints the stream/batching statistics.
"""

import argparse

import numpy as np

from repro.qmpi import DiagBatch, make_backend, qmpi_run
from repro.apps.qft import dft_column, qft_program
from repro.sim import lower_flush


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", default="sharded", choices=["shared", "sharded"])
    ap.add_argument("--qubits", type=int, default=6, help="qubits per rank")
    ap.add_argument("--ranks", type=int, default=2, help="quantum ranks")
    args = ap.parse_args()

    # Prebuild the backend so one spy counts what all ranks dispatch.
    backend = make_backend(args.backend, seed=0, n_ranks=args.ranks)
    batches = []
    n_total = args.ranks * args.qubits
    orig = backend.apply_flush

    def spy(rank, ops):
        # apply_flush lowers (or cache-replays) internally; re-run the
        # same lowering here to record what each flush dispatched.
        ops = tuple(ops)
        batches.append(tuple(lower_flush(ops, n_total)))
        return orig(rank, ops)

    backend.apply_flush = spy
    world = qmpi_run(args.ranks, qft_program, args=(args.qubits, 3), backend=backend)
    backend.apply_flush = orig

    values = [(3 + r) % (1 << args.qubits) for r in range(args.ranks)]
    qft_gates = args.qubits * (args.qubits + 1) // 2 + args.qubits // 2
    issued = sum(qft_gates + bin(x).count("1") for x in values)
    n_ops = sum(len(b) for b in batches)
    n_diag = sum(1 for b in batches for op in b if isinstance(op, DiagBatch))
    # The ranks never communicate, so the global state is the product of
    # the per-rank DFT columns (in qubit-allocation order).
    order = [qb for q in world.results for qb in q]
    expected = np.array([1.0])
    for x in values:
        expected = np.kron(expected, dft_column(args.qubits, x))
    vec = world.backend.statevector(order)
    err = float(np.max(np.abs(vec - expected)))
    inputs = ", ".join(f"|{x}>" for x in values)
    print(f"{args.ranks} ranks QFT'd {inputs} on '{args.backend}': "
          f"{issued} issued gates -> {n_ops} dispatched ops "
          f"({n_diag} DiagBatch)")
    print(f"global state vs DFT columns: max |amp error| = {err:.2e}")
    assert err < 1e-9, "QFT output does not match the DFT columns"
    assert n_diag > 0, "expected coalesced DiagBatch dispatch"
    print("\nEvery cphase ladder coalesced into a single phase-vector "
          "multiply — no per-gate dispatch, no chunk exchange.")


if __name__ == "__main__":
    main()
