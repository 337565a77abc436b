#!/usr/bin/env python
"""Quickstart — the paper's §6 example, in Python.

Two quantum ranks each allocate one qubit and call QMPI_Prepare_EPR with
the other rank; measuring both halves of the shared EPR pair always gives
the same outcome. Run:

    python examples/quickstart.py [--backend shared|sharded] [--workers N]

``--backend`` picks the simulation engine (README: "Simulation
backends"): ``shared`` is the paper's rank-0 state vector, ``sharded``
chunks the amplitudes across simulation ranks. ``--workers N`` (sharded
only) adds the opt-in process-parallel chunk executor — N persistent
worker processes updating the chunks through shared memory; it needs N
real CPU cores to pay off and is a no-op for a workload this small, but
exercises the full path end to end.
"""

import argparse

from repro.qmpi import qmpi_run


def main_program(qc):
    qubit = qc.alloc_qmem(1)  # QMPI_Alloc_qmem(1)
    rank = qc.rank
    dest = 1 if rank == 0 else 0
    # prepare EPR pair between rank and dest
    qc.prepare_epr(qubit[0], dest, 0)
    # measure the local qubit
    res = qc.measure(qubit[0])
    print(f"{rank}: {res}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", default="shared", choices=["shared", "sharded"],
                    help="simulation engine (see README: Simulation backends)")
    ap.add_argument("--workers", type=int, default=0, metavar="N",
                    help="chunk worker processes for the sharded engine "
                         "(0 = serial; needs N real cores to pay off)")
    args = ap.parse_args()
    if args.workers and args.backend != "sharded":
        ap.error("--workers requires --backend sharded")
    backend_kw = {"workers": args.workers} if args.workers else {}
    for trial in range(4):
        world = qmpi_run(2, main_program, seed=trial, backend=args.backend,
                         **backend_kw)
        a, b = world.results
        assert a == b, "EPR halves must agree!"
        print(f"trial {trial}: both ranks measured {a}  "
              f"(EPR pairs used: {world.ledger.epr_pairs})")
        world.backend.close()
    print("\nAs the paper puts it: 'Both ranks observe the same value when "
          "measuring their share of the EPR pair.'")


if __name__ == "__main__":
    main()
