#!/usr/bin/env python
"""Quickstart — the paper's §6 example, in Python.

Two quantum ranks each allocate one qubit and call QMPI_Prepare_EPR with
the other rank; measuring both halves of the shared EPR pair always gives
the same outcome. Run:

    python examples/quickstart.py [--backend shared|sharded]

``--backend`` picks the simulation engine (README: "Simulation
backends"): ``shared`` is the paper's rank-0 state vector, ``sharded``
chunks the amplitudes across simulation ranks.
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
    args = ap.parse_args()
    for trial in range(4):
        world = qmpi_run(2, main_program, seed=trial, backend=args.backend)
        a, b = world.results
        assert a == b, "EPR halves must agree!"
        print(f"trial {trial}: both ranks measured {a}  "
              f"(EPR pairs used: {world.ledger.epr_pairs})")
    print("\nAs the paper puts it: 'Both ranks observe the same value when "
          "measuring their share of the EPR pair.'")


if __name__ == "__main__":
    main()
