"""The QMPI programs the end-to-end benchmark runs.

Module-level functions only: ``transport="mp"`` pickles the rank
function by import path, and the spawned rank processes import this
module afresh. Every program receives nothing but generated inputs
(see :mod:`workloads`), allocates in rank order, and ends on a barrier
so its op stream is flushed inside the program.
"""

from repro.apps.qft import qft
from repro.apps.tfim import tfim_time_evolution


def alloc_in_rank_order(qc, n):
    """Allocate ``n`` qubits on every rank, one rank at a time.

    Qubit ids — and with them the sharded engine's shard axes — follow
    allocation order, and concurrent ``alloc_qmem`` calls race for it:
    the same QFT ran 0.4-2.1 s depending on which thread won. One
    alloc per barrier pins the layout (README, "rank-ordered allocation").
    """
    qubits = None
    for r in range(qc.size):
        if qc.rank == r:
            qubits = qc.alloc_qmem(n)
        qc.barrier()
    return qubits


def anneal(qc, spins, couplings, time):
    """Listing 1's annealing loop: one Trotter step per coupling value."""
    qubits = alloc_in_rank_order(qc, spins)
    for q in qubits:
        qc.h(q)
    for coupling in couplings:
        tfim_time_evolution(qc, coupling, 1.0 - coupling, time, qubits, 1)
    qc.barrier()
    return list(qubits)


def qft_registers(qc, n, values):
    """Each rank prepares ``|values[rank]>`` on its own register and QFTs it."""
    qubits = alloc_in_rank_order(qc, n)
    value = values[qc.rank]
    for i, q in enumerate(qubits):
        if (value >> (n - 1 - i)) & 1:
            qc.x(q)
    qft(qc, qubits)
    qc.barrier()
    return list(qubits)


def sweep(qc, n, angles):
    """One ry/cnot/crz layer per row of ``angles``, flushed after each.

    No two single-qubit gates meet on a qubit inside a flush, so the
    stream's peephole fusion leaves the buffer's structure independent
    of the angles: every flush after the first is a schedule-cache hit.
    """
    qubits = alloc_in_rank_order(qc, n)
    for row in angles:
        for i, q in enumerate(qubits):
            qc.ry(q, row[i])
        for i in range(n - 1):
            qc.cnot(qubits[i], qubits[i + 1])
        for i in range(n // 2):
            qc.crz(qubits[2 * i], qubits[2 * i + 1], row[n + i])
        qc.flush_ops()
    qc.barrier()
    return list(qubits)


def cat_broadcast(qc, thetas):
    """§7.1: rank 0 rotates, cat-state broadcast, every rank measures.

    Returns this rank's per-shot bits, one integer array per round.
    """
    (q,) = alloc_in_rank_order(qc, 1)
    bits = []
    for theta in thetas:
        if qc.rank == 0:
            qc.ry(q, theta)
        qc.bcast([q], root=0, algorithm="cat")
        qc.barrier()
        m = qc.measure(q)
        qc.backend.apply_pauli_if(qc.rank, m, "X", q)  # back to |0> for the next round
        bits.append(m.values)
        qc.barrier()
    return bits


#: Workload kind (see :mod:`workloads`) -> rank function.
PROGRAMS = {
    "anneal": anneal,
    "qft": qft_registers,
    "sweep": sweep,
    "catbcast": cat_broadcast,
}
