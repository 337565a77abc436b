"""The three distributed parity-rotation circuits of Fig. 6 as runnable
QMPI programs.

All three implement ``exp(-i t Z_0 Z_1 ... Z_{k-1})`` over one data qubit
per rank; the integration tests verify state equivalence against the
dense ``expm`` reference, and the ledger records the EPR/classical-bit
tradeoffs the paper derives:

=============  =========  ==========================
method         EPR pairs  SENDQ delay
=============  =========  ==========================
in-place       2(k-1)     2 E ceil(log2 k) + D_R
out-of-place   k-1 (*)    E k + D_R
const-depth    k-1 (*)    2 E + D_R
=============  =========  ==========================

(*) with the ancilla colocated on a participating rank (Fig. 7's
convention; a dedicated ancilla node adds one more pair).
"""

from __future__ import annotations

from ..qmpi.api import QmpiComm
from ..qmpi.cat import cat_state_chain

__all__ = [
    "distributed_cnot_control",
    "distributed_cnot_target",
    "rotate_parity_inplace",
    "rotate_parity_outofplace",
    "rotate_parity_constdepth",
]


def distributed_cnot_control(qc: QmpiComm, ctrl: int, target_rank: int, tag: int = 0) -> None:
    """Control side of a distributed CNOT: fan the control out, then
    uncompute the remote copy after the target applied its local CNOT."""
    qc.send(ctrl, target_rank, tag)
    qc.unsend(ctrl, target_rank, tag)


def distributed_cnot_target(qc: QmpiComm, target: int, control_rank: int, tag: int = 0) -> None:
    """Target side: receive the control copy, CNOT locally, return it."""
    (copy,) = qc.alloc_qmem(1)
    qc.recv(copy, control_rank, tag)
    qc.cnot(copy, target)
    qc.unrecv(copy, control_rank, tag)


def rotate_parity_inplace(qc: QmpiComm, qubit: int, theta: float, tag: int = 0) -> None:
    """Fig. 6(a): binary-tree in-place parity, Rz on the top rank, then
    the mirrored uncompute. 2(k-1) EPR pairs."""
    size, rank = qc.size, qc.rank
    with qc.ledger.scope("fig6a"):
        ladders = _tree_ladders(size)
        for lo, hi in ladders:
            _dcnot(qc, qubit, rank, lo, hi, tag)
        if rank == size - 1:  # the tree's survivor holds the full parity
            qc.rz(qubit, theta)
        qc.barrier()
        for lo, hi in reversed(ladders):
            _dcnot(qc, qubit, rank, lo, hi, tag + 1)


def _tree_ladders(size: int) -> list[tuple[int, int]]:
    """Pairing schedule: adjacent active ranks merge, higher survives."""
    ladders = []
    active = list(range(size))
    while len(active) > 1:
        nxt = []
        for i in range(0, len(active) - 1, 2):
            ladders.append((active[i], active[i + 1]))
            nxt.append(active[i + 1])
        if len(active) % 2:
            nxt.append(active[-1])
        active = nxt
    return ladders


def _dcnot(qc: QmpiComm, qubit: int, rank: int, lo: int, hi: int, tag: int) -> None:
    if rank == lo:
        distributed_cnot_control(qc, qubit, hi, tag)
    elif rank == hi:
        distributed_cnot_target(qc, qubit, lo, tag)


def rotate_parity_outofplace(qc: QmpiComm, qubit: int, theta: float, aux_rank: int | None = None, tag: int = 0) -> None:
    """Fig. 6(b): serial distributed CNOTs into an ancilla on ``aux_rank``
    (default: the last rank, colocated with its data qubit); uncompute is
    classical-only (X-basis measurement + Z on every data qubit)."""
    size, rank = qc.size, qc.rank
    aux_rank = size - 1 if aux_rank is None else aux_rank
    with qc.ledger.scope("fig6b"):
        anc = None
        if rank == aux_rank:
            (anc,) = qc.alloc_qmem(1)
        for src in range(size):
            if src == aux_rank:
                continue
            if rank == src:
                distributed_cnot_control(qc, qubit, aux_rank, tag)
            elif rank == aux_rank:
                distributed_cnot_target(qc, anc, src, tag)
        m = None
        if rank == aux_rank:
            qc.cnot(qubit, anc)  # own contribution, local
            qc.rz(anc, theta)
            qc.h(anc)
            m = qc.measure_and_release(anc)
        m = qc.bits.bcast(m, 1, root=aux_rank)
        if m:
            qc.z(qubit)


def rotate_parity_constdepth(qc: QmpiComm, qubit: int, theta: float, tag: int = 0) -> None:
    """Fig. 6(c): constant-depth via a cat state.

    1. cat state across all ranks (k-1 EPR pairs, 2 rounds of E);
    2. CZ(data_i, share_i) on every rank kicks the joint parity into the
       cat's phase;
    3. unfanout the cat onto rank 0's share (X-basis measurements, XOR
       fixup), leaving H|parity>;
    4. rank 0: H, Rz(theta), H, X-basis measurement; broadcast the
       outcome; everyone applies Z to their data qubit on outcome 1.
    """
    rank = qc.rank
    with qc.ledger.scope("fig6c"):
        (share,) = qc.alloc_qmem(1)
        cat_state_chain(qc, share, tag)
        qc.cz(qubit, share)
        if rank != 0:
            qc.h(share)
            m = qc.measure_and_release(share)
        else:
            m = 0
        par = qc.bits.reduce(m, 1, root=0)
        m2 = None
        if rank == 0:
            if par:
                qc.z(share)
            qc.h(share)  # share now holds |parity>
            qc.rz(share, theta)
            qc.h(share)
            m2 = qc.measure_and_release(share)
        m2 = qc.bits.bcast(m2, 1, root=0)
        if m2:
            qc.z(qubit)
