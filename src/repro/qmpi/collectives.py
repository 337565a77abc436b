"""QMPI collective operations (§4.5, Table 3).

Copy-semantics collectives (bcast, gather, scatter, allgather, alltoall)
compose the fanout primitive; ``_move`` variants compose teleportation.
``reduce``/``scan`` use reversible :class:`~repro.qmpi.reductions.QuantumOp`
updates with the linear schedule of §4.6 (Table 1 resources: N-1 EPR pairs
and N-1 classical bits per qubit; the inverses cost zero EPR pairs) plus a
binomial-tree schedule exposing the memory/recompute tradeoff the paper
discusses.

Collectives whose inverse needs retained work qubits return a per-rank
*handle*; pass it to the matching ``un*`` function. This is the Python
shape of the paper's statement that scratch qubits "must be stored and
managed by the implementation until the inverse of the reduction is
applied".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from ..mpi import reduce_ops
from . import p2p
from .cat import cat_state_chain
from .qubit import Qureg, as_qureg
from .reductions import PARITY, QuantumOp

__all__ = [
    "bcast",
    "unbcast",
    "gather",
    "ungather",
    "gatherv",
    "scatter",
    "unscatter",
    "scatterv",
    "allgather",
    "unallgather",
    "alltoall",
    "unalltoall",
    "alltoallv",
    "reduce",
    "unreduce",
    "allreduce",
    "unallreduce",
    "reduce_scatter_block",
    "unreduce_scatter_block",
    "scan",
    "unscan",
    "exscan",
    "gather_move",
    "scatter_move",
    "alltoall_move",
    "BcastHandle",
    "ReduceHandle",
    "ScanHandle",
    "GatherHandle",
    "AllgatherHandle",
]


# ----------------------------------------------------------------------
# broadcast
# ----------------------------------------------------------------------
@dataclass
class BcastHandle:
    """Per-rank record of a broadcast: enough to run unbcast."""

    qubits: Qureg
    root: int
    tag: int
    algorithm: str


def bcast(qc, qubits, root: int = 0, tag: int = 0, algorithm: str = "tree") -> BcastHandle:
    """Fan out the root's qubits so every rank holds an entangled copy.

    ``qubits``: on the root, the data; elsewhere fresh |0> targets.

    Algorithms:

    * ``"tree"`` — binomial tree of sends, runtime E*ceil(log2 N), S=1
      suffices (§7.1 first construction).
    * ``"cat"`` — chain cat state + one parity measurement at the root,
      constant quantum time 2E + D_M + D_F (§7.1 optimized construction,
      Fig. 4; requires S >= 2 on internal nodes).
    """
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    qc.flush_ops()
    with qc.ledger.scope("bcast"):
        if size == 1:
            return BcastHandle(qubits, root, tag, algorithm)
        if algorithm == "tree":
            rel = (rank - root) % size
            mask = 1
            while mask < size:
                if rel < mask:
                    peer = rel + mask
                    if peer < size:
                        p2p.send(qc, qubits, (peer + root) % size, tag)
                elif rel < 2 * mask:
                    p2p.recv(qc, qubits, ((rel - mask) + root) % size, tag)
                mask <<= 1
        elif algorithm == "cat":
            for i, q in enumerate(qubits):
                _bcast_cat_one(qc, q, root, tag + i)
        else:
            raise ValueError(f"unknown bcast algorithm {algorithm!r}")
        return BcastHandle(qubits, root, tag, algorithm)


def _bcast_cat_one(qc, qubit: int, root: int, tag: int) -> None:
    rank = qc.rank
    if rank == root:
        (share,) = qc.backend.alloc(rank, 1)
        cat_state_chain(qc, share, tag)
        # Parity measurement between the data qubit and the root's cat
        # share extends the fanout to the data value (§7.1).
        m = qc.backend.measure_and_release(rank, share, control=qubit)
    else:
        cat_state_chain(qc, qubit, tag)
        m = None
    m = qc.comm.bcast(m, root=root)
    qc.ledger.record_classical(1)
    if rank != root:
        qc.backend.apply_pauli_if(rank, m, "X", qubit)


def unbcast(qc, handle: BcastHandle) -> None:
    """Uncompute all copies created by a bcast.

    Algorithm-independent: each non-root measures its copies in the X
    basis (releasing them) and the XOR of outcomes drives a Z fixup at the
    root — N-1 classical bits per qubit, zero EPR pairs (Table 1 uncopy).
    """
    rank = qc.rank
    qc.flush_ops()
    with qc.ledger.scope("unbcast"):
        if qc.size == 1:
            return
        for q in handle.qubits:
            if rank != handle.root:
                m = qc.backend.measure_and_release(rank, q, basis="X")
                qc.ledger.record_classical(1)
            else:
                m = 0
            total = qc.comm.reduce(m, reduce_ops.BXOR, root=handle.root)
            if rank == handle.root:
                qc.backend.apply_pauli_if(rank, total, "Z", q)


# ----------------------------------------------------------------------
# gather / scatter (copy semantics)
# ----------------------------------------------------------------------
@dataclass
class GatherHandle:
    root: int
    tag: int
    #: On the root: rank -> received copy register. Elsewhere: own data.
    received: dict = field(default_factory=dict)
    sent: Qureg | None = None
    move: bool = False


def gather(qc, qubits, root: int = 0, tag: int = 0) -> tuple[Qureg | None, GatherHandle]:
    """Gather entangled copies of every rank's register at the root.

    Returns ``(result, handle)``: on the root, ``result`` is the
    concatenation over ranks (the root's own block is its original data);
    elsewhere ``result`` is None.
    """
    return _gather(qc, qubits, None, root, tag, move=False, op="gather")


def gatherv(qc, qubits, counts: list[int], root: int = 0, tag: int = 0):
    """Gather with per-rank register sizes (``counts[r]`` qubits from r)."""
    return _gather(qc, qubits, counts, root, tag, move=False, op="gatherv")


def gather_move(qc, qubits, root: int = 0, tag: int = 0) -> tuple[Qureg | None, GatherHandle]:
    """Gather with move semantics: qubits teleport to the root (e.g. to
    co-locate rotation targets with magic-state factories, §4.5)."""
    return _gather(qc, qubits, None, root, tag, move=True, op="gather_move")


def _gather(qc, qubits, counts, root, tag, move, op):
    """Body of the gather family; ``counts=None`` means every rank sends
    a register the size of the caller's."""
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    if counts is None:
        counts = [len(qubits)] * size
    elif len(qubits) != counts[rank]:
        raise ValueError("register size does not match counts[rank]")
    send, recv = (p2p.send_move, p2p.recv_move) if move else (p2p.send, p2p.recv)
    qc.flush_ops()
    with qc.ledger.scope(op):
        handle = GatherHandle(root=root, tag=tag, move=move)
        if rank == root:
            blocks: list[Qureg] = []
            for src, cnt in enumerate(counts):
                if src == root:
                    blocks.append(qubits)
                    continue
                block = recv(qc, qc.backend.alloc(rank, cnt), src, tag, _op=op) if cnt else Qureg(())
                handle.received[src] = block
                blocks.append(block)
            return Qureg([q for blk in blocks for q in blk]), handle
        if len(qubits):
            send(qc, qubits, root, tag, _op=op)
        handle.sent = qubits
        return None, handle


def ungather(qc, handle: GatherHandle) -> None:
    """Inverse of gather / gatherv / gather_move: the root unreceives every
    copy (or teleports it back), sources apply Z (or receive their qubits
    back into fresh ones, recorded as ``handle.sent``)."""
    rank = qc.rank
    qc.flush_ops()
    with qc.ledger.scope("ungather"):
        if rank == handle.root:
            for src, reg in handle.received.items():
                if handle.move:
                    p2p.unrecv_move(qc, reg, src, handle.tag)
                else:
                    p2p.unrecv(qc, reg, src, handle.tag)
        elif handle.sent is not None:
            if handle.move:
                fresh = p2p.unsend_move(qc, len(handle.sent), handle.root, handle.tag)
                handle.sent = fresh
            else:
                p2p.unsend(qc, handle.sent, handle.root, handle.tag)


@dataclass
class ScatterHandle:
    root: int
    tag: int
    move: bool
    #: root: list of per-destination source registers; non-root: received.
    kept: dict = field(default_factory=dict)
    received: Qureg | None = None


def scatter(qc, qubits, recv_qubits, root: int = 0, tag: int = 0) -> tuple[Qureg, "ScatterHandle"]:
    """Scatter blocks of the root's register as entangled copies.

    On the root ``qubits`` is the full register (``size`` equal blocks);
    ``recv_qubits`` is each rank's fresh |0> target block (the root's own
    block is returned as-is without communication).
    """
    return _scatter(qc, qubits, None, recv_qubits, root, tag, move=False, op="scatter")


def scatterv(qc, qubits, counts: list[int], recv_qubits, root: int = 0, tag: int = 0):
    """Scatter with per-rank block sizes."""
    return _scatter(qc, qubits, counts, recv_qubits, root, tag, move=False, op="scatterv")


def scatter_move(qc, qubits, recv_qubits, root: int = 0, tag: int = 0):
    """Scatter with move semantics (teleport blocks out; §4.5's example of
    spreading rotation qubits across nodes for factory parallelism)."""
    return _scatter(qc, qubits, None, recv_qubits, root, tag, move=True, op="scatter_move")


def _scatter(qc, qubits, counts, recv_qubits, root, tag, move, op):
    """Body of the scatter family; ``counts=None`` means equal blocks."""
    rank, size = qc.rank, qc.size
    send, recv = (p2p.send_move, p2p.recv_move) if move else (p2p.send, p2p.recv)
    qc.flush_ops()
    with qc.ledger.scope(op):
        handle = ScatterHandle(root=root, tag=tag, move=move)
        if rank == root:
            qubits = as_qureg(qubits)
            if counts is None:
                if len(qubits) % size:
                    raise ValueError("scatter register must split into equal blocks")
                counts = [len(qubits) // size] * size
            elif len(qubits) != sum(counts):
                raise ValueError("scatterv register size != sum(counts)")
            off = list(accumulate(counts, initial=0))
            blocks = [qubits[off[dst] : off[dst + 1]] for dst in range(size)]
            for dst, block in enumerate(blocks):
                if dst != root and len(block):
                    send(qc, block, dst, tag, _op=op)
                    handle.kept[dst] = block
            handle.received = blocks[root]
            return blocks[root], handle
        recv_qubits = as_qureg(recv_qubits)
        if len(recv_qubits):
            recv(qc, recv_qubits, root, tag, _op=op)
        handle.received = recv_qubits
        return recv_qubits, handle


def unscatter(qc, handle: ScatterHandle) -> None:
    """Inverse of scatter / scatterv / scatter_move: non-roots unreceive
    (or teleport back), the root applies fixups (or receives each block
    back into fresh qubits, recorded in ``handle.kept``)."""
    rank = qc.rank
    qc.flush_ops()
    with qc.ledger.scope("unscatter"):
        if rank == handle.root:
            for dst, block in handle.kept.items():
                if handle.move:
                    handle.kept[dst] = p2p.unsend_move(qc, len(block), dst, handle.tag)
                else:
                    p2p.unsend(qc, block, dst, handle.tag)
        elif handle.move:
            p2p.unrecv_move(qc, handle.received, handle.root, handle.tag)
        else:
            p2p.unrecv(qc, handle.received, handle.root, handle.tag)


# ----------------------------------------------------------------------
# allgather / alltoall
# ----------------------------------------------------------------------
@dataclass
class AllgatherHandle:
    tag: int
    bcast_handles: list = field(default_factory=list)


def allgather(qc, qubits, tag: int = 0, algorithm: str = "tree") -> tuple[Qureg, AllgatherHandle]:
    """Every rank ends with copies of every rank's register.

    Returns a register of ``size * len(qubits)`` qubits ordered by source
    rank (own block = own original data). Implemented as one bcast per
    source (Table 3: copy resources).
    """
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    qc.flush_ops()
    with qc.ledger.scope("allgather"):
        handle = AllgatherHandle(tag=tag)
        blocks: list[Qureg] = []
        for src in range(size):
            if src == rank:
                block = qubits
            else:
                block = qc.backend.alloc(rank, len(qubits))
            h = bcast(qc, block, root=src, tag=tag + src, algorithm=algorithm)
            handle.bcast_handles.append(h)
            blocks.append(block)
        return Qureg([q for blk in blocks for q in blk]), handle


def unallgather(qc, handle: AllgatherHandle) -> None:
    """Inverse of allgather: one unbcast per source block."""
    qc.flush_ops()
    with qc.ledger.scope("unallgather"):
        for h in handle.bcast_handles:
            unbcast(qc, h)


@dataclass
class AlltoallHandle:
    tag: int
    move: bool
    #: per-source received blocks and per-destination sent blocks
    received: dict = field(default_factory=dict)
    sent: dict = field(default_factory=dict)


def alltoall(qc, qubits, tag: int = 0) -> tuple[Qureg, AlltoallHandle]:
    """Personalized exchange of entangled copies.

    ``qubits`` holds ``size`` equal blocks, block j destined for rank j.
    Returns blocks ordered by source rank; the diagonal block stays local.
    """
    return _alltoall(qc, qubits, None, tag, move=False, op="alltoall")


def alltoallv(qc, qubits, send_counts: list[int], tag: int = 0):
    """Personalized exchange with per-destination counts (copy semantics).

    ``send_counts[j]`` qubits go to rank j; the matrix of counts is
    allgathered classically so receivers know their block sizes.
    """
    return _alltoall(qc, qubits, send_counts, tag, move=False, op="alltoallv")


def alltoall_move(qc, qubits, tag: int = 0) -> tuple[Qureg, AlltoallHandle]:
    """Personalized exchange with move semantics (Table 3 in-place note)."""
    return _alltoall(qc, qubits, None, tag, move=True, op="alltoall_move")


def _alltoall(qc, qubits, send_counts, tag, move, op):
    """Body of the alltoall family; ``send_counts=None`` means equal blocks."""
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    if send_counts is None:
        if len(qubits) % size:
            raise ValueError("alltoall register must split into equal blocks")
        matrix = [[len(qubits) // size] * size] * size
    elif len(qubits) != sum(send_counts):
        raise ValueError("alltoallv register size != sum(send_counts)")
    recv = p2p.recv_move if move else p2p.recv
    qc.flush_ops()
    with qc.ledger.scope(op):
        if send_counts is not None:
            matrix = qc.comm.allgather(list(send_counts))
        handle = AlltoallHandle(tag=tag, move=move)
        off = list(accumulate(matrix[rank], initial=0))
        out_blocks: dict[int, Qureg] = {rank: qubits[off[rank] : off[rank + 1]]}
        # Post all sends non-blocking, then collect receives: the quantum
        # analogue of the classical eager exchange, deadlock-free.
        send_reqs = []
        for dst in range(size):
            if dst == rank:
                continue
            block = qubits[off[dst] : off[dst + 1]]
            handle.sent[dst] = block
            if len(block):
                send_reqs.append(p2p.isend(qc, block, dst, tag, move=move, _op=op))
        for src in range(size):
            if src == rank:
                continue
            cnt = matrix[src][rank]
            target = recv(qc, qc.backend.alloc(rank, cnt), src, tag, _op=op) if cnt else Qureg(())
            handle.received[src] = target
            out_blocks[src] = target
        for req in send_reqs:
            req.wait()
        return Qureg([q for s in range(size) for q in out_blocks[s]]), handle


def unalltoall(qc, handle: AlltoallHandle) -> None:
    """Inverse of alltoall / alltoallv / alltoall_move: every received
    block is unreceived (or teleported back), every sent block gets its
    fixups (or comes back into fresh qubits, recorded in ``handle.sent``)."""
    qc.flush_ops()
    with qc.ledger.scope("unalltoall"):
        if not handle.move:
            for src, reg in handle.received.items():
                p2p.unrecv(qc, reg, src, handle.tag)
            for dst, reg in handle.sent.items():
                p2p.unsend(qc, reg, dst, handle.tag)
            return
        # Post the return moves non-blocking, as the forward exchange does:
        # a blocking move to every peer first leaves each rank waiting in
        # its own send.
        reqs = [
            p2p.isend(qc, reg, src, handle.tag, move=True, _op="unrecv_move")
            for src, reg in handle.received.items()
        ]
        for dst, reg in handle.sent.items():
            handle.sent[dst] = p2p.unsend_move(qc, len(reg), dst, handle.tag)
        for req in reqs:
            req.wait()


# ----------------------------------------------------------------------
# reduce / allreduce / reduce_scatter
# ----------------------------------------------------------------------
@dataclass
class ReduceHandle:
    root: int
    tag: int
    op: QuantumOp
    schedule: str
    out: Qureg | None
    #: root: rank -> retained fanned-in copy register (the §4.6 work
    #: qubits that make unreduce EPR-free).
    copies: dict = field(default_factory=dict)
    own: Qureg | None = None
    #: tree schedule: (peer, partial register) bookkeeping per rank.
    tree_log: list = field(default_factory=list)
    acc: Qureg | None = None


def reduce(
    qc,
    qubits,
    out=None,
    op: QuantumOp = PARITY,
    root: int = 0,
    tag: int = 0,
    schedule: str = "linear",
) -> tuple[Qureg | None, ReduceHandle]:
    """Reversible reduction of every rank's register into ``out`` at root.

    ``out``: fresh |0> register on the root (allocated when None).
    All input registers are preserved (copy semantics); the handle retains
    the fanned-in copies so :func:`unreduce` needs no EPR pairs (Table 1:
    reduce N-1 EPR / N-1 bits, unreduce 0 EPR / N-1 bits per qubit).
    """
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    qc.flush_ops()
    with qc.ledger.scope("reduce"):
        if schedule == "linear":
            handle = ReduceHandle(root, tag, op, schedule, None)
            if rank == root:
                if out is None:
                    out = qc.backend.alloc(rank, len(qubits))
                out = as_qureg(out)
                op.apply(qc, qubits, out)
                handle.own = qubits
                for src in range(size):
                    if src == root:
                        continue
                    copy = qc.backend.alloc(rank, len(qubits))
                    p2p.recv(qc, copy, src, tag, _op="reduce")
                    op.apply(qc, copy, out)
                    handle.copies[src] = copy
                handle.out = out
                return out, handle
            p2p.send(qc, qubits, root, tag, _op="reduce")
            handle.own = qubits
            return None, handle
        if schedule == "tree":
            return _reduce_tree(qc, qubits, out, op, root, tag)
        raise ValueError(f"unknown reduce schedule {schedule!r}")


def _reduce_tree(qc, qubits, out, op, root, tag):
    """Binomial-tree reduce: log-depth combining.

    Each participating rank accumulates into a local register, receiving
    partial results from peers. Intermediate partials are retained as work
    qubits (more memory than linear — §4.6's stated tradeoff), making the
    inverse EPR-free here too.
    """
    rank, size = qc.rank, qc.size
    rel = (rank - root) % size
    handle = ReduceHandle(root, tag, op, "tree", None)
    acc = qc.backend.alloc(rank, len(qubits))
    op.apply(qc, qubits, acc)
    handle.own = qubits
    handle.acc = acc
    mask = 1
    while mask < size:
        if rel & mask:
            dst = ((rel - mask) + root) % size
            p2p.send(qc, acc, dst, tag, _op="reduce")
            handle.tree_log.append(("sent", dst))
            break
        peer = rel + mask
        if peer < size:
            src = (peer + root) % size
            copy = qc.backend.alloc(rank, len(qubits))
            p2p.recv(qc, copy, src, tag, _op="reduce")
            op.apply(qc, copy, acc)
            handle.copies[src] = copy
            handle.tree_log.append(("recv", src))
        mask <<= 1
    if rank == root:
        handle.out = acc
        return acc, handle
    return None, handle


def unreduce(qc, handle: ReduceHandle) -> None:
    """Uncompute a reduction: zero EPR pairs, N-1 classical bits/qubit."""
    rank = qc.rank
    qc.flush_ops()
    with qc.ledger.scope("unreduce"):
        if handle.schedule == "linear":
            if rank == handle.root:
                for src, copy in handle.copies.items():
                    handle.op.unapply(qc, copy, handle.out)
                    p2p.unrecv(qc, copy, src, handle.tag)
                handle.op.unapply(qc, handle.own, handle.out)
                qc.backend.free(rank, handle.out)
            else:
                p2p.unsend(qc, handle.own, handle.root, handle.tag)
            return
        # tree schedule: unwind in reverse order of the combining log.
        for kind, peer in reversed(handle.tree_log):
            if kind == "recv":
                copy = handle.copies[peer]
                handle.op.unapply(qc, copy, handle.acc)
                p2p.unrecv(qc, copy, peer, handle.tag)
            else:
                p2p.unsend(qc, handle.acc, peer, handle.tag)
        handle.op.unapply(qc, handle.own, handle.acc)
        qc.backend.free(rank, handle.acc)


def allreduce(
    qc, qubits, op: QuantumOp = PARITY, tag: int = 0, schedule: str = "linear"
) -> tuple[Qureg, "AllreduceHandle"]:
    """Reduce to rank 0 then broadcast the result register (Table 3:
    reduce + copy). Every rank gets an entangled copy of the result."""
    qc.flush_ops()
    with qc.ledger.scope("allreduce"):
        res, rh = reduce(qc, qubits, None, op, 0, tag, schedule)
        if qc.rank == 0:
            reg = res
        else:
            reg = qc.backend.alloc(qc.rank, len(as_qureg(qubits)))
        bh = bcast(qc, reg, root=0, tag=tag + 1)
        return reg, AllreduceHandle(rh, bh)


@dataclass
class AllreduceHandle:
    reduce_handle: ReduceHandle
    bcast_handle: BcastHandle


def unallreduce(qc, handle: AllreduceHandle) -> None:
    """Inverse of allreduce: unbcast the result, then unreduce."""
    qc.flush_ops()
    with qc.ledger.scope("unallreduce"):
        unbcast(qc, handle.bcast_handle)
        unreduce(qc, handle.reduce_handle)


def reduce_scatter_block(
    qc, qubits, op: QuantumOp = PARITY, tag: int = 0
) -> tuple[Qureg, list]:
    """Each rank contributes ``size`` blocks; rank j receives the reduction
    of everyone's block j (Table 3: reduce resources)."""
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    if len(qubits) % size:
        raise ValueError("reduce_scatter register must split into equal blocks")
    blk = len(qubits) // size
    qc.flush_ops()
    with qc.ledger.scope("reduce_scatter_block"):
        handles = []
        result: Qureg | None = None
        for dst in range(size):
            block = qubits[dst * blk : (dst + 1) * blk]
            res, h = reduce(qc, block, None, op, dst, tag + dst)
            handles.append(h)
            if dst == rank:
                result = res
        return result, handles


def unreduce_scatter_block(qc, handles: list) -> None:
    """Inverse of reduce_scatter_block: unreduce every block, last first."""
    qc.flush_ops()
    with qc.ledger.scope("unreduce_scatter_block"):
        for h in reversed(handles):
            unreduce(qc, h)


# ----------------------------------------------------------------------
# scan / exscan
# ----------------------------------------------------------------------
@dataclass
class ScanHandle:
    tag: int
    op: QuantumOp
    inclusive: bool
    out: Qureg
    #: carry register fanned in from rank-1 (work qubits; None on rank 0)
    carry: Qureg | None
    #: this rank's own input register (needed for the unscan fixups)
    own: Qureg


def scan(
    qc, qubits, out=None, op: QuantumOp = PARITY, tag: int = 0
) -> tuple[Qureg, ScanHandle]:
    """Inclusive reversible prefix reduction (linear carry chain, §4.6).

    Rank r's ``out`` register ends as op-fold of ranks 0..r. Resources per
    qubit: N-1 EPR pairs, N-1 classical bits (Table 1 scan).
    """
    return _scan_impl(qc, qubits, out, op, tag, inclusive=True)


def exscan(
    qc, qubits, out=None, op: QuantumOp = PARITY, tag: int = 0
) -> tuple[Qureg, ScanHandle]:
    """Exclusive prefix reduction: rank r gets the fold of ranks 0..r-1
    (rank 0's out stays |0>)."""
    return _scan_impl(qc, qubits, out, op, tag, inclusive=False)


def _scan_impl(qc, qubits, out, op, tag, inclusive):
    qubits = as_qureg(qubits)
    rank, size = qc.rank, qc.size
    name = "scan" if inclusive else "exscan"
    qc.flush_ops()
    with qc.ledger.scope(name):
        if out is None:
            out = qc.backend.alloc(rank, len(qubits))
        out = as_qureg(out)
        carry: Qureg | None = None
        if rank > 0:
            carry = qc.backend.alloc(rank, len(qubits))
            p2p.recv(qc, carry, rank - 1, tag, _op=name)
            op.apply(qc, carry, out)
        if inclusive:
            op.apply(qc, qubits, out)
        if rank + 1 < size:
            # Forward the cumulative value: fan out a register that holds
            # carry ⊕ own. Compute it into the carry copy (reversible),
            # send, then restore so the handle retains the clean carry.
            if carry is not None:
                op.apply(qc, qubits, carry)
                p2p.send(qc, carry, rank + 1, tag, _op=name)
                op.unapply(qc, qubits, carry)
            else:
                p2p.send(qc, qubits, rank + 1, tag, _op=name)
        return out, ScanHandle(tag, op, inclusive, out, carry, qubits)


def unscan(qc, handle: ScanHandle) -> None:
    """Uncompute a scan/exscan: zero EPR pairs, N-1 bits per qubit.

    The unfanout chain runs from the *last* rank backwards: each rank
    uncomputes its out register locally, then unreceives its carry copy
    (which requires the downstream rank to have finished first — the
    classical fixup bits provide that ordering).
    """
    rank, size = qc.rank, qc.size
    name = "unscan" if handle.inclusive else "unexscan"
    qc.flush_ops()
    with qc.ledger.scope(name):
        if handle.inclusive:
            handle.op.unapply(qc, handle.own, handle.out)
        if handle.carry is not None:
            handle.op.unapply(qc, handle.carry, handle.out)
        qc.backend.free(rank, handle.out)
        # Unfanout the carry chain: the copy at rank r was fanned out by
        # rank r-1 from a register that was then restored; the value it
        # holds is entangled with ranks < r. X-basis measure + Z fixup at
        # the sender's side. Must run downstream-first.
        if rank + 1 < size:
            # Wait for downstream's unfanout fixup of the value we sent.
            _apply_downstream_fixup(qc, handle, rank)
        if handle.carry is not None:
            p2p.unrecv(qc, handle.carry, rank - 1, handle.tag)


def _apply_downstream_fixup(qc, handle: ScanHandle, rank: int) -> None:
    # The register we fanned to rank+1 was 'carry ⊕ own' (or 'own' at rank
    # 0), temporarily materialized during scan. Its copy downstream is
    # being unreceived; the Z fixup lands on our registers: recompute the
    # combined register, unsend into it, then restore.
    if handle.carry is not None:
        handle.op.apply(qc, handle.own, handle.carry)
        p2p.unsend(qc, handle.carry, rank + 1, handle.tag)
        handle.op.unapply(qc, handle.own, handle.carry)
    else:
        p2p.unsend(qc, handle.own, rank + 1, handle.tag)

