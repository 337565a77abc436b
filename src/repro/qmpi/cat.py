"""Cat-state preparation in constant quantum depth (Fig. 4, §7.1).

``|cat(n)> = (|0...0> + |1...1>)/sqrt(2)`` across ``n`` nodes is built by

1. establishing EPR pairs along the edges of a spanning tree of the
   nodes — the only quantum communication, constant rounds;
2. a local parity measurement on every internal node, merging its EPR
   halves into the growing GHZ state;
3. a classical prefix computation (MPI_Exscan for the chain of the paper;
   a gather+tree walk for general trees) telling each node whether to
   apply the Pauli-X fixup.

The result: every rank owns one qubit of the shared cat state. Quantum
time is 2E + D_M + D_F in SENDQ terms regardless of n (§7.1); classical
time is O(log n).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

__all__ = ["cat_state_chain", "cat_state_tree", "uncat", "CatHandle"]


@dataclass
class CatHandle:
    """Per-rank record of a prepared cat state (needed for uncat)."""

    qubit: int
    root: int
    tag: int


def cat_state_chain(qc, qubit: int, tag: int = 0) -> CatHandle:
    """Prepare |cat(N)> with one qubit per rank, chained rank r — r+1.

    ``qubit`` must be a fresh |0> qubit on every rank; on return it is this
    rank's share of the cat state. This is the paper's Fig. 4 construction
    with the fixup parities computed by a classical exscan.
    """
    qc.flush_ops()
    rank, size = qc.rank, qc.size
    with qc.ledger.scope("cat_chain"):
        if size == 1:
            # Degenerate cat(1) = |+>.
            qc.backend.h(rank, qubit)
            return CatHandle(qubit, 0, tag)
        # EPR halves: 'qubit' doubles as the half toward the left neighbour
        # (or the root's share); 'right' is the half toward rank+1.
        right = None
        if rank < size - 1:
            if rank == 0:
                # Root: its cat qubit IS the left half of the first pair.
                qc.epr.prepare(rank, qubit, rank + 1, tag, qc.context, _cat_dir(rank))
            else:
                (right,) = qc.backend.alloc(rank, 1)
                qc.epr.prepare(rank, right, rank + 1, tag, qc.context, _cat_dir(rank))
        if rank > 0:
            qc.epr.prepare(rank, qubit, rank - 1, tag, qc.context, _cat_dir(rank - 1))
        # Internal nodes merge: CNOT(left half -> right half), measure the
        # right half. Outcome 1 means everything right of the cut needs X.
        # The merges act on disjoint qubits and commute, but they are run
        # in rank order so the simulator consumes measurement randomness
        # in one fixed global sequence: like rank-ordered allocation, this
        # is simulator scheduling, not protocol structure — the fixup is
        # outcome-independent and the modeled quantum time stays constant.
        m = 0
        for r in range(1, size - 1):
            if rank == r:
                m = qc.backend.measure_and_release(rank, right, control=qubit)
                qc.epr.consume(rank)
            qc.barrier()
        # The kept half ('qubit') leaves the EPR buffer: it is cat data now.
        qc.epr.consume(rank)
        # Classical fixup: X on rank k iff XOR of merge outcomes at ranks
        # < k is 1 (exscan, O(log N) — Sanders & Träff).
        prefix = qc.bits.exscan(m, 1)
        qc.backend.apply_pauli_if(rank, 0 if prefix is None else prefix, "X", qubit)
        return CatHandle(qubit, 0, tag)


def _cat_dir(left_rank: int) -> int:
    # Distinct direction namespace for cat-edge EPR streams.
    return 10_000 + left_rank


def cat_state_tree(qc, qubit: int, graph: nx.Graph | None = None, root: int = 0, tag: int = 0) -> CatHandle:
    """Prepare |cat(N)> along a spanning tree of ``graph`` (default: a
    balanced binary tree over the ranks).

    Generalizes the chain: each internal node merges one EPR half per
    child. The fixup parity for node k is the XOR of merge outcomes on the
    path from the root to k, computed at the root (gather + DFS) and
    scattered back — O(log n) quantum depth is preserved since the fixup
    is purely classical.
    """
    rank, size = qc.rank, qc.size
    qc.flush_ops()
    with qc.ledger.scope("cat_tree"):
        if size == 1:
            qc.backend.h(rank, qubit)
            return CatHandle(qubit, root, tag)
        if graph is None:
            # Binary-heap tree over ranks: spans 0..size-1, max degree 3,
            # so the EPR rounds (and hence quantum depth) stay constant.
            graph = nx.Graph()
            graph.add_nodes_from(range(size))
            graph.add_edges_from(((i - 1) // 2, i) for i in range(1, size))
        tree = nx.bfs_tree(graph, root)
        if tree.number_of_nodes() != size:
            raise ValueError("graph does not span all ranks")
        parent = {c: p for p, c in tree.edges()}
        children = {n: list(tree.successors(n)) for n in tree.nodes()}

        # EPR half toward the parent lives in 'qubit' (it becomes the cat
        # share); one extra half per child.
        child_halves: dict[int, int] = {}
        if rank != root:
            qc.epr.prepare(
                rank, qubit, parent[rank], tag, qc.context, _tree_dir(parent[rank], rank)
            )
        else:
            # Root's cat share starts as the half of its first child edge.
            pass
        my_children = children.get(rank, [])
        first_child_half_is_qubit = rank == root
        for i, ch in enumerate(my_children):
            if first_child_half_is_qubit and i == 0:
                half = qubit
            else:
                (half,) = qc.backend.alloc(rank, 1)
            child_halves[ch] = half
            qc.epr.prepare(rank, half, ch, tag, qc.context, _tree_dir(rank, ch))

        # Merge all halves into the share qubit; measure the rest.
        outcomes: dict[int, int] = {}
        for ch, half in child_halves.items():
            if half == qubit:
                continue
            outcomes[ch] = qc.backend.measure_and_release(rank, half, control=qubit)
            qc.epr.consume(rank)
        # The kept half ('qubit') is cat data now; every other prepared
        # half was consumed by its merge measurement above.
        qc.epr.consume(rank)

        # Fixup: gather per-edge outcomes at root, DFS accumulating parity.
        all_outcomes = qc.bits.gather(outcomes, len(outcomes), root=root)
        if rank == root:
            fix = [0] * size
            merged: dict[int, int] = {}
            for d in all_outcomes:
                merged.update(d)

            def dfs(node: int, acc: int) -> None:
                fix[node] = acc
                for ch in children.get(node, []):
                    # A merge outcome of 1 on edge (node, ch) flips the
                    # subtree rooted at ch.
                    dfs(ch, acc ^ merged.get(ch, 0))

            dfs(root, 0)
        else:
            fix = None
        myfix = qc.bits.scatter(fix, 1, root=root)
        qc.backend.apply_pauli_if(rank, myfix, "X", qubit)
        return CatHandle(qubit, root, tag)


def _tree_dir(parent: int, child: int) -> int:
    return 20_000 + parent * 4096 + child


def uncat(qc, handle: CatHandle) -> None:
    """Disassemble a cat state, releasing every rank's share.

    Every non-root rank measures its share in the X basis and releases
    it; the XOR of those outcomes reaches the root (N-1 classical bits, no
    EPR pairs), which applies Z^parity, leaving its share in |+>, then H
    to return it to |0>, and frees it.
    """
    rank = qc.rank
    qc.flush_ops()
    with qc.ledger.scope("uncat"):
        if qc.size == 1:
            qc.backend.h(rank, handle.qubit)
            qc.backend.free(rank, handle.qubit)
            return
        if rank != handle.root:
            m = qc.backend.measure_and_release(rank, handle.qubit, basis="X")
        else:
            m = 0
        total = qc.bits.reduce(m, 1, root=handle.root)
        if rank == handle.root:
            qc.backend.apply_pauli_if(rank, total, "Z", handle.qubit)
            # Root share is now |+>; return it to |0>.
            qc.backend.h(rank, handle.qubit)
            qc.backend.free(rank, handle.qubit)
