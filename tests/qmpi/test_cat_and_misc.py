"""Cat states (Fig. 4), datatypes, persistent channels, resource ledger."""

import math

import numpy as np
import pytest

from repro.mpi import RankFailure
from repro.qmpi import (
    PersistentChannel,
    QMPI_QUBIT,
    Qureg,
    cat_state_chain,
    cat_state_tree,
    qmpi_run,
    type_contiguous,
    type_indexed,
    type_vector,
    uncat,
)
from repro.qmpi.cat import _bfs_children
from repro.qmpi.epr import EprService
from tests._precision import PROB_ABS, STATE_ATOL


@pytest.mark.parametrize("algo", ["chain", "tree"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cat_state_is_ghz(algo, n):
    def prog(qc):
        q = qc.alloc_qmem(1)
        if algo == "chain":
            cat_state_chain(qc, q[0])
        else:
            cat_state_tree(qc, q[0])
        qc.barrier()
        return q[0]

    w = qmpi_run(n, prog, seed=3)
    vec = w.backend.statevector(list(w.results))
    ideal = np.zeros(2**n, dtype=complex)
    ideal[0] = ideal[-1] = 2**-0.5
    assert abs(np.vdot(ideal, vec)) ** 2 == pytest.approx(1.0, abs=PROB_ABS)
    assert w.ledger.epr_pairs == n - 1


def test_cat_then_uncat_restores_vacuum():
    def prog(qc):
        q = qc.alloc_qmem(1)
        h = cat_state_chain(qc, q[0])
        uncat(qc, h)
        return len(qc.backend.owned_by(qc.rank))

    w = qmpi_run(4, prog, seed=0)
    assert w.results == [0, 0, 0, 0]
    assert w.backend.num_qubits == 0


def test_cat_chain_needs_s2_on_internal_nodes():
    def prog(qc):
        q = qc.alloc_qmem(1)
        cat_state_chain(qc, q[0])
        return True

    from repro.qmpi import EprBufferFull

    with pytest.raises(RankFailure) as ei:
        qmpi_run(4, prog, s_limit=1, seed=0, timeout=30)
    assert any(isinstance(e, EprBufferFull) for e in ei.value.failures.values())


def test_cat_single_rank_is_plus():
    def prog(qc):
        q = qc.alloc_qmem(1)
        cat_state_chain(qc, q[0])
        return qc.prob_one(q[0])

    assert qmpi_run(1, prog, seed=0).results[0] == pytest.approx(0.5, abs=PROB_ABS)


def _tree_merge_bits(n):
    """Merge outcomes the default binary-heap tree's non-roots hold: one
    per child of a non-root rank."""
    return sum(1 for child in range(1, n) if (child - 1) // 2 != 0)


#: (EPR pairs, classical bits) under the bit channel's cost model. The
#: chain's exscan charges ranks 0..n-2 one bit each; uncat's XOR reduce
#: charges each non-root one bit; the tree's non-root internal nodes send
#: their merge outcomes to the root, which scatters one fixup bit to each
#: non-root.
CAT_LEDGERS = {
    "chain": lambda n: (n - 1, n - 1),
    "chain+uncat": lambda n: (n - 1, 2 * (n - 1)),
    "tree": lambda n: (n - 1, _tree_merge_bits(n) + n - 1),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(CAT_LEDGERS))
def test_cat_ledger_follows_the_channel_cost_model(case, n):
    def prog(qc):
        q = qc.alloc_qmem(1)
        if case == "tree":
            cat_state_tree(qc, q[0])
        else:
            h = cat_state_chain(qc, q[0])
            if case == "chain+uncat":
                uncat(qc, h)
        return True

    snap = qmpi_run(n, prog, seed=n).ledger.snapshot()
    assert (snap.epr_pairs, snap.classical_bits) == CAT_LEDGERS[case](n)


@pytest.mark.parametrize("n,messages", [(2, 1), (3, 2), (4, 4)])
def test_cat_tree_leaves_send_nothing(n, messages):
    # A leaf holds no merge outcome, so the only messages are the non-root
    # internal nodes' outcomes and the root's fixup scatter: each carries
    # one bit per message.
    def prog(qc):
        q = qc.alloc_qmem(1)
        cat_state_tree(qc, q[0])
        return True

    snap = qmpi_run(n, prog, seed=n).ledger.snapshot()
    assert snap.classical_messages == snap.classical_bits == messages


def _random_tree(n, seed):
    """A random spanning tree of ranks 0..n-1, its edges in random order."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n)
    edges = [(int(labels[rng.integers(i)]), int(labels[i])) for i in range(1, n)]
    return [edges[k] for k in rng.permutation(len(edges))]


#: name -> (ranks, edges); None is the default binary-heap tree.
TREES = {
    "chain": (4, [(0, 1), (1, 2), (2, 3)]),
    "star@2": (4, [(2, 3), (2, 0), (2, 1)]),
    "random5": (5, _random_tree(5, 7)),
    "heap5": (5, None),
}


@pytest.mark.parametrize("root", [0, 1, 3])
@pytest.mark.parametrize("tree", sorted(TREES))
def test_cat_tree_on_explicit_edges_and_roots(tree, root):
    n, edges = TREES[tree]
    fidelity = {}

    def prog(qc):
        q = qc.alloc_qmem(1)
        h = cat_state_tree(qc, q[0], edges=edges, root=root)
        shares = qc.comm.allgather(q[0])
        if qc.rank == h.root:
            vec = qc.backend.statevector(shares)
            fidelity["ghz"] = abs(vec[0] + vec[-1]) ** 2 / 2
        qc.barrier()
        uncat(qc, h)
        return h.root, len(qc.backend.owned_by(qc.rank))

    w = qmpi_run(n, prog, seed=n)
    assert fidelity["ghz"] == pytest.approx(1.0, abs=PROB_ABS)
    assert w.ledger.epr_pairs == n - 1
    assert w.results == [(root, 0)] * n
    assert w.backend.num_qubits == 0


@pytest.mark.parametrize(
    "edges",
    [[(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3), (3, 4)]],
    ids=["split", "missing-rank", "extra-rank"],
)
def test_cat_tree_rejects_non_spanning_edges_on_every_rank(edges):
    def caught(qc):
        q = qc.alloc_qmem(1)
        try:
            cat_state_tree(qc, q[0], edges=edges)
        except ValueError as e:
            return str(e)

    assert qmpi_run(4, caught, seed=0).results == ["graph does not span all ranks"] * 4

    # Uncaught, the first ValueError aborts the job; ranks it interrupts
    # report nothing, so every reported failure is that ValueError.
    def prog(qc):
        q = qc.alloc_qmem(1)
        cat_state_tree(qc, q[0], edges=edges)

    with pytest.raises(RankFailure) as ei:
        qmpi_run(4, prog, seed=0, timeout=30)
    failures = ei.value.failures
    assert failures
    for e in failures.values():
        assert isinstance(e, ValueError) and "does not span all ranks" in str(e)


#: (edges, ranks, root) -> children in discovery order, as networkx's
#: ``bfs_tree`` orients them: neighbours in edge insertion order.
BFS_CHILDREN = [
    ([(0, 1), (1, 2), (2, 3)], 4, 2, {2: [1, 3], 1: [0], 3: [], 0: []}),
    ([(2, 3), (2, 0), (2, 1)], 4, 0, {0: [2], 2: [3, 1], 3: [], 1: []}),
    ([(2, 3), (2, 0), (2, 1)], 4, 2, {2: [3, 0, 1], 3: [], 0: [], 1: []}),
    ([(2, 0), (4, 1), (0, 4), (1, 3)], 5, 4, {4: [1, 0], 1: [3], 0: [2], 3: [], 2: []}),
    ([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)], 6, 3,
     {3: [1], 1: [0, 4], 0: [2], 4: [], 2: [5], 5: []}),
]


@pytest.mark.parametrize("edges,n,root,children", BFS_CHILDREN)
def test_cat_tree_children_follow_edge_insertion_order(edges, n, root, children):
    assert list(_bfs_children(edges, root, n).items()) == list(children.items())


#: Default tree, ``seed=n``: (epr_pairs, classical_bits,
#: classical_messages) and each rank's EPR partners in preparation order,
#: pinned from the networkx-based tree walk the plain BFS replaced.
DEFAULT_TREE_RUNS = {
    2: ((1, 1, 1), [[1], [0]]),
    3: ((2, 2, 2), [[1, 2], [0], [0]]),
    4: ((3, 4, 4), [[1, 2], [0, 3], [0], [1]]),
    5: ((4, 6, 5), [[1, 2], [0, 3, 4], [0], [1], [1]]),
    6: ((5, 8, 7), [[1, 2], [0, 3, 4], [0, 5], [1], [1], [2]]),
    7: ((6, 10, 8), [[1, 2], [0, 3, 4], [0, 5, 6], [1], [1], [2], [2]]),
}


@pytest.mark.parametrize("n", sorted(DEFAULT_TREE_RUNS))
def test_default_cat_tree_run_is_unchanged(n, monkeypatch):
    order = {r: [] for r in range(n)}
    prepare = EprService.prepare

    def recording(self, rank, qubit, peer, *args, **kwargs):
        order[rank].append(peer)
        return prepare(self, rank, qubit, peer, *args, **kwargs)

    monkeypatch.setattr(EprService, "prepare", recording)

    def prog(qc):
        q = qc.alloc_qmem(1)
        cat_state_tree(qc, q[0])
        qc.barrier()
        return q[0]

    w = qmpi_run(n, prog, seed=n)
    vec = w.backend.statevector(list(w.results))
    ideal = np.zeros(2**n, dtype=complex)
    ideal[0] = ideal[-1] = 2**-0.5
    np.testing.assert_allclose(vec, ideal, atol=STATE_ATOL)
    snap = w.ledger.snapshot()
    ledger, partners = DEFAULT_TREE_RUNS[n]
    assert (snap.epr_pairs, snap.classical_bits, snap.classical_messages) == ledger
    assert [order[r] for r in range(n)] == partners


# ----------------------------------------------------------------------
# datatypes
# ----------------------------------------------------------------------
def test_type_contiguous_extract():
    reg = Qureg(range(100, 112))
    qint4 = type_contiguous(4)
    assert list(qint4.extract(reg, 0)) == [100, 101, 102, 103]
    assert list(qint4.extract(reg, 2)) == [108, 109, 110, 111]
    assert qint4.size == 4
    with pytest.raises(IndexError):
        qint4.extract(reg, 3)


def test_type_vector_strided():
    reg = Qureg(range(12))
    vec = type_vector(count=2, blocklength=2, stride=4)
    assert list(vec.extract(reg)) == [0, 1, 4, 5]
    assert list(vec.extract(reg, 1)) == [6, 7, 10, 11]


def test_type_vector_out_of_range():
    reg = Qureg(range(8))
    vec = type_vector(count=2, blocklength=2, stride=4)
    with pytest.raises(IndexError):
        vec.extract(reg, 1)


def test_type_indexed_and_nesting():
    reg = Qureg(range(20))
    t = type_indexed([0, 3, 5])
    assert list(t.extract(reg)) == [0, 3, 5]
    nested = type_contiguous(2, base=type_contiguous(3))
    assert list(nested.extract(reg)) == [0, 1, 2, 3, 4, 5]
    assert QMPI_QUBIT.size == 1


def test_type_validation():
    with pytest.raises(ValueError):
        type_contiguous(0)
    with pytest.raises(ValueError):
        type_vector(1, 2, 1)
    with pytest.raises(ValueError):
        type_indexed([])
    with pytest.raises(ValueError):
        type_indexed([1, 1])


# ----------------------------------------------------------------------
# persistent channels (§4.7)
# ----------------------------------------------------------------------
def test_persistent_channel_zero_epr_at_send_time():
    def prog(qc):
        peer = 1 - qc.rank
        ch = PersistentChannel(qc, peer, slots=2, tag=50)
        before = qc.ledger.snapshot().epr_pairs
        if qc.rank == 0:
            q = qc.alloc_qmem(1)
            qc.ry(q[0], 0.9)
            ch.send_move(q)
            out = None
        else:
            (t,) = ch.recv_move(1)
            out = qc.prob_one(t)
        ch.drain()
        after = qc.ledger.snapshot().epr_pairs
        return (out, after - before)

    w = qmpi_run(2, prog, seed=0)
    assert w.results[1][0] == pytest.approx(math.sin(0.45) ** 2, abs=PROB_ABS)
    assert w.results[0][1] == 0 and w.results[1][1] == 0


def test_persistent_channel_copy_mode_and_refill():
    def prog(qc):
        peer = 1 - qc.rank
        ch = PersistentChannel(qc, peer, slots=1, tag=60)
        if qc.rank == 0:
            q = qc.alloc_qmem(1)
            qc.x(q[0])
            ch.send(q)
            with pytest.raises(RuntimeError):
                ch.send(q)  # pool exhausted
            ch.refill(1)
            ch.send(q)
            return None
        (a,) = ch.recv(1)
        ch.refill(1)
        (b,) = ch.recv(1)
        return (qc.measure(a), qc.measure(b))

    w = qmpi_run(2, prog, seed=0, timeout=60)
    assert w.results[1] == (1, 1)


def test_persistent_pool_respects_buffer_limit():
    from repro.qmpi import EprBufferFull

    def prog(qc):
        PersistentChannel(qc, 1 - qc.rank, slots=3, tag=70)
        return True

    with pytest.raises(RankFailure) as ei:
        qmpi_run(2, prog, s_limit=2, seed=0, timeout=30)
    assert any(isinstance(e, EprBufferFull) for e in ei.value.failures.values())


# ----------------------------------------------------------------------
# resource ledger
# ----------------------------------------------------------------------
def test_ledger_scopes_and_rows():
    def prog(qc):
        if qc.rank == 0:
            q = qc.alloc_qmem(1)
            qc.send(q, 1)
        else:
            t = qc.alloc_qmem(1)
            qc.recv(t, 0)
        qc.barrier()
        return True

    w = qmpi_run(2, prog, seed=0)
    send_row = w.ledger.row("send")
    recv_row = w.ledger.row("recv")
    assert send_row.calls == 1 and recv_row.calls == 1
    assert send_row.classical_bits == 1
    snap = w.ledger.snapshot()
    assert snap.epr_pairs == 1
    delta = snap.delta(snap)
    assert delta.epr_pairs == 0


def test_ledger_scopes_nest_per_thread_and_share_one_class():
    """Two threads each nest two scopes; every record lands on exactly
    the rows open on its own thread."""
    import threading

    from repro.qmpi.resource import Ledger, LedgerSnapshot

    ledger = Ledger()
    assert type(ledger.scope("a")) is type(ledger.scope("b"))
    both_open = threading.Barrier(2, timeout=10)

    def worker(outer, inner, pairs):
        with ledger.scope(outer) as entered:
            assert entered is ledger
            ledger.record_epr(pairs)
            with ledger.scope(inner):
                both_open.wait()  # the other thread's scopes are open too
                ledger.record_classical(pairs)
                both_open.wait()
            ledger.record_epr(pairs)

    threads = [
        threading.Thread(target=worker, args=("t0", "t0.in", 1)),
        threading.Thread(target=worker, args=("t1", "t1.in", 10)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    rows = {n: (r.epr_pairs, r.classical_bits, r.calls) for n, r in ledger.rows.items()}
    assert rows == {
        "t0": (2, 1, 1),
        "t0.in": (0, 1, 1),
        "t1": (20, 10, 1),
        "t1.in": (0, 10, 1),
    }
    assert ledger.snapshot() == LedgerSnapshot(22, 11, 2)
    assert all(not names for names in ledger._scopes.values())
