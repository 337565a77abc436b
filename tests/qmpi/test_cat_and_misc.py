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
from tests._precision import PROB_ABS


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
#: charges each non-root one bit; the tree gathers the non-roots' merge
#: outcomes at the root and scatters one fixup bit to each non-root.
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
