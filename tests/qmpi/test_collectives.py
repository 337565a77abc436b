"""QMPI collectives: functional correctness + Table 1/3 resources."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.qmpi import PARITY, SUM, qmpi_run
from tests._precision import PROB_ABS


@pytest.mark.parametrize("algorithm", ["tree", "cat"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bcast_unbcast(algorithm, n):
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 0:
            qc.ry(q[0], 0.6)
        h = qc.bcast(q, root=0, algorithm=algorithm)
        p = qc.prob_one(q[0])
        qc.unbcast(h)
        after = qc.prob_one(q[0]) if qc.rank == 0 else None
        return (p, after)

    w = qmpi_run(n, prog, seed=5)
    for p, _ in w.results:
        assert p == pytest.approx(math.sin(0.3) ** 2, abs=PROB_ABS)
    assert w.results[0][1] == pytest.approx(math.sin(0.3) ** 2, abs=PROB_ABS)
    # N-1 EPR pairs per broadcast qubit, independent of algorithm
    assert w.ledger.snapshot().epr_pairs == n - 1


def test_bcast_nonzero_root():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 2:
            qc.x(q[0])
        qc.bcast(q, root=2, algorithm="tree")
        return round(qc.prob_one(q[0]))

    assert qmpi_run(4, prog, seed=0).results == [1, 1, 1, 1]


@pytest.mark.parametrize("schedule", ["linear", "tree"])
def test_reduce_parity_and_unreduce(schedule):
    bits = [0, 1, 1, 0]

    def prog(qc):
        q = qc.alloc_qmem(1)
        if bits[qc.rank]:
            qc.x(q[0])
        out, h = qc.reduce(q, op=PARITY, root=0, schedule=schedule)
        res = round(qc.prob_one(out[0])) if qc.rank == 0 else None
        qc.unreduce(h)
        return (res, round(qc.prob_one(q[0])))

    w = qmpi_run(4, prog, seed=1)
    assert w.results[0][0] == 0  # parity of 0,1,1,0
    assert [r[1] for r in w.results] == bits  # inputs restored
    snap = w.ledger.snapshot()
    assert snap.epr_pairs == 3  # Table 1: N-1 for reduce, 0 for unreduce


def test_reduce_parity_odd():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank != 1:
            qc.x(q[0])
        out, h = qc.reduce(q, op=PARITY, root=2)
        res = round(qc.prob_one(out[0])) if qc.rank == 2 else None
        qc.unreduce(h)
        return res

    assert qmpi_run(3, prog, seed=2).results[2] == 0  # two ones -> 0
    # parity 1 case

    def prog1(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 0:
            qc.x(q[0])
        out, h = qc.reduce(q, op=PARITY, root=2)
        res = round(qc.prob_one(out[0])) if qc.rank == 2 else None
        qc.unreduce(h)
        return res

    assert qmpi_run(3, prog1, seed=2).results[2] == 1


def test_reduce_sum_registers():
    vals = [3, 5, 6]

    def prog(qc):
        q = qc.alloc_qmem(3)
        for i in range(3):
            if (vals[qc.rank] >> i) & 1:
                qc.x(q[i])
        out, h = qc.reduce(q, op=SUM, root=0)
        res = None
        if qc.rank == 0:
            res = sum(round(qc.prob_one(out[i])) << i for i in range(3))
        qc.unreduce(h)
        back = sum(round(qc.prob_one(q[i])) << i for i in range(3))
        return (res, back)

    w = qmpi_run(3, prog, seed=9)
    assert w.results[0][0] == (3 + 5 + 6) % 8
    assert [r[1] for r in w.results] == vals


def test_allreduce_and_unallreduce():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank != 1:
            qc.x(q[0])
        reg, h = qc.allreduce(q, op=PARITY)
        v = round(qc.prob_one(reg[0]))
        qc.unallreduce(h)
        return v

    w = qmpi_run(3, prog, seed=0)
    assert w.results == [0, 0, 0]


def test_reduce_scatter_block():
    def prog(qc):
        n = qc.size
        q = qc.alloc_qmem(n)
        qc.x(q[qc.rank])
        res, hs = qc.reduce_scatter_block(q, op=PARITY)
        v = round(qc.prob_one(res[0]))
        qc.unreduce_scatter_block(hs)
        return v

    assert qmpi_run(3, prog, seed=0, timeout=60).results == [1, 1, 1]


def test_scan_exscan_and_inverse():
    bits = [1, 1, 0, 1]

    def prog(qc, inclusive):
        q = qc.alloc_qmem(1)
        if bits[qc.rank]:
            qc.x(q[0])
        if inclusive:
            out, h = qc.scan(q, op=PARITY)
        else:
            out, h = qc.exscan(q, op=PARITY)
        p = round(qc.prob_one(out[0]))
        qc.unscan(h)
        back = round(qc.prob_one(q[0]))
        return (p, back)

    w = qmpi_run(4, prog, args=(True,), seed=4)
    assert [r[0] for r in w.results] == [1, 0, 0, 1]
    assert [r[1] for r in w.results] == bits
    snap = w.ledger.snapshot()
    assert snap.epr_pairs == 3  # Table 1: scan N-1, unscan 0

    w = qmpi_run(4, prog, args=(False,), seed=4)
    assert [r[0] for r in w.results] == [0, 1, 0, 0]


def test_gather_scatter_roundtrip():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank % 2:
            qc.x(q[0])
        out, h = qc.gather(q, root=0)
        vals = [round(qc.prob_one(x)) for x in out] if qc.rank == 0 else None
        qc.ungather(h)
        return vals

    w = qmpi_run(3, prog, seed=0)
    assert w.results[0] == [0, 1, 0]


def test_gather_move_collects_rotation_qubits():
    # §4.5's scatter/gather_move use case
    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.ry(q[0], 0.4 * (qc.rank + 1))
        out, h = qc.gather_move(q, root=0)
        if qc.rank == 0:
            return [qc.prob_one(x) for x in out]
        return None

    w = qmpi_run(3, prog, seed=0)
    for i, p in enumerate(w.results[0]):
        assert p == pytest.approx(math.sin(0.2 * (i + 1)) ** 2, abs=PROB_ABS)


def test_scatter_and_unscatter():
    def prog(qc):
        n = qc.size
        if qc.rank == 0:
            reg = qc.alloc_qmem(n)
            for i in range(n):
                if i % 2:
                    qc.x(reg[i])
            mine, h = qc.scatter(reg, None, root=0)
        else:
            t = qc.alloc_qmem(1)
            mine, h = qc.scatter(None, t, root=0)
        v = round(qc.prob_one(mine[0]))
        qc.unscatter(h)
        return v

    assert qmpi_run(4, prog, seed=0).results == [0, 1, 0, 1]


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_scatter_move_and_unscatter(backend):
    # unscatter teleports each block back into fresh root qubits and
    # records them in the handle; the teleported-away ids are gone.
    def prog(qc):
        n = qc.size
        if qc.rank == 0:
            reg = qc.alloc_qmem(n)
            for i in range(n):
                qc.ry(reg[i], 0.3 * (i + 1))
            mine, h = qc.scatter_move(reg, None, root=0)
        else:
            mine, h = qc.scatter_move(None, qc.alloc_qmem(1), root=0)
        p = qc.prob_one(mine[0])
        qc.unscatter(h)
        if qc.rank:
            return p, len(qc.backend.owned_by(qc.rank))
        back = [mine[0]] + [q for dst in sorted(h.kept) for q in h.kept[dst]]
        assert not set(back[1:]) & set(reg)
        return [qc.prob_one(q) for q in back], len(qc.backend.owned_by(0))

    w = qmpi_run(3, prog, seed=0, backend=backend)
    expected = [math.sin(0.15 * (i + 1)) ** 2 for i in range(3)]
    assert w[0][0] == pytest.approx(expected, abs=PROB_ABS)
    assert w[0][1] == 3
    for r in (1, 2):
        assert w[r] == (pytest.approx(expected[r], abs=PROB_ABS), 0)


def test_scatterv_gatherv_variable_counts():
    counts = [2, 0, 1]

    def prog(qc):
        if qc.rank == 0:
            reg = qc.alloc_qmem(3)
            qc.x(reg[2])  # rank 2's block = |1>
            mine, h = qc.scatterv(reg, counts, None, root=0)
        else:
            t = qc.alloc_qmem(counts[qc.rank]) if counts[qc.rank] else ()
            mine, h = qc.scatterv(None, counts, t, root=0)
        vals = [round(qc.prob_one(x)) for x in mine]
        qc.unscatterv(h)
        # now gatherv them back (fresh values)
        q2 = qc.alloc_qmem(counts[qc.rank]) if counts[qc.rank] else ()
        for x in q2:
            qc.x(x)
        out, h2 = qc.gatherv(q2, counts, root=0)
        total = [round(qc.prob_one(x)) for x in out] if qc.rank == 0 else None
        qc.ungatherv(h2)
        return (vals, total)

    w = qmpi_run(3, prog, seed=0, timeout=60)
    assert w.results[0][0] == [0, 0]
    assert w.results[2][0] == [1]
    assert w.results[0][1] == [1, 1, 1]


def test_allgather_and_inverse():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank % 2:
            qc.x(q[0])
        reg, h = qc.allgather(q)
        vals = [round(qc.prob_one(x)) for x in reg]
        qc.unallgather(h)
        return vals

    w = qmpi_run(3, prog, seed=6, timeout=60)
    assert all(v == [0, 1, 0] for v in w.results)


@pytest.mark.parametrize("move", [False, True])
def test_alltoall(move):
    def prog(qc):
        n = qc.size
        q = qc.alloc_qmem(n)
        for j in range(n):
            if (qc.rank + j) % 2:
                qc.x(q[j])
        if move:
            reg, h = qc.alltoall_move(q)
        else:
            reg, h = qc.alltoall(q)
        vals = [round(qc.prob_one(x)) for x in reg]
        qc.unalltoall(h)
        return vals

    w = qmpi_run(3, prog, seed=6, timeout=90)
    for r, vals in enumerate(w.results):
        assert vals == [(i + r) % 2 for i in range(3)]


def test_alltoallv_variable():
    send_counts = {0: [1, 1, 0], 1: [0, 1, 1], 2: [1, 0, 1]}

    def prog(qc):
        counts = send_counts[qc.rank]
        q = qc.alloc_qmem(sum(counts))
        for x in q:
            if qc.rank == 1:
                qc.x(x)
        reg, h = qc.alltoallv(q, counts)
        vals = [round(qc.prob_one(x)) for x in reg]
        qc.unalltoallv(h)
        return vals

    w = qmpi_run(3, prog, seed=0, timeout=90)
    # rank 0 receives: 1 from self(0), 0 from 1, 1 from 2 -> values [0, 0]
    assert w.results[0] == [0, 0]
    # rank 1 receives: 1 from 0 (0), 1 from self (1), 0 from 2
    assert w.results[1] == [0, 1]
    # rank 2 receives: 0 from 0, 1 from 1 (1), 1 from self (0)
    assert w.results[2] == [1, 0]


# ----------------------------------------------------------------------
# SUM as a local reversible adder (one rank)
# ----------------------------------------------------------------------
def _sum_circuit(qc, n, a_val, b_val, steps):
    """Encode ``a_val``/``b_val`` on two little-endian ``n``-qubit
    registers, run ``SUM.apply`` ("add") / ``SUM.unapply`` ("sub") in
    order, then read ``(a, b, qubits still allocated)``."""
    a, b = qc.alloc_qmem(n), qc.alloc_qmem(n)
    for reg, val in ((a, a_val), (b, b_val)):
        for i, q in enumerate(reg):
            if (val >> i) & 1:
                qc.x(q)
    qc.flush_ops()  # SUM drives the backend directly
    for step in steps:
        (SUM.apply if step == "add" else SUM.unapply)(qc, a, b)

    def read(reg):
        return sum(qc.measure(q) << i for i, q in enumerate(reg))

    return read(a), read(b), qc.backend.num_qubits


def _run_sum(n, a_val, b_val, steps):
    return qmpi_run(1, _sum_circuit, args=(n, a_val, b_val, steps), seed=0).results[0]


@settings(deadline=None)
@given(st.integers(1, 5), st.data())
def test_sum_adds_modulo_register_size(n, data):
    a_val = data.draw(st.integers(0, 2**n - 1))
    b_val = data.draw(st.integers(0, 2**n - 1))
    # a is preserved and the ancilla went back to |0> and was released
    assert _run_sum(n, a_val, b_val, ("add",)) == (a_val, (a_val + b_val) % 2**n, 2 * n)


@settings(deadline=None)
@given(st.integers(1, 5), st.data())
def test_sum_unapply_inverts_apply(n, data):
    a_val = data.draw(st.integers(0, 2**n - 1))
    b_val = data.draw(st.integers(0, 2**n - 1))
    assert _run_sum(n, a_val, b_val, ("add", "sub")) == (a_val, b_val, 2 * n)


@settings(deadline=None)
@given(st.integers(1, 4), st.data())
def test_sum_unapply_subtracts_modulo_register_size(n, data):
    a_val = data.draw(st.integers(0, 2**n - 1))
    b_val = data.draw(st.integers(0, 2**n - 1))
    assert _run_sum(n, a_val, b_val, ("sub",))[:2] == (a_val, (b_val - a_val) % 2**n)


def test_sum_on_a_superposition_stays_coherent():
    def prog(qc):
        a, b = qc.alloc_qmem(2), qc.alloc_qmem(2)
        qc.h(a[0])
        qc.flush_ops()
        SUM.apply(qc, a, b)
        # b is now entangled with a: measuring a[0] fixes b[0]
        return qc.measure(a[0]), qc.measure(b[0])

    for seed in range(4):
        bit_a, bit_b = qmpi_run(1, prog, seed=seed).results[0]
        assert bit_a == bit_b


def test_sum_on_empty_registers_is_a_noop():
    def prog(qc):
        SUM.apply(qc, [], [])
        SUM.unapply(qc, [], [])
        return qc.backend.num_qubits

    assert qmpi_run(1, prog, seed=0).results[0] == 0


def test_sum_rejects_registers_of_different_size():
    def prog(qc):
        a, b = qc.alloc_qmem(2), qc.alloc_qmem(3)
        for fn in (SUM.apply, SUM.unapply):
            with pytest.raises(ValueError, match="sizes differ"):
                fn(qc, a, b)
        return True

    assert qmpi_run(1, prog, seed=0).results[0]


@pytest.mark.parametrize("op", [PARITY, SUM], ids=["PARITY", "SUM"])
def test_ops_reject_overlapping_registers(op):
    def prog(qc):
        q = qc.alloc_qmem(3)
        qc.x(q[1])
        qc.flush_ops()
        for a, b in ((q[:2], q[:2]), (q[:2], q[1:]), (q[:1] + q[2:], q[1:])):
            for fn in (op.apply, op.unapply):
                with pytest.raises(ValueError, match="registers overlap"):
                    fn(qc, a, b)
        # the check runs before any gate: the register is untouched
        return [qc.measure(x) for x in q], qc.backend.num_qubits

    assert qmpi_run(1, prog, seed=0).results[0] == ([0, 1, 0], 3)
