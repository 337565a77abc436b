"""The QMPI surface as one table: every Table 2-3 entry round-trips.

Each row of :data:`ROWS` names a forward operation and its ``un*``
inverse (both as ``QmpiComm`` entries), says how to call them, and
states the Table 1-3 cost of each in EPR pairs and classical bits as a
function of the rank count ``n`` and the register size ``k``.
:func:`test_entry_round_trips` runs every row on both engines and checks
four things:

(i)   the ledger of the operation equals the row's cost;
(ii)  the operation followed by its inverse returns every rank's input
      register to its input state (dense oracle, no ``repro`` code);
(iii) the ledger of the inverse equals the row's inverse cost;
(iv)  every rank owns as many qubits afterwards as before.

Table 1 costs per transferred qubit: a copy is 1 EPR pair + 1 bit, an
uncopy 0 + 1, a move and an unmove 1 + 2 each; reductions and scans are
n - 1 copies per qubit and their inverses n - 1 uncopies.
"""

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.qmpi import GATESET, QmpiComm, QuantumBackend, qmpi_run
from tests import _dense_oracle as oracle
from tests._precision import STATE_ATOL

K = 1  # qubits per block
PEAK_QUBITS = 16  # most qubits allocated at once in any case, EPR halves included


def _copies(m):
    return m, m


def _uncopies(m):
    return 0, m


def _moves(m):
    return m, 2 * m


def _ring(qc):
    return (qc.rank + 1) % qc.size, (qc.rank - 1) % qc.size


def _in_ring_order(qc, first, second):
    """Rank 0 runs ``first`` then ``second``, every other rank the other
    way round: a ring of blocking transfers cannot deadlock."""
    if qc.rank == 0:
        a = first()
        b = second()
    else:
        b = second()
        a = first()
    return a, b


def _root(n):
    return n - 1


def _counts(n, k):
    """Per-rank sizes of the v-variants' registers, with a zero for n > 2."""
    return [k * ((r + 1) % 3) for r in range(n)]


def _send_counts(rank, n, k):
    """Row ``rank`` of alltoallv's counts matrix: a diagonal block, one
    block for the next rank, and zeros for n > 2."""
    return [k if j in (rank, (rank + 1) % n) else 0 for j in range(n)]


# ----------------------------------------------------------------------
# how to call each row: call(qc, reg, k, *op) -> state,
# undo(qc, reg, state, *inverse) -> the rank's restored input register
# ----------------------------------------------------------------------
def _p2p(qc, reg, k, send, recv):
    dest, src = _ring(qc)
    target = qc.alloc_qmem(k)
    _in_ring_order(qc, lambda: send(reg, dest), lambda: recv(target, src))
    return target


def _unp2p(qc, reg, target, unsend, unrecv):
    dest, src = _ring(qc)
    _in_ring_order(qc, lambda: unsend(reg, dest), lambda: unrecv(target, src))
    return reg


def _unp2p_move(qc, reg, target, unsend_move, unrecv_move):
    dest, src = _ring(qc)
    back, _ = _in_ring_order(
        qc, lambda: unsend_move(len(target), dest), lambda: unrecv_move(target, src)
    )
    return back


def _sendrecv(qc, reg, k, sendrecv):
    dest, src = _ring(qc)
    return sendrecv(reg, dest, qc.alloc_qmem(k), src)


def _unsendrecv(qc, reg, target, unsendrecv):
    dest, src = _ring(qc)
    unsendrecv(reg, dest, target, src)
    return reg


def _sendrecv_replace(qc, reg, k, sendrecv_replace):
    dest, src = _ring(qc)
    return sendrecv_replace(reg, dest, src)


def _unsendrecv_replace(qc, reg, replaced, unsendrecv_replace):
    dest, src = _ring(qc)
    return unsendrecv_replace(replaced, dest, src)


def _bcast(algorithm):
    def call(qc, reg, k, bcast):
        root = _root(qc.size)
        target = reg if qc.rank == root else qc.alloc_qmem(k)
        return bcast(target, root=root, algorithm=algorithm)

    return call


def _gather(qc, reg, k, gather):
    return gather(reg, root=_root(qc.size))[1]


def _gatherv(qc, reg, k, gatherv):
    return gatherv(reg, _counts(qc.size, k), root=_root(qc.size))[1]


def _scatter(qc, reg, k, scatter):
    n = qc.size
    target = None if qc.rank == _root(n) else qc.alloc_qmem(k)
    return scatter(reg, target, root=_root(n))[1]


def _scatterv(qc, reg, k, scatterv):
    n = qc.size
    counts = _counts(n, k)
    mine = counts[qc.rank]
    target = qc.alloc_qmem(mine) if qc.rank != _root(n) and mine else ()
    return scatterv(reg, counts, target, root=_root(n))[1]


def _alltoallv(qc, reg, k, alltoallv):
    return alltoallv(reg, _send_counts(qc.rank, qc.size, k))[1]


def _reduce(schedule):
    def call(qc, reg, k, reduce):
        return reduce(reg, root=_root(qc.size), schedule=schedule)[1]

    return call


def _handle(qc, reg, k, op):
    """Call ``op(reg)`` and keep the handle its inverse takes."""
    return op(reg)[1]


def _undo(qc, reg, handle, inverse):
    inverse(handle)
    return reg


def _ungather_move(qc, reg, handle, ungather):
    ungather(handle)
    return reg if qc.rank == handle.root else handle.sent


def _unscatter_move(qc, reg, handle, unscatter):
    unscatter(handle)
    if qc.rank != handle.root:
        return reg
    blocks = {**handle.kept, handle.root: handle.received}
    return [q for dst in sorted(blocks) for q in blocks[dst]]


def _unalltoall_move(qc, reg, handle, unalltoall):
    unalltoall(handle)
    k = len(reg) // qc.size
    blocks = {**handle.sent, qc.rank: reg[qc.rank * k : (qc.rank + 1) * k]}
    return [q for dst in sorted(blocks) for q in blocks[dst]]


@dataclass(frozen=True)
class Row:
    op: tuple  # the QmpiComm entries the forward call uses
    inverse: tuple  # the entries its inverse uses
    call: Callable
    undo: Callable
    cost: Callable  # (n, k) -> (EPR pairs, classical bits) of the op
    uncost: Callable  # (n, k) -> the same for the inverse
    data: Callable = lambda rank, n, k: k  # input register size on ``rank``
    max_n: int = 4  # beyond this the case would exceed PEAK_QUBITS
    name: str = ""

    @property
    def id(self):
        return self.name or self.op[0]


def _root_only(size):
    return lambda rank, n, k: size(n, k) if rank == _root(n) else 0


ROWS = [
    # Table 2: every rank sends its register to the next one on a ring.
    Row(("send", "recv"), ("unsend", "unrecv"), _p2p, _unp2p,
        lambda n, k: _copies(n * k), lambda n, k: _uncopies(n * k)),
    Row(("send_move", "recv_move"), ("unsend_move", "unrecv_move"), _p2p, _unp2p_move,
        lambda n, k: _moves(n * k), lambda n, k: _moves(n * k)),
    Row(("sendrecv",), ("unsendrecv",), _sendrecv, _unsendrecv,
        lambda n, k: _copies(n * k), lambda n, k: _uncopies(n * k)),
    Row(("sendrecv_replace",), ("unsendrecv_replace",), _sendrecv_replace, _unsendrecv_replace,
        lambda n, k: _moves(n * k), lambda n, k: _moves(n * k)),
    # Table 3, rooted at the last rank.
    Row(("bcast",), ("unbcast",), _bcast("tree"), _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k),
        data=_root_only(lambda n, k: k)),
    # §7.1's constant-depth bcast: a chain cat state (n - 1 pairs, whose
    # exscan sends n - 1 bits) and the root's parity outcome sent to the
    # n - 1 other ranks, per qubit: 2 (n - 1) bits, where Table 3's bcast
    # (the tree row above) sends n - 1. The inverse is unbcast's n - 1.
    Row(("bcast",), ("unbcast",), _bcast("cat"), _undo,
        lambda n, k: ((n - 1) * k, 2 * (n - 1) * k), lambda n, k: _uncopies((n - 1) * k),
        data=_root_only(lambda n, k: k), name="bcast_cat"),
    Row(("gather",), ("ungather",), _gather, _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k)),
    Row(("gatherv",), ("ungatherv",), _gatherv, _undo,
        lambda n, k: _copies(sum(_counts(n, k)[:-1])),
        lambda n, k: _uncopies(sum(_counts(n, k)[:-1])),
        data=lambda rank, n, k: _counts(n, k)[rank]),
    Row(("gather_move",), ("ungather",), _gather, _ungather_move,
        lambda n, k: _moves((n - 1) * k), lambda n, k: _moves((n - 1) * k)),
    Row(("scatter",), ("unscatter",), _scatter, _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k),
        data=_root_only(lambda n, k: n * k)),
    Row(("scatterv",), ("unscatterv",), _scatterv, _undo,
        lambda n, k: _copies(sum(_counts(n, k)[:-1])),
        lambda n, k: _uncopies(sum(_counts(n, k)[:-1])),
        data=_root_only(lambda n, k: sum(_counts(n, k)))),
    Row(("scatter_move",), ("unscatter",), _scatter, _unscatter_move,
        lambda n, k: _moves((n - 1) * k), lambda n, k: _moves((n - 1) * k),
        data=_root_only(lambda n, k: n * k)),
    # n = 4: 4 data qubits, 12 copies and the EPR halves in flight.
    Row(("allgather",), ("unallgather",), _handle, _undo,
        lambda n, k: _copies(n * (n - 1) * k), lambda n, k: _uncopies(n * (n - 1) * k),
        max_n=3),
    # n = 3: 9 data qubits, 6 copies and, on the sharded engine, 2 halves.
    Row(("alltoall",), ("unalltoall",), _handle, _undo,
        lambda n, k: _copies(n * (n - 1) * k), lambda n, k: _uncopies(n * (n - 1) * k),
        data=lambda rank, n, k: n * k, max_n=2),
    Row(("alltoallv",), ("unalltoallv",), _alltoallv, _undo,
        lambda n, k: _copies(n * k), lambda n, k: _uncopies(n * k),
        data=lambda rank, n, k: sum(_send_counts(rank, n, k))),
    # n = 3: 9 data qubits, and up to 6 targets and 6 EPR halves at once
    # (14-17 in practice, depending on how the rank threads interleave).
    Row(("alltoall_move",), ("unalltoall",), _handle, _unalltoall_move,
        lambda n, k: _moves(n * (n - 1) * k), lambda n, k: _moves(n * (n - 1) * k),
        data=lambda rank, n, k: n * k, max_n=2),
    Row(("reduce",), ("unreduce",), _reduce("linear"), _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k)),
    Row(("reduce",), ("unreduce",), _reduce("tree"), _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k),
        name="reduce-tree"),
    # allreduce is a reduce plus a copy of the result (Table 3).
    Row(("allreduce",), ("unallreduce",), _handle, _undo,
        lambda n, k: _copies(2 * (n - 1) * k), lambda n, k: _uncopies(2 * (n - 1) * k)),
    # n = 3: 9 data qubits, 3 results and 6 retained copies.
    Row(("reduce_scatter_block",), ("unreduce_scatter_block",), _handle, _undo,
        lambda n, k: _copies(n * (n - 1) * k), lambda n, k: _uncopies(n * (n - 1) * k),
        data=lambda rank, n, k: n * k, max_n=2),
    Row(("scan",), ("unscan",), _handle, _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k)),
    Row(("exscan",), ("unexscan",), _handle, _undo,
        lambda n, k: _copies((n - 1) * k), lambda n, k: _uncopies((n - 1) * k)),
]

#: QmpiComm entries that are a row's function under another name.
ALIASES = {
    "bsend": "send",
    "ssend": "send",
    "rsend": "send",
    "mrecv": "recv",
    "bunsend": "unsend",
    "sunsend": "unsend",
    "runsend": "unsend",
    "munrecv": "unrecv",
}

#: The local API: identity, memory, measurement, EPR, sync.
LOCAL_API = {
    "rank",
    "size",
    "alloc_qmem",
    "free_qmem",
    "flush_ops",
    "measure",
    "measure_and_release",
    "prob_one",
    "statevector",
    "prepare_epr",
    "iprepare_epr",
    "epr_buffered",
    "barrier",
    "cancel",
}

TABLE = {name for row in ROWS for name in row.op + row.inverse}


def _prepare(qc, reg, offset):
    """Put ``reg`` in a state with distinct angles per qubit and, for two
    or more qubits, entanglement; returns the same gates for the oracle
    with global qubit indices starting at ``offset``."""
    gates = []
    for i, q in enumerate(reg):
        g = offset + i
        for name, theta in (("ry", 0.4 + 0.7 * g), ("rz", 0.3 + 0.5 * g)):
            getattr(qc, name)(q, theta)
            gates.append((name, (g,), (theta,)))
    if len(reg) >= 2:
        qc.cnot(reg[0], reg[1])
        gates.append(("cnot", (offset, offset + 1), ()))
    return gates


def _ledger_point(qc):
    """A ledger snapshot every rank takes between the same two barriers."""
    qc.barrier()
    snap = qc.ledger.snapshot()
    qc.barrier()
    return snap


def _cost(later, earlier):
    delta = later.delta(earlier)
    return delta.epr_pairs, delta.classical_bits


def _round_trip(qc, row, k):
    n, rank = qc.size, qc.rank
    size = row.data(rank, n, k)
    reg = qc.alloc_qmem(size) if size else []
    gates = _prepare(qc, reg, sum(row.data(r, n, k) for r in range(rank)))
    t0 = _ledger_point(qc)
    owned = len(qc.backend.owned_by(rank))
    state = row.call(qc, reg, k, *(getattr(qc, name) for name in row.op))
    t1 = _ledger_point(qc)
    restored = row.undo(qc, reg, state, *(getattr(qc, name) for name in row.inverse))
    t2 = _ledger_point(qc)
    return {
        "restored": list(restored),
        "gates": gates,
        "owned": (owned, len(qc.backend.owned_by(rank))),
        "cost": (_cost(t1, t0), _cost(t2, t1)),
    }


CASES = [
    pytest.param(row, n, id=f"{row.id}-n{n}")
    for row in ROWS
    for n in (2, 3, 4)
    if n <= row.max_n
]


@pytest.fixture
def peak(monkeypatch):
    """Records the most qubits allocated at once while the test runs."""
    seen = [0]
    alloc = QuantumBackend.alloc

    def counting_alloc(self, rank, n=1):
        out = alloc(self, rank, n)
        seen[0] = max(seen[0], self.num_qubits)
        return out

    monkeypatch.setattr(QuantumBackend, "alloc", counting_alloc)
    return seen


@pytest.mark.parametrize("backend", ["shared", "sharded"])
@pytest.mark.parametrize("row, n", CASES)
def test_entry_round_trips(row, n, backend, peak):
    world = qmpi_run(n, _round_trip, args=(row, K), seed=n, backend=backend, timeout=30)
    out = list(world)
    assert peak[0] <= PEAK_QUBITS
    assert out[0]["cost"] == (row.cost(n, K), row.uncost(n, K))  # (i) and (iii)
    assert [o["owned"][1] for o in out] == [o["owned"][0] for o in out]  # (iv)
    # (ii): after the inverse only the input registers are left
    ids = [q for o in out for q in o["restored"]]
    assert [len(o["restored"]) for o in out] == [row.data(r, n, K) for r in range(n)]
    psi = np.zeros(2 ** len(ids), dtype=complex)
    psi[0] = 1
    for name, qubits, params in (g for o in out for g in o["gates"]):
        psi = oracle.apply(psi, oracle.GATES[name](*params), qubits, len(ids))
    got = world.backend.statevector(ids)
    phase = np.vdot(psi, got)
    assert abs(phase) == pytest.approx(1, abs=STATE_ATOL)
    np.testing.assert_allclose(got, phase * psi, rtol=0, atol=STATE_ATOL)


def test_every_public_name_is_a_gate_a_row_an_alias_or_local_api():
    public = {name for name in dir(QmpiComm) if not name.startswith("_")}
    unexplained = public - set(GATESET) - TABLE - set(ALIASES) - LOCAL_API
    assert not unexplained, f"QmpiComm entries in no table: {sorted(unexplained)}"
    assert LOCAL_API <= public
    for alias, name in ALIASES.items():
        assert getattr(QmpiComm, alias) is getattr(QmpiComm, name), alias


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_entries_are_the_documented_implementations(name):
    fn = vars(QmpiComm)[name]
    assert fn.__module__ in ("repro.qmpi.p2p", "repro.qmpi.collectives"), name
    assert (fn.__doc__ or "").strip(), f"{name} has no docstring"
    private = [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.name.startswith("_") and p.kind is not p.KEYWORD_ONLY
    ]
    assert not private, f"{name} takes private parameters positionally: {private}"


def test_a_stray_positional_argument_is_refused():
    def prog(qc):
        q = qc.alloc_qmem(1)
        with pytest.raises(TypeError):
            qc.send(q, 1 - qc.rank, 0, "x")
        with pytest.raises(TypeError):
            qc.recv(q, 1 - qc.rank, 0, "x")
        return True

    assert all(qmpi_run(2, prog, seed=0))
