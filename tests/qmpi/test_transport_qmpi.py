"""QMPI over the mp transport: bit-identical equivalence with inproc.

The acceptance bar of the transport subsystem: at equal seed,
``transport="mp"`` must produce the *same per-shot outcomes* as
``transport="inproc"`` — the parent-held backend consumes the identical
RNG stream because the protocols below are fully dependency-sequenced
(teleport, fanout send/recv, cat-state broadcast), so their global
measurement order is deterministic on both transports.

All programs are module-level (the mp transport pickles them into
spawned rank processes) and allocate in rank order so qubit ids are
deterministic across runs.
"""

import numpy as np
import pytest

from repro.mpi import RankFailure
from repro.qmpi import EprBufferFull, LocalityError, make_backend, qmpi_run

BACKEND_SPECS = ["shared", "sharded"]
RANK_COUNTS = [2, 4]


def _ordered_alloc(qc, n=1):
    """Allocate ``n`` qubits per rank, in rank order (deterministic ids)."""
    out = None
    for r in range(qc.size):
        if qc.rank == r:
            out = qc.alloc_qmem(n)
        qc.barrier()
    return out


# ----------------------------------------------------------------------
# programs (module-level: pickled into rank processes)
# ----------------------------------------------------------------------
def teleport_prog(qc, theta):
    """Teleport a rotated qubit from rank 0 to the last rank; measure there."""
    (q,) = _ordered_alloc(qc, 1)
    last = qc.size - 1
    if qc.rank == 0:
        qc.h(q)
        qc.rz(q, theta)
        qc.send_move([q], dest=last, tag=3)
        return None
    if qc.rank == last:
        (dst,) = qc.recv_move([q], source=0, tag=3)
        return qc.measure(dst)
    qc.free_qmem([q])
    return None


def fanout_prog(qc):
    """Entangled-copy fanout from rank 0 to every other rank, in order."""
    (q,) = _ordered_alloc(qc, 1)
    if qc.rank == 0:
        qc.h(q)
        for dest in range(1, qc.size):
            qc.send([q], dest=dest, tag=5)
    else:
        qc.recv([q], source=0, tag=5)
    # All copy-protocol measurements precede the readout: without the
    # barrier an early receiver's measure races rank 0's later copies
    # and permutes the backend's RNG stream.
    qc.barrier()
    return qc.measure(q)


def cat_bcast_prog(qc):
    """Cat-state broadcast (§7.1 optimized construction) + measure."""
    (q,) = _ordered_alloc(qc, 1)
    if qc.rank == 0:
        qc.h(q)
    qc.bcast([q], root=0, algorithm="cat")
    return qc.measure(q)


def dcnot_prog(qc):
    """Distributed CNOT rank 0 -> last rank: send/recv, then unrecv/unsend."""
    q, copy = _ordered_alloc(qc, 2)
    last = qc.size - 1
    if qc.rank == 0:
        qc.h(q)
        qc.send([q], dest=last, tag=7)
        qc.unsend([q], dest=last, tag=7)
    elif qc.rank == last:
        qc.recv([copy], source=0, tag=7)
        qc.cnot(copy, q)
        qc.unrecv([copy], source=0, tag=7)
    if qc.rank != last:
        qc.free_qmem([copy])
    out = None
    for r in range(qc.size):  # readout in rank order: one RNG stream
        if qc.rank == r:
            out = qc.measure(q)
        qc.barrier()
    return out


def protocol_sites_prog(qc, theta):
    """Every protocol measurement (fan-out onto an EPR half, X-basis
    uncopy, both halves of a teleport; blocking, non-blocking and over a
    persistent channel) once on two ranks.  Each step ends in a classical
    handshake, so the backend's RNG stream has one order."""
    from repro.qmpi import PersistentChannel, p2p

    (data,) = _ordered_alloc(qc, 1)
    chan = PersistentChannel(qc, 1 - qc.rank, slots=2, tag=40, eager=False)
    for r in range(qc.size):
        if qc.rank == r:
            chan.start()
        qc.barrier()
    chan.wait()
    if qc.rank == 0:
        qc.ry(data, theta)
        qc.send([data], dest=1, tag=1)
        qc.unsend([data], dest=1, tag=1)
        p2p.isend(qc, [data], 1, tag=2).wait()
        qc.unsend([data], dest=1, tag=2)
        chan.send([data])
        qc.unsend([data], dest=1, tag=3)
        chan.send_move([data])
        (back,) = qc.unsend_move(1, dest=1, tag=4)
        return [qc.prob_one(back), qc.measure(back)]
    out = []
    (copy,) = qc.recv([data], source=0, tag=1)
    out.append(qc.prob_one(copy))
    qc.unrecv([copy], source=0, tag=1)
    (copy,) = p2p.irecv(qc, qc.alloc_qmem(1), 0, tag=2).wait()
    qc.unrecv([copy], source=0, tag=2)
    (copy,) = chan.recv(1)
    qc.unrecv([copy], source=0, tag=3)
    (moved,) = chan.recv_move(1)
    out.append(qc.prob_one(moved))
    qc.unrecv_move([moved], source=0, tag=4)
    return out


def releasing_cat_prog(qc):
    """Cat-state broadcast whose readout resets and frees every qubit,
    leaving the backend empty for the next shot batch."""
    (q,) = _ordered_alloc(qc, 1)
    if qc.rank == 0:
        qc.h(q)
    qc.bcast([q], root=0, algorithm="cat")
    m = qc.measure(q)
    qc.backend.apply_pauli_if(qc.rank, m, "X", q)
    qc.free_qmem([q])
    return m


def repeated_shape_prog(qc, k):
    """Each rank flushes one circuit shape ``k`` times with fresh angles,
    then both ranks measure in rank order."""
    q = _ordered_alloc(qc, 2)
    for i in range(k):
        qc.ry(q[0], 0.3 + 0.2 * i + qc.rank)
        qc.cnot(q[0], q[1])
        qc.rz(q[1], 0.5 + 0.1 * i)
        qc.flush_ops()
    out = None
    for r in range(qc.size):
        if qc.rank == r:
            out = [qc.measure(q[0]), qc.measure(q[1])]
        qc.barrier()
    return out


def locality_prog(qc):
    regs = _ordered_alloc(qc, 1)
    if qc.rank == 1:
        qc.h(regs[0] - 1)  # rank 0's qubit: must be rejected
        qc.flush_ops()
    return True


def buffer_full_prog(qc):
    (a, b) = _ordered_alloc(qc, 2)
    peer = 1 - qc.rank
    if qc.rank == 0:
        qc.iprepare_epr(a, dest=peer, tag=1)
        qc.iprepare_epr(b, dest=peer, tag=2)  # second half: S=1 exceeded
    else:
        qc.prepare_epr(a, dest=peer, tag=1)
    return True


def failing_prog(qc):
    (q,) = _ordered_alloc(qc, 1)
    if qc.rank == 1:
        raise ValueError("deliberate failure on rank 1")
    qc.recv_move(1, source=1, tag=0)  # blocks until the abort wakes it
    return True


PROGRAMS = {
    "teleport": (teleport_prog, (0.7,)),
    "fanout": (fanout_prog, ()),
    "cat-bcast": (cat_bcast_prog, ()),
    "dcnot": (dcnot_prog, ()),
}


# ----------------------------------------------------------------------
# bit-identical equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_SPECS)
@pytest.mark.parametrize("n_ranks", RANK_COUNTS)
@pytest.mark.parametrize("kernel", sorted(PROGRAMS))
def test_mp_matches_inproc_per_shot(kernel, n_ranks, backend):
    prog, args = PROGRAMS[kernel]
    outcome = {}
    for transport in ("inproc", "mp"):
        with qmpi_run(
            n_ranks, prog, args=args, seed=42, shots=64,
            backend=backend, transport=transport,
        ) as world:
            outcome[transport] = (list(world), world.counts)
    assert outcome["mp"][0] == outcome["inproc"][0]
    assert outcome["mp"][1] == outcome["inproc"][1]


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_prebuilt_backend_sweep_matches_across_transports(backend):
    """The sweep idiom over process ranks: one prebuilt backend held by
    the parent, ``reseed`` before each call, counts equal to inproc."""
    be = make_backend(backend, n_ranks=2)
    counts = []
    for transport in ("inproc", "mp", "mp"):
        be.reseed(11)
        world = qmpi_run(
            2, releasing_cat_prog, backend=be, shots=48,
            transport=transport, timeout=60,
        )
        assert sum(world.counts.values()) == 48
        assert set(world.counts) <= {"00", "11"}  # both ranks always agree
        counts.append(world.counts)
    assert counts[1] == counts[0] and counts[2] == counts[0]
    be.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_protocol_measurements_match_across_transports(seed):
    """Outcomes, probabilities and the ledger of every
    ``measure_and_release(q, basis=, control=)`` site agree per seed."""
    seen = {}
    for transport in ("inproc", "mp"):
        world = qmpi_run(
            2, protocol_sites_prog, args=(0.4 + seed,), seed=seed, transport=transport
        )
        # Per row only the classical side: which scope an EPR pair lands
        # in is decided by the thread that completes the match.
        rows = {n: (r.classical_bits, r.calls) for n, r in world.ledger.rows.items()}
        seen[transport] = (world.results, world.ledger.snapshot(), rows)
        assert world.backend.num_qubits == 1  # the teleported-back qubit
    for got, want in zip(seen["mp"][0], seen["inproc"][0]):
        assert got == pytest.approx(want, abs=1e-12)
    assert seen["mp"][1:] == seen["inproc"][1:]
    # 2 pooled + send + isend + the teleport back; one bit per copy and
    # uncopy, two per teleport.
    totals = seen["mp"][1]
    assert (totals.epr_pairs, totals.classical_bits) == (5, 10)


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_mp_flushes_reach_the_parent_schedule_cache(backend):
    """A rank's flush over ``mp`` is one ``apply_flush`` RPC, lowered and
    cached by the parent's backend exactly as in-process."""
    k = 5
    seen = {}
    for transport in ("inproc", "mp"):
        with qmpi_run(
            2, repeated_shape_prog, args=(k,), seed=3, shots=32,
            backend=backend, transport=transport,
        ) as world:
            info = world.backend.cache_info()
            seen[transport] = (list(world), world.counts)
        assert info["hits"] >= k - 1, (transport, info)
        assert info["hits"] + info["misses"] == 2 * k, (transport, info)
    assert seen["mp"] == seen["inproc"]


def test_mp_matches_inproc_single_trajectory_state():
    """Without shots: same RNG draws, same collapses, same final state."""
    vecs = {}
    for transport in ("inproc", "mp"):
        world = qmpi_run(
            2, teleport_prog, args=(0.3,), seed=7, transport=transport
        )
        vecs[transport] = (world.results, world.backend.statevector())
    assert vecs["mp"][0] == vecs["inproc"][0]
    np.testing.assert_allclose(vecs["mp"][1], vecs["inproc"][1], atol=1e-12)


# ----------------------------------------------------------------------
# resource accounting across the process boundary
# ----------------------------------------------------------------------
def test_mp_ledger_merge_totals_and_rows():
    world = qmpi_run(2, teleport_prog, args=(0.5,), seed=0, transport="mp")
    ledger = world.ledger
    # One teleport: one EPR pair (recorded parent-side), two fixup bits
    # (recorded rank-side, merged at teardown).
    assert ledger.epr_pairs == 1
    assert ledger.classical_bits == 2
    assert ledger.row("send_move").calls >= 1
    assert ledger.row("recv_move").calls >= 1
    assert ledger.row("recv_move").classical_bits == 2


def test_mp_ledger_matches_inproc():
    ledgers = {}
    for transport in ("inproc", "mp"):
        world = qmpi_run(4, cat_bcast_prog, seed=1, transport=transport)
        ledgers[transport] = world.ledger
    li, lm = ledgers["inproc"], ledgers["mp"]
    assert lm.epr_pairs == li.epr_pairs
    assert lm.classical_bits == li.classical_bits
    assert lm.classical_messages == li.classical_messages


# ----------------------------------------------------------------------
# the remotable table
# ----------------------------------------------------------------------
def test_proxy_forwarders_are_generated_from_the_remotable_table():
    from repro.mpi.errors import TransportError
    from repro.qmpi import Op, SharedBackend
    from repro.qmpi.service import BackendProxy, QmpiServiceHost

    sent = []

    class Rpc:
        def call(self, plane, name, *args):
            sent.append((name, args))

    proxy = BackendProxy(Rpc())
    assert "apply_flush" in QmpiServiceHost.BACKEND_METHODS  # flushes reach the cache
    assert all(callable(getattr(proxy, name)) for name in QmpiServiceHost.BACKEND_METHODS)
    proxy.measure_and_release(1, 5, control=3)  # keywords and defaults: the backend's
    proxy.measure_and_release(1, 5, basis="X")
    proxy.alloc(2)
    proxy.apply(0, np.eye(2), 4)
    proxy.apply_ops(0, ())  # empty batch: no RPC
    proxy.free(0, (7, 8))
    buf = (Op("h", (7,)),)
    proxy.apply_flush(0, buf)
    assert [(name, args) for name, args in sent if name != "apply"] == [
        ("measure_and_release", (1, 5, "Z", 3)),
        ("measure_and_release", (1, 5, "X", None)),
        ("alloc", (2, 1)),
        ("free", (0, [7, 8])),
        ("apply_flush", (0, buf)),
    ]
    assert sent[3][0] == "apply" and sent[3][1][2:] == (4,)
    with pytest.raises(TypeError):
        proxy.measure_and_release(1, 5, colour="red")
    # Parent-only surfaces stay out of reach from either end.
    assert not hasattr(proxy, "begin_shots")
    host = QmpiServiceHost(SharedBackend(seed=0), None, None)
    with pytest.raises(TransportError, match="not remotable"):
        host.handle(0, "backend", "begin_shots", 4)


# ----------------------------------------------------------------------
# failure surfacing through the service plane
# ----------------------------------------------------------------------
def test_mp_locality_error_propagates():
    with pytest.raises(RankFailure) as ei:
        qmpi_run(2, locality_prog, transport="mp", timeout=30)
    assert isinstance(ei.value.failures[1], LocalityError)


def test_mp_epr_buffer_full_propagates():
    with pytest.raises(RankFailure) as ei:
        qmpi_run(2, buffer_full_prog, s_limit=1, transport="mp", timeout=30)
    assert isinstance(ei.value.failures[0], EprBufferFull)


def test_mp_abort_unblocks_epr_wait():
    with pytest.raises(RankFailure) as ei:
        qmpi_run(2, failing_prog, transport="mp", timeout=30)
    assert set(ei.value.failures) == {1}
    assert isinstance(ei.value.failures[1], ValueError)

