"""Transport registry + cross-transport fabric semantics.

Every rank function here is module-level: the mp transport pickles it
into rank processes forked from a forkserver, so closures would fail by
construction. Tests that exercise matching semantics run against every
registered transport — the registry is the parametrization source, so
a third transport would be picked up automatically.
"""

import gc
import multiprocessing
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    InprocTransport,
    MpiAbort,
    RankFailure,
    RecvTimeout,
    Status,
    Transport,
    TRANSPORTS,
    TransportError,
    make_transport,
    register_transport,
    run_spmd,
)
from repro.mpi.fabric import Mailbox
from repro.mpi.mp import MpTransport


def _all_transports():
    make_transport("inproc")  # force builtin registration
    return sorted(TRANSPORTS)


@pytest.fixture(params=_all_transports())
def transport(request):
    return request.param


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_builtins():
    make_transport("inproc")
    assert TRANSPORTS["inproc"] is InprocTransport
    assert TRANSPORTS["mp"] is MpTransport


def test_make_transport_resolves_names_classes_instances():
    assert isinstance(make_transport("inproc"), InprocTransport)
    assert isinstance(make_transport(MpTransport), MpTransport)
    inst = MpTransport(shm_min_bytes=0)
    assert make_transport(inst) is inst


def test_make_transport_rejects_opts_on_instance():
    with pytest.raises(ValueError, match="prebuilt"):
        make_transport(MpTransport(), shm_min_bytes=0)


def test_make_transport_unknown_name_lists_known():
    with pytest.raises(ValueError, match="inproc") as ei:
        make_transport("smoke-signals")
    assert "mp" in str(ei.value)


def test_register_transport_custom():
    class Echo(Transport):
        name = "echo-test"

        def run_spmd(self, n_ranks, fn, args=(), kwargs=None, timeout=120.0, service=None):
            return ["echo"] * n_ranks

    register_transport(Echo.name, Echo)
    try:
        assert run_spmd(3, None, transport="echo-test") == ["echo"] * 3
    finally:
        del TRANSPORTS["echo-test"]


def test_transport_flags():
    assert InprocTransport.inprocess is True
    assert MpTransport.inprocess is False


# ----------------------------------------------------------------------
# basic SPMD semantics across transports
# ----------------------------------------------------------------------
def _allreduce_rank(comm):
    return comm.allreduce(comm.rank)


def test_run_spmd_basic(transport):
    assert run_spmd(4, _allreduce_rank, timeout=30, transport=transport) == [6] * 4


def _ring_rank(comm, n):
    arr = np.arange(n, dtype=np.float64) + comm.rank
    comm.send(arr, dest=(comm.rank + 1) % comm.size, tag=7)
    got = comm.recv(source=(comm.rank - 1) % comm.size, tag=7)
    assert got.shape == (n,) and got.dtype == np.float64
    return float(got[0])


def test_numpy_payload_roundtrip(transport):
    # Large enough to cross the mp shm threshold (1 << 14 bytes).
    out = run_spmd(3, _ring_rank, args=(5000,), timeout=30, transport=transport)
    assert out == [2.0, 0.0, 1.0]


def _ring_small(comm):
    arr = np.array([comm.rank], dtype=np.int64)
    comm.send(arr, dest=(comm.rank + 1) % comm.size, tag=1)
    return int(comm.recv(source=(comm.rank - 1) % comm.size, tag=1)[0])


def test_mp_forced_shm_data_plane():
    # shm_min_bytes=0 pushes even tiny arrays through the shm codec.
    out = run_spmd(3, _ring_small, timeout=30, transport="mp", shm_min_bytes=0)
    assert out == [2, 0, 1]


def _split_rank(comm):
    sub = comm.split(color=comm.rank % 2, key=comm.rank)
    return (sub.rank, sub.size, sub.allgather(comm.rank))


def test_split_and_new_context(transport):
    out = run_spmd(4, _split_rank, timeout=30, transport=transport)
    assert out[0] == (0, 2, [0, 2])
    assert out[1] == (0, 2, [1, 3])
    assert out[2] == (1, 2, [0, 2])
    assert out[3] == (1, 2, [1, 3])


# ----------------------------------------------------------------------
# wildcard matching order (satellite: ANY_SOURCE / ANY_TAG interleavings)
# ----------------------------------------------------------------------
def _any_source_rank(comm):
    if comm.rank == 1:
        comm.send("from-1", dest=0, tag=4)
        comm.send("go", dest=2, tag=0)
    elif comm.rank == 2:
        comm.recv(source=1, tag=0)  # sequence the arrivals: 1 before 2
        comm.send("from-2", dest=0, tag=4)
    else:
        st1, st2 = Status(), Status()
        a = comm.recv(source=ANY_SOURCE, tag=4, status=st1)
        b = comm.recv(source=ANY_SOURCE, tag=4, status=st2)
        return (a, st1.source, b, st2.source)
    return None


def test_any_source_matches_arrival_order(transport):
    out = run_spmd(3, _any_source_rank, timeout=30, transport=transport)
    # Rank 2 only sends after rank 1's message went out, so a wildcard
    # receiver must see rank 1's message first on every transport.
    assert out[0] == ("from-1", 1, "from-2", 2)


def _any_tag_rank(comm):
    if comm.rank == 1:
        comm.send("first", dest=0, tag=5)
        comm.send("second", dest=0, tag=9)
    else:
        st1, st2 = Status(), Status()
        a = comm.recv(source=1, tag=ANY_TAG, status=st1)
        b = comm.recv(source=1, tag=ANY_TAG, status=st2)
        return (a, st1.tag, b, st2.tag)
    return None


def test_any_tag_non_overtaking(transport):
    out = run_spmd(2, _any_tag_rank, timeout=30, transport=transport)
    # Non-overtaking per (source): same-source messages match in send
    # order under an ANY_TAG wildcard.
    assert out[0] == ("first", 5, "second", 9)


def _specific_beats_wildcard_rank(comm):
    if comm.rank == 1:
        comm.send("tagged-3", dest=0, tag=3)
        comm.send("tagged-8", dest=0, tag=8)
    else:
        late = comm.recv(source=1, tag=8)  # skips over the tag-3 message
        early = comm.recv(source=1, tag=ANY_TAG)
        return (late, early)
    return None


def test_specific_tag_skips_earlier_nonmatching(transport):
    out = run_spmd(2, _specific_beats_wildcard_rank, timeout=30, transport=transport)
    assert out[0] == ("tagged-8", "tagged-3")


# ----------------------------------------------------------------------
# recv timeout (satellite: the Mailbox.collect deadline fix)
# ----------------------------------------------------------------------
def test_mailbox_collect_deadline_unit():
    box = Mailbox()
    abort = threading.Event()
    t0 = time.monotonic()
    with pytest.raises(RecvTimeout):
        box.collect(context=0, source=ANY_SOURCE, tag=ANY_TAG, abort=abort, timeout=0.2)
    elapsed = time.monotonic() - t0
    assert 0.15 <= elapsed < 2.0


def _timeout_rank(comm):
    if comm.rank == 0:
        try:
            comm.recv(source=1, tag=42, timeout=0.3)
        except RecvTimeout:
            comm.send("timed-out", dest=1, tag=0)
            return True
        return False
    comm.recv(source=0, tag=0)
    return True


def test_recv_timeout_raises(transport):
    assert run_spmd(2, _timeout_rank, timeout=30, transport=transport) == [True, True]


def _timeout_with_traffic_rank(comm):
    if comm.rank == 0:
        t0 = time.monotonic()
        try:
            comm.recv(source=1, tag=42, timeout=0.5)
        except RecvTimeout:
            elapsed = time.monotonic() - t0
            comm.send("done", dest=1, tag=99)
            return elapsed
        return -1.0
    # Stream non-matching messages faster than the timeout: the deadline
    # must not restart on every arrival (the pre-fix behavior waited
    # `timeout` after the *last* message instead of the call).
    while not comm.iprobe(source=0, tag=99):
        comm.send("noise", dest=0, tag=7)
        time.sleep(0.05)
    comm.recv(source=0, tag=99)
    return 0.0


def test_recv_timeout_not_extended_by_stray_traffic(transport):
    out = run_spmd(2, _timeout_with_traffic_rank, timeout=30, transport=transport)
    assert 0.4 <= out[0] < 3.0


# ----------------------------------------------------------------------
# abort propagation & failure surfacing
# ----------------------------------------------------------------------
def _abort_while_blocked_rank(comm):
    if comm.rank == 1:
        raise ValueError("boom on 1")
    comm.recv(source=1, tag=0)  # never sent; must wake via abort
    return True


def test_abort_wakes_blocked_recv(transport):
    with pytest.raises(RankFailure) as ei:
        run_spmd(3, _abort_while_blocked_rank, timeout=30, transport=transport)
    # Only the root cause is reported; aborted bystanders are secondary.
    assert set(ei.value.failures) == {1}
    assert isinstance(ei.value.failures[1], ValueError)


def _deadlock_rank(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=0)  # never sent
    return True


def test_deadlock_watchdog(transport):
    with pytest.raises(DeadlockError):
        run_spmd(2, _deadlock_rank, timeout=2.0, transport=transport)


def _dead_rank(comm):
    if comm.rank == 1:
        os._exit(3)  # die without reporting anything
    comm.recv(source=1, tag=5)
    return True


def test_dead_rank_surfaces_as_transport_error():
    with pytest.raises(RankFailure) as ei:
        run_spmd(2, _dead_rank, timeout=30, transport="mp")
    failure = ei.value.failures[1]
    assert isinstance(failure, TransportError)
    assert "exit code 3" in str(failure)
    # The dead rank takes nothing down with it: the next run is clean.
    assert run_spmd(2, _allreduce_rank, timeout=30, transport="mp") == [1, 1]


# ----------------------------------------------------------------------
# mp start method: ranks fork from one warm forkserver
# ----------------------------------------------------------------------
needs_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="platform has no forkserver start method",
)


def _ppid_rank(comm):
    return os.getppid()


@needs_forkserver
def test_mp_ranks_fork_from_one_server():
    first = run_spmd(2, _ppid_rank, timeout=30, transport="mp")
    second = run_spmd(2, _ppid_rank, timeout=30, transport="mp")
    assert len(set(first + second)) == 1
    assert first[0] != os.getpid()


@needs_forkserver
@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs os.pidfd_open")
def test_mp_survives_a_killed_forkserver():
    from multiprocessing import forkserver

    run_spmd(2, _ppid_rank, timeout=30, transport="mp")
    server = forkserver._forkserver._forkserver_pid
    pidfd = os.pidfd_open(server)
    try:
        os.kill(server, signal.SIGKILL)
        # Readable once the server has exited; multiprocessing reaps it.
        assert select.select([pidfd], [], [], 10)[0]
    finally:
        os.close(pidfd)
    again = run_spmd(2, _ppid_rank, timeout=30, transport="mp")
    assert len(set(again)) == 1 and again[0] not in (server, os.getpid())


def test_mp_falls_back_to_spawn(monkeypatch):
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "forkserver"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    # Spawned ranks are children of the caller itself.
    assert run_spmd(2, _ppid_rank, timeout=60, transport="mp") == [os.getpid()] * 2


class _NotifyService:
    """A parent-side service with a notify hook, as the QMPI layer binds."""

    def bind_notify(self, notify):
        self.notify = notify

    def handle(self, rank, method, *args):
        return rank


def _rpc_rank(comm):
    return comm.fabric.rpc.call("whoami")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_mp_job_releases_its_fds_without_gc():
    def run():
        out = run_spmd(4, _rpc_rank, timeout=30, transport="mp", service=_NotifyService())
        assert out == [0, 1, 2, 3]
        return len(os.listdir("/proc/self/fd"))

    gc.collect()
    gc.disable()
    try:
        first = run()
        assert [run() for _ in range(4)] == [first] * 4
    finally:
        gc.enable()


def test_mp_rejects_unpicklable_fn():
    with pytest.raises(TransportError, match="picklable"):
        run_spmd(2, lambda comm: comm.rank, transport="mp")


def test_error_types_are_mpi_errors():
    from repro.mpi import MpiError

    assert issubclass(RecvTimeout, MpiError)
    assert issubclass(TransportError, MpiError)
    assert issubclass(MpiAbort, MpiError)
