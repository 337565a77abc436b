"""Multi-process transport: one OS process per rank, forked from a warm server.

Topology — a parent-side router with a star of duplex pipes:

* **control plane** (one pipe per rank): pickled
  :class:`~repro.mpi.fabric.Envelope` headers travel child -> router ->
  destination child; each child deposits deliveries into a local
  :class:`~repro.mpi.fabric.Mailbox`, so the ``(context, source, tag)``
  matching semantics — wildcards, arrival order, non-overtaking per
  (source, tag) — are *exactly* the in-proc fabric's, enforced on the
  remote side.
* **data plane**: numpy payloads at or above ``shm_min_bytes`` move
  through :mod:`multiprocessing.shared_memory` blocks
  (:mod:`repro.mpi.shm`); the pipes carry only small descriptors.
* **service plane** (one pipe per rank): request/reply RPC frames for
  parent-held state — the fabric's context-id counter, and whatever
  ``service`` object the caller provides (the QMPI layer parks the
  quantum backend and EPR rendezvous table there, see
  :mod:`repro.qmpi.service`). Replies are matched by request id, so any
  number of child threads can have calls in flight; asynchronous
  parent -> child pushes arrive as ``notify`` frames on the same pipe.

Lifecycle: fork -> per-rank ``hello`` handshake -> broadcast ``go`` ->
run -> per-rank ``result``/``error``/``aborted`` -> broadcast ``stop`` ->
join. Every run gets fresh rank processes, so nothing carries over
between runs.

Start method: ``forkserver`` where the platform has one, else
``spawn``. The first mp run in a process starts one server that imports
``repro.qmpi`` (and with it this module, :mod:`repro.qmpi.service` and
numpy) once; every rank of every later run forks from it, so a rank
pays no interpreter start-up and no imports. Two things differ from
``spawn``: rank processes inherit the environment variables and the
stdout/stderr the server had when the process's first mp run started
it, not the caller's at each run. ``sys.path`` and the working
directory still follow the caller on every run, but the server
imports from the interpreter's start-up path (``PYTHONPATH``, installed
packages): if ``repro`` is reachable only through an entry the caller
added to ``sys.path`` at run time, the preload is skipped and each rank
imports after the fork. If the server dies, the next run starts a new
one.

Robustness the in-proc fabric never needed:

* a rank process that dies without reporting (crash, ``os._exit``,
  ``kill -9``) is detected via its process sentinel and surfaces as a
  :class:`~repro.mpi.errors.TransportError` inside the job's
  :class:`~repro.mpi.errors.RankFailure` — never a hang;
* an error on any rank broadcasts ``abort``: blocked receivers on every
  other rank wake and raise :class:`~repro.mpi.errors.MpiAbort`
  (cross-process abort propagation);
* the wall-clock watchdog converts a wedged job into
  :class:`~repro.mpi.errors.DeadlockError`, terminating stragglers;
* per-recv timeouts (``comm.recv(timeout=...)``) behave identically to
  the in-proc transport (same :class:`Mailbox` path).

The rank function and its arguments cross a process boundary, so they
must be picklable (module-level functions — the standard
``multiprocessing`` contract).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import pickle
import queue
import threading
import time
from multiprocessing import connection as _mpc
from multiprocessing import get_context
from typing import Any, Callable, Sequence

from .comm import Communicator
from .errors import DeadlockError, MpiAbort, RankFailure, TransportError
from .fabric import Envelope, Mailbox
from .shm import SHM_MIN_BYTES, decode_payload, encode_payload, scrub_payload
from .transport import DEFAULT_TIMEOUT, Transport, register_transport

__all__ = ["MpTransport", "MpFabric", "RpcClient"]

#: Grace period for ranks to unwind after an abort broadcast, seconds.
_ABORT_GRACE = 5.0


@functools.cache
def _preload_forkserver() -> None:
    """Have the forkserver import what a rank needs before its first fork:
    this module (which ``repro.qmpi`` imports only on demand), and
    ``repro.qmpi`` with the QMPI service and numpy.

    The list is process-wide and read when the server starts, so it is
    set once, before the first job.
    """
    multiprocessing.set_forkserver_preload(["repro.mpi.mp", "repro.qmpi"])


def _picklable_exc(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return TransportError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
class RpcClient:
    """Child-side endpoint of the service plane.

    ``call`` frames carry a request id so calls from any thread
    interleave safely; a dispatcher thread routes replies to the waiting
    caller and hands ``notify`` frames to a single FIFO executor thread
    (EPR match continuations run there — never on the dispatcher, which
    must stay free to route the replies those continuations' own RPCs
    need).
    """

    def __init__(self, conn, shm_min_bytes: int = SHM_MIN_BYTES):
        self._conn = conn
        self._shm_min_bytes = shm_min_bytes
        self._wlock = threading.Lock()
        self._ids = itertools.count()
        self._pending: dict[int, list] = {}  # rid -> [event, ok, value]
        self._plock = threading.Lock()
        self._lost: BaseException | None = None
        self._notify_handler: Callable[[Any], None] | None = None
        self._notify_q: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(
            target=self._dispatch, name="mp-rpc-dispatch", daemon=True
        ).start()
        threading.Thread(
            target=self._run_notifies, name="mp-rpc-notify", daemon=True
        ).start()

    def set_notify_handler(self, fn: Callable[[Any], None]) -> None:
        """Install the handler for parent pushes (runs on the executor
        thread, in arrival order)."""
        self._notify_handler = fn

    def call(self, method: str, *args):
        """Synchronous RPC: returns the parent's result or re-raises its
        exception in this thread."""
        if self._lost is not None:
            raise self._lost
        rid = next(self._ids)
        slot = [threading.Event(), False, None]
        with self._plock:
            self._pending[rid] = slot
        payload = tuple(encode_payload(a, self._shm_min_bytes) for a in args)
        with self._wlock:
            self._conn.send(("call", rid, method, payload))
        slot[0].wait()
        if not slot[1]:
            raise slot[2]
        return decode_payload(slot[2])

    def _dispatch(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):
                self._lost = TransportError("service connection to parent lost")
                with self._plock:
                    pending, self._pending = self._pending, {}
                for slot in pending.values():
                    slot[1], slot[2] = False, self._lost
                    slot[0].set()
                self._notify_q.put(None)
                return
            kind = msg[0]
            if kind == "reply":
                _, rid, ok, value = msg
                with self._plock:
                    slot = self._pending.pop(rid, None)
                if slot is not None:
                    slot[1], slot[2] = ok, value
                    slot[0].set()
            elif kind == "notify":
                self._notify_q.put(msg[1])

    def _run_notifies(self) -> None:
        while True:
            item = self._notify_q.get()
            if item is None:
                return
            handler = self._notify_handler
            if handler is not None:
                handler(item)


class MpFabric:
    """Child-side fabric endpoint: local mailbox + routed sends.

    Duck-types the :class:`~repro.mpi.fabric.Fabric` surface a
    :class:`~repro.mpi.comm.Communicator` uses (``send``, ``recv``,
    ``probe``, ``new_context``, ``abort``, ``n_ranks``); only this rank's
    mailbox exists locally, everything else is reached through the
    router.
    """

    transport = "mp"

    def __init__(self, rank: int, n_ranks: int, conn, rpc: RpcClient, shm_min_bytes: int):
        self.rank = rank
        self.n_ranks = n_ranks
        self.rpc = rpc
        self.abort = threading.Event()
        self.mailbox = Mailbox()
        self._conn = conn
        self._wlock = threading.Lock()
        self._seq = itertools.count()
        self._shm_min_bytes = shm_min_bytes
        self._stopped = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name="mp-fabric-reader", daemon=True
        )
        self._reader.start()

    # -- outbound ------------------------------------------------------
    def post(self, frame: tuple) -> None:
        """Write one raw control frame to the router (thread-safe)."""
        with self._wlock:
            self._conn.send(frame)

    def send(self, context: int, source: int, dest: int, tag: int, payload: Any) -> None:
        if self.abort.is_set():
            raise MpiAbort("job aborted")
        if not (0 <= dest < self.n_ranks):
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self.rank:  # self-send: skip the codec and the router
            self.mailbox.deposit(Envelope(context, source, dest, tag, payload, next(self._seq)))
            return
        env = Envelope(
            context, source, dest, tag,
            encode_payload(payload, self._shm_min_bytes), next(self._seq),
        )
        self.post(("msg", env))

    # -- inbound -------------------------------------------------------
    def recv(
        self, context: int, me: int, source: int, tag: int, timeout: float | None = None
    ) -> Envelope:
        return self.mailbox.collect(context, source, tag, self.abort, timeout)

    def probe(self, context: int, me: int, source: int, tag: int) -> Envelope | None:
        return self.mailbox.peek(context, source, tag)

    def new_context(self) -> int:
        """Context ids live in the router so every rank's designated
        caller draws from one counter (see ``Fabric.new_context``)."""
        return self.rpc.call("_ctx_new")

    # -- lifecycle -----------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):  # parent vanished: treat as abort
                self.abort.set()
                self._stopped.set()
                return
            kind = msg[0]
            if kind == "deliver":
                env = msg[1]
                try:
                    env.payload = decode_payload(env.payload)
                except FileNotFoundError:  # block scrubbed during teardown
                    continue
                self.mailbox.deposit(env)
            elif kind == "abort":
                self.abort.set()
            elif kind == "stop":
                self._stopped.set()
                return

    def wait_stop(self, timeout: float = 10.0) -> None:
        self._stopped.wait(timeout)

    def scrub(self) -> None:
        """Release shm blocks of undelivered messages (exit path)."""
        try:
            while self._conn.poll(0):
                msg = self._conn.recv()
                if msg[0] == "deliver":
                    scrub_payload(msg[1].payload)
        except (EOFError, OSError):
            pass


def _child_main(
    rank: int,
    n_ranks: int,
    fab_conn,
    svc_conn,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    shm_min_bytes: int,
) -> None:
    """Entry point of one rank process."""
    fab_conn.send(("hello", rank))
    try:
        first = fab_conn.recv()
    except (EOFError, OSError):
        return
    if first[0] != "go":  # startup aborted before launch
        return
    rpc = RpcClient(svc_conn, shm_min_bytes)
    fabric = MpFabric(rank, n_ranks, fab_conn, rpc, shm_min_bytes)
    comm = Communicator(fabric, context=0, group=tuple(range(n_ranks)), rank=rank)
    try:
        value = fn(comm, *args, **kwargs)
    except MpiAbort:
        # Secondary failure caused by teardown — not the root cause.
        fabric.post(("aborted",))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        fabric.post(("error", _picklable_exc(exc)))
    else:
        try:
            fabric.post(("result", value))
        except Exception as exc:  # unpicklable return value
            fabric.post(("error", TransportError(f"rank {rank} result does not pickle: {exc}")))
    fabric.wait_stop()
    fabric.scrub()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class MpTransport(Transport):
    """Single-host multi-process transport (ranks fork from a forkserver).

    Parameters
    ----------
    shm_min_bytes:
        Data-plane threshold: numpy payloads at or above this many bytes
        cross through shared memory instead of the pickle path. ``0``
        forces every array through shm (useful in tests); a very large
        value disables the data plane.
    """

    name = "mp"
    inprocess = False

    def __init__(self, shm_min_bytes: int = SHM_MIN_BYTES):
        self.shm_min_bytes = int(shm_min_bytes)

    def run_spmd(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        service=None,
    ) -> list[Any]:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        try:
            pickle.dumps((fn, tuple(args), dict(kwargs or {})))
        except Exception as exc:
            raise TransportError(
                "transport='mp' runs ranks in separate processes: the rank "
                "function and its arguments must be picklable (module-level "
                f"function, no closures): {exc}"
            ) from None
        job = _Job(self, n_ranks, fn, tuple(args), dict(kwargs or {}), timeout, service)
        return job.run()


class _Job:
    """One mp SPMD run: fork, route, collect, tear down."""

    def __init__(self, transport, n_ranks, fn, args, kwargs, timeout, service):
        self.transport = transport
        self.n_ranks = n_ranks
        self.timeout = timeout
        self.service = service
        _preload_forkserver()
        self.ctx = get_context(
            "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self.fab: list = [None] * n_ranks  # parent ends, control plane
        self.svc: list = [None] * n_ranks  # parent ends, service plane
        self.procs: list = []
        self._child_ends: list = []  # (fab, svc) child ends, per rank
        self.results: list = [None] * n_ranks
        self.failures: dict[int, BaseException] = {}
        self.done: set[int] = set()
        self.hello: set[int] = set()
        self.launched = False
        self.aborting = False
        self._ctx_counter = itertools.count(1)
        for r in range(n_ranks):
            fp, fc = self.ctx.Pipe()
            sp, sc = self.ctx.Pipe()
            self.fab[r], self.svc[r] = fp, sp
            self._child_ends.append((fc, sc))
            self.procs.append(
                self.ctx.Process(
                    target=_child_main,
                    args=(r, n_ranks, fc, sc, fn, args, kwargs, transport.shm_min_bytes),
                    name=f"mp-rank-{r}",
                    daemon=True,
                )
            )
        if service is not None and hasattr(service, "bind_notify"):
            service.bind_notify(self._notify)

    # -- parent -> child pushes (router thread only) -------------------
    def _notify(self, rank: int, message) -> None:
        try:
            self.svc[rank].send(("notify", message))
        except (BrokenPipeError, OSError):  # rank died; its failure is
            pass  # surfaced via the sentinel

    def _broadcast(self, frame: tuple, ranks=None) -> None:
        for r in ranks if ranks is not None else range(self.n_ranks):
            try:
                self.fab[r].send(frame)
            except (BrokenPipeError, OSError):
                pass

    # -- inbound frame handlers ----------------------------------------
    def _on_fabric(self, rank: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "hello":
            self.hello.add(rank)
            if not self.launched and len(self.hello) == self.n_ranks:
                self.launched = True
                self._broadcast(("go",))
        elif kind == "msg":
            env = msg[1]
            if env.dest in self.done:
                scrub_payload(env.payload)  # receiver already gone
            else:
                try:
                    self.fab[env.dest].send(("deliver", env))
                except (BrokenPipeError, OSError):
                    scrub_payload(env.payload)
        elif kind == "result":
            self.results[rank] = msg[1]
            self.done.add(rank)
        elif kind == "aborted":
            self.done.add(rank)
        elif kind == "error":
            self.failures[rank] = msg[1]
            self.done.add(rank)
            self._start_abort()

    def _on_service(self, rank: int, msg: tuple) -> None:
        _, rid, method, payload = msg
        try:
            if method == "_ctx_new":
                result = next(self._ctx_counter)
            elif self.service is None:
                raise TransportError(f"no service bound for RPC {method!r}")
            else:
                args = tuple(decode_payload(a) for a in payload)
                result = self.service.handle(rank, method, *args)
            reply = ("reply", rid, True, encode_payload(result, self.transport.shm_min_bytes))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the child
            reply = ("reply", rid, False, _picklable_exc(exc))
        try:
            self.svc[rank].send(reply)
        except (BrokenPipeError, OSError):
            pass

    def _on_dead(self, rank: int) -> None:
        self.procs[rank].join(0.2)
        code = self.procs[rank].exitcode
        self.failures[rank] = TransportError(
            f"rank {rank} process died (exit code {code}) without reporting a result"
        )
        self.done.add(rank)
        self._start_abort()

    def _start_abort(self) -> None:
        if not self.aborting:
            self.aborting = True
            self._broadcast(("abort",), ranks=(set(range(self.n_ranks)) - self.done))

    # -- main loop ------------------------------------------------------
    def run(self) -> list:
        for p, child_ends in zip(self.procs, self._child_ends):
            p.start()
            # start() handed the child its pipe ends; close the parent's
            # copies, so EOF on a parent end means "rank gone" and a
            # finished job holds no file descriptors.
            for conn in child_ends:
                conn.close()
        deadline = time.monotonic() + self.timeout
        watchdog_fired = False
        sources: dict = {}
        for r in range(self.n_ranks):
            sources[self.fab[r]] = ("fab", r)
            sources[self.svc[r]] = ("svc", r)
            sources[self.procs[r].sentinel] = ("dead", r)
        try:
            while len(self.done) < self.n_ranks:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if watchdog_fired:
                        break  # grace period exhausted too
                    watchdog_fired = True
                    self._start_abort()
                    deadline = time.monotonic() + _ABORT_GRACE
                    continue
                for obj in _mpc.wait(list(sources), timeout=min(remaining, 0.2)):
                    plane, rank = sources[obj]
                    if plane == "dead":
                        del sources[obj]
                        if rank not in self.done:
                            self._on_dead(rank)
                        continue
                    try:
                        while obj.poll(0):
                            msg = obj.recv()
                            if plane == "fab":
                                self._on_fabric(rank, msg)
                            else:
                                self._on_service(rank, msg)
                    except (EOFError, OSError):
                        del sources[obj]  # sentinel handles the death
        finally:
            self._teardown()
        if self.failures:
            raise RankFailure(self.failures)
        if watchdog_fired:
            stuck = sorted(set(range(self.n_ranks)) - self.done)
            raise DeadlockError(
                f"SPMD job did not finish within {self.timeout}s; "
                f"stuck: {[f'rank-{r}' for r in stuck] or 'none (aborted cleanly)'}"
            )
        return self.results

    def _teardown(self) -> None:
        if self.service is not None and hasattr(self.service, "bind_notify"):
            self.service.bind_notify(None)  # break the job <-> service cycle
        self._broadcast(("stop",))
        for p in self.procs:
            p.join(2.0)
        for p in self.procs:
            if p.is_alive():
                p.terminate()
                p.join(2.0)
            if p.exitcode is not None:
                p.close()  # releases the sentinel fd now, not at GC
        for conn in (*self.fab, *self.svc):
            # Drain undelivered frames so their shm blocks are released.
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg[0] == "msg":
                        scrub_payload(msg[1].payload)
            except (EOFError, OSError):
                pass
            conn.close()


register_transport(MpTransport.name, MpTransport)
