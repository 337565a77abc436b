"""QMPI over process transports: the parent-side quantum node service.

The paper's prototype keeps one shared state vector and has every rank
forward quantum operations to it (§6). With ``transport="inproc"`` that
forwarding is a method call on a shared object; with ``transport="mp"``
the ranks live in separate OS processes, so this module makes the
forwarding literal: the backend, the EPR rendezvous table, and the
resource ledger stay in the *parent* process as a
:class:`QmpiServiceHost`, and each rank process drives them through
:class:`BackendProxy` / :class:`EprProxy` over the transport's service
plane (:class:`repro.mpi.mp.RpcClient`).

Division of labor:

* **gates, measurement, allocation** — synchronous RPCs; the parent
  router executes them in arrival order, so per-rank program order is
  preserved exactly as the backend lock preserves it in-process. A
  stream flush is one ``apply_flush`` RPC, lowered and cached by the
  parent's :class:`~repro.sim.cache.ScheduleCache` as in-process.
* **EPR rendezvous** — ``iprepare`` registers in the parent's real
  :class:`~repro.qmpi.epr.EprService` and returns immediately; when the
  peer shows up, the match is pushed to both ranks as a ``notify`` frame
  and each rank runs its protocol continuation *locally* (CNOT, parity
  measurement, classical fixup bits — each step an RPC / fabric message
  of its own). Blocking ``prepare`` is ``iprepare().wait()`` with abort
  polling, mirroring ``EprService._await``.
* **resource accounting** — ledger scopes are keyed by thread identity,
  so each rank keeps a local :class:`~repro.qmpi.resource.Ledger` for
  row attribution and merges it into the parent's at teardown
  (``ledger_merge``); EPR pairs are recorded by the parent-side service
  at entanglement time, exactly once.

Nothing in :mod:`repro.sim` changes: the engines see the same
``apply_flush`` / ``apply_ops`` batches as in-process, from one process.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from typing import Any, Callable, Sequence

from ..mpi.errors import MpiAbort, TransportError
from ..mpi.runtime import run_spmd
from . import ops as _ops
from .backend import QuantumBackend
from .epr import EprService
from .ops import GateDef, Op
from .resource import Ledger

__all__ = ["QmpiServiceHost", "BackendProxy", "EprProxy", "execute_mp"]


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class QmpiServiceHost:
    """Parent-side RPC endpoint: backend + EPR service + ledger.

    ``handle`` runs on the transport's router thread, so every method
    must return promptly — nothing here blocks on another rank (EPR
    matching is continuation-based for exactly this reason).
    """

    #: Backend methods rank processes may invoke. Rank-scoped methods
    #: receive the rank explicitly from the proxy; the whitelist keeps
    #: parent-only surfaces (``begin_shots``, ``reseed``, ``counts``)
    #: out of reach of rank code.
    BACKEND_METHODS = frozenset(
        {
            "alloc",
            "free",
            "apply_flush",
            "apply_ops",
            "measure",
            "measure_and_release",
            "apply_pauli_if",
            "prob_one",
            "statevector",
            "owner",
            "owned_by",
            "transfer",
            "qubit_ids",
        }
    )

    def __init__(self, backend: QuantumBackend, epr: EprService, ledger: Ledger):
        self.backend = backend
        self.epr = epr
        self.ledger = ledger
        self._notify: Callable[[int, Any], None] | None = None

    def bind_notify(self, notify: Callable[[int, Any], None]) -> None:
        """Transport hook: receive the parent->rank push function."""
        self._notify = notify

    def handle(self, rank: int, method: str, *args):
        """Dispatch one rank RPC (router thread; must not block)."""
        if method == "backend":
            name, rest = args[0], args[1:]
            if name not in self.BACKEND_METHODS:
                raise TransportError(f"backend method {name!r} not remotable")
            return getattr(self.backend, name)(*rest)
        if method == "epr_iprepare":
            token, qubit, peer, tag, context, direction = args
            notify = self._notify

            def on_match(rank=rank, token=token):
                if notify is not None:
                    notify(rank, ("epr", token))

            self.epr.iprepare(
                rank, qubit, peer, tag, context, direction, on_match=on_match
            )
            return None
        if method == "epr_consume":
            self.epr.consume(rank)
            return None
        if method == "epr_buffered":
            return self.epr.buffered(rank)
        if method == "ledger_merge":
            self._merge_ledger(*args)
            return None
        raise TransportError(f"unknown QMPI service RPC {method!r}")

    def _merge_ledger(self, totals: tuple, rows: list) -> None:
        from .resource import OpRow

        epr_pairs, bits, messages, _ = totals
        with self.ledger._lock:
            # EPR pairs were recorded parent-side at entanglement time;
            # rank ledgers only ever contribute classical traffic.
            self.ledger.epr_pairs += epr_pairs
            self.ledger.classical_bits += bits
            self.ledger.classical_messages += messages
            for name, row_epr, row_bits, calls in rows:
                row = self.ledger.rows.setdefault(name, OpRow(name))
                row.epr_pairs += row_epr
                row.classical_bits += row_bits
                row.calls += calls


# ----------------------------------------------------------------------
# child side: proxies
# ----------------------------------------------------------------------
class BackendProxy:
    """Rank-process stand-in for the parent's :class:`QuantumBackend`.

    Same call surface, every method one synchronous RPC: the forwarders
    are generated from :attr:`QmpiServiceHost.BACKEND_METHODS` below (as
    are the :data:`~repro.qmpi.ops.GATESET` shims); only the methods
    that normalise their arguments are written out.
    Large results — ``statevector`` above the transport's shm threshold —
    come back through the shared-memory data plane.
    """

    def __init__(self, rpc):
        self._rpc = rpc

    def _call(self, name, *args):
        return self._rpc.call("backend", name, *args)

    def free(self, rank, qubits):
        self._call("free", rank, list(qubits) if not isinstance(qubits, int) else qubits)

    def apply_ops(self, rank, ops):
        ops = tuple(ops)
        if ops:
            self._call("apply_ops", rank, ops)


def _install_forwarder(name: str) -> None:
    """One remotable backend method as a positional RPC: the signature
    (keywords, defaults) is read off :class:`QuantumBackend`, never
    restated here."""
    signature = inspect.signature(getattr(QuantumBackend, name))

    def forward(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        return self._call(name, *bound.args[1:])

    forward.__name__ = name
    forward.__doc__ = f"``QuantumBackend.{name}`` on the parent's backend, as one RPC."
    setattr(BackendProxy, name, forward)


for _name in sorted(QmpiServiceHost.BACKEND_METHODS - vars(BackendProxy).keys()):
    _install_forwarder(_name)


def _install_proxy_shim(gd: GateDef) -> None:
    n_args = gd.n_qubits + gd.n_params

    def shim(self, rank, *args):
        if len(args) != n_args:
            raise TypeError(
                f"{gd.name}(rank, {gd.signature()}) takes {n_args} operands, "
                f"got {len(args)}"
            )
        self.apply_ops(rank, (Op(gd.name, args[: gd.n_qubits], args[gd.n_qubits :]),))

    _ops.install_gate_method(
        BackendProxy,
        gd,
        shim,
        f"``{gd.name}(rank, {gd.signature()})`` — forwarded to the parent "
        f"backend as a one-op RPC batch.",
    )


_ops.bind_gateset(_install_proxy_shim)


class MpEprRequest:
    """Child-side handle of one pending EPR rendezvous."""

    def __init__(self, proxy: "EprProxy", token: int):
        self._proxy = proxy
        self._token = token
        self._done = threading.Event()
        self._error: BaseException | None = None

    def wait(self) -> None:
        while not self._done.wait(timeout=0.05):
            abort = self._proxy.abort
            if abort is not None and abort.is_set():
                raise MpiAbort("job aborted while waiting for EPR rendezvous")
        if self._error is not None:
            raise self._error

    def test(self) -> bool:
        return self._done.is_set()


class EprProxy:
    """Rank-process stand-in for the parent's :class:`EprService`.

    ``iprepare`` registers the waiter locally *first*, then posts the
    rendezvous RPC — the match notification can arrive before the RPC
    reply (the peer may already be waiting), and the waiter must exist by
    then. Match continuations run on the RPC client's notify-executor
    thread in match order; the completion event fires only after the
    continuation finished, matching the in-process contract.
    """

    def __init__(self, rpc, abort: threading.Event | None = None):
        self._rpc = rpc
        self.abort = abort
        self._tokens = itertools.count()
        self._waiters: dict[int, tuple[MpEprRequest, Any]] = {}
        self._lock = threading.Lock()
        rpc.set_notify_handler(self._on_notify)

    def iprepare(
        self, rank, qubit, peer, tag=0, context=0, direction=0, on_match=None
    ) -> MpEprRequest:
        token = next(self._tokens)
        req = MpEprRequest(self, token)
        with self._lock:
            self._waiters[token] = (req, on_match)
        try:
            self._rpc.call("epr_iprepare", token, qubit, peer, tag, context, direction)
        except BaseException:
            with self._lock:
                self._waiters.pop(token, None)
            raise
        return req

    def prepare(self, rank, qubit, peer, tag=0, context=0, direction=0) -> None:
        self.iprepare(rank, qubit, peer, tag, context, direction).wait()

    def consume(self, rank) -> None:
        self._rpc.call("epr_consume")

    def buffered(self, rank) -> int:
        return self._rpc.call("epr_buffered")

    def _on_notify(self, message) -> None:
        kind, token = message
        if kind != "epr":
            return
        with self._lock:
            entry = self._waiters.pop(token, None)
        if entry is None:
            return
        req, callback = entry
        if callback is not None:
            try:
                callback()
            except BaseException as exc:  # noqa: BLE001 - surfaces at wait()
                req._error = exc
        req._done.set()


# ----------------------------------------------------------------------
# execution glue
# ----------------------------------------------------------------------
class _MpQmpiBody:
    """Picklable SPMD body: rebuild the QMPI endpoint from proxies.

    Instances cross the process boundary, so ``fn`` must itself be
    picklable (module-level); state is limited to plain fields.
    """

    def __init__(self, fn: Callable[..., Any], fusion):
        self.fn = fn
        self.fusion = fusion

    def __call__(self, comm, *args, **kwargs):
        from .api import QmpiComm  # runtime import: api imports us lazily

        rpc = comm.fabric.rpc
        backend = BackendProxy(rpc)
        epr = EprProxy(rpc, abort=comm.fabric.abort)
        ledger = Ledger()
        qc = QmpiComm(comm, backend, epr, ledger, fusion=self.fusion)
        try:
            return self.fn(qc, *args, **kwargs)
        finally:
            qc.flush_ops()
            rows = [
                (row.name, row.epr_pairs, row.classical_bits, row.calls)
                for row in ledger.rows.values()
            ]
            totals = (
                ledger.epr_pairs,
                ledger.classical_bits,
                ledger.classical_messages,
                None,
            )
            rpc.call("ledger_merge", totals, rows)


def execute_mp(
    backend: QuantumBackend,
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any],
    kwargs: dict | None,
    s_limit: int | None,
    timeout: float,
    fusion,
    transport,
) -> tuple[list, Ledger]:
    """Run ``fn`` SPMD over a process transport with a parent-held backend.

    The process-transport counterpart of ``repro.qmpi.api._execute``:
    same contract (results in rank order, shared ledger), but the rank
    endpoints talk to the backend through the service plane.
    """
    ledger = Ledger()
    epr = EprService(backend, ledger, s_limit=s_limit)
    host = QmpiServiceHost(backend, epr, ledger)
    results = run_spmd(
        n_ranks,
        _MpQmpiBody(fn, fusion),
        args,
        kwargs,
        timeout,
        transport=transport,
        service=host,
    )
    return results, ledger
