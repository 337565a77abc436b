"""SPMD launcher: runs the same function on N ranks.

This replaces ``mpiexec -n N python script.py``. Each rank gets its own
:class:`~repro.mpi.comm.Communicator` endpoint of COMM_WORLD; return
values are collected per rank, exceptions propagate to the caller, and a
watchdog converts hangs into :class:`~repro.mpi.errors.DeadlockError`
instead of wedging the test suite.

Rank placement is a transport policy (see :mod:`repro.mpi.transport`):
``transport="inproc"`` (default) runs ranks as threads over the
in-memory mailbox fabric; ``transport="mp"`` forks one OS process per
rank from a warm forkserver, with a pipe control plane and a
shared-memory data plane. Process transports pickle the rank function
and its arguments, so both must be importable module-level objects,
exactly as with ``multiprocessing``.

Example
-------
>>> from repro.mpi import run_spmd
>>> def hello(comm):
...     return comm.allreduce(comm.rank)
>>> run_spmd(4, hello)
[6, 6, 6, 6]
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from .comm import Communicator
from .errors import DeadlockError, MpiAbort, RankFailure
from .fabric import Fabric
from .transport import DEFAULT_TIMEOUT, Transport, make_transport, register_transport

__all__ = ["run_spmd", "world_of", "InprocTransport", "DEFAULT_TIMEOUT"]


def world_of(fabric, rank: int) -> Communicator:
    """COMM_WORLD endpoint for ``rank`` on ``fabric`` (context 0)."""
    return Communicator(fabric, context=0, group=tuple(range(fabric.n_ranks)), rank=rank)


class InprocTransport(Transport):
    """Ranks as daemon threads over one in-memory mailbox fabric.

    The zero-copy default: payloads are shared Python objects, the
    quantum backend is reachable by reference, and there are no pickling
    constraints on the rank function. All ranks contend for one GIL, so
    classical rank work never scales with rank count here — that is what
    ``transport="mp"`` is for.
    """

    name = "inproc"
    inprocess = True

    def run_spmd(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        service=None,
    ) -> list[Any]:
        kwargs = dict(kwargs or {})
        fabric = Fabric(n_ranks)
        results: list[Any] = [None] * n_ranks
        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()

        def body(rank: int) -> None:
            comm = world_of(fabric, rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except MpiAbort:
                # Secondary failure caused by teardown — not the root cause.
                pass
            except BaseException as exc:  # noqa: BLE001 - collected and re-raised
                with failures_lock:
                    failures[rank] = exc
                fabric.abort.set()

        threads = [
            threading.Thread(target=body, args=(r,), name=f"rank-{r}", daemon=True)
            for r in range(n_ranks)
        ]
        for t in threads:
            t.start()
        deadline = threading.Event()
        for t in threads:
            t.join(timeout)
            if t.is_alive():
                deadline.set()
                break
        if deadline.is_set():
            fabric.abort.set()
            for t in threads:
                t.join(5.0)
            if failures:
                raise RankFailure(failures)
            stuck = [t.name for t in threads if t.is_alive()]
            raise DeadlockError(
                f"SPMD job did not finish within {timeout}s; "
                f"stuck: {stuck or 'none (aborted cleanly)'}"
            )
        if failures:
            raise RankFailure(failures)
        return results


register_transport(InprocTransport.name, InprocTransport)


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    transport: "str | type[Transport] | Transport" = "inproc",
    service=None,
    **transport_opts,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``n_ranks`` concurrent ranks.

    Returns the per-rank return values, in rank order.

    Parameters
    ----------
    transport:
        Rank placement: ``"inproc"`` (threads, the default), ``"mp"``
        (one forked process per rank), a :class:`Transport` class, or a
        prebuilt instance. See :mod:`repro.mpi.transport`.
    service:
        Optional parent-side RPC endpoint for process transports (see
        the service hook protocol in :mod:`repro.mpi.transport`).
    **transport_opts:
        Constructor options for a name/class transport spec, e.g.
        ``run_spmd(..., transport="mp", shm_min_bytes=0)``.

    Raises
    ------
    RankFailure
        If any rank raised; carries all per-rank exceptions. A rank
        process that dies without reporting (crash, ``os._exit``, kill)
        surfaces here as a :class:`~repro.mpi.errors.TransportError`.
    DeadlockError
        If ranks are still blocked after ``timeout`` seconds.
    """
    t = make_transport(transport, **transport_opts)
    return t.run_spmd(n_ranks, fn, args, kwargs, timeout, service=service)
