"""Transport registry: how the ranks of one SPMD job are placed and wired.

The :class:`~repro.mpi.fabric.Fabric` gives ranks MPI matching semantics;
a *transport* decides where the ranks live and how envelopes travel:

* ``"inproc"`` — today's substrate: ranks are threads of the calling
  process sharing an in-memory mailbox fabric
  (:class:`~repro.mpi.runtime.InprocTransport`). Zero-copy, GIL-bound.
* ``"mp"`` — one OS process per rank, forked from a warm forkserver
  (``spawn`` where the platform has none): a pipe control plane
  carries pickled envelopes through a parent router that preserves the
  ``(context, source, tag)`` matching semantics on the remote side, and
  a :mod:`multiprocessing.shared_memory` data plane moves numpy
  payloads without transiting the pickle path
  (:class:`~repro.mpi.mp.MpTransport`).

The registry mirrors the backend registry
(:data:`repro.qmpi.backend.BACKENDS`): select by name through
``run_spmd(..., transport=...)`` / ``qmpi_run(..., transport=...)``, or
register your own with :func:`register_transport`. Built-ins load on
first request, by name, so an ``"inproc"`` run never imports ``mp``.

Service hook
------------
Process transports cannot share parent objects with the ranks, so
``run_spmd`` accepts an optional ``service``: a parent-side object with
``handle(rank, method, *args) -> result`` called synchronously for each
rank RPC, and (optionally) ``bind_notify(fn)`` receiving a
``notify(rank, message)`` function for asynchronous parent->rank pushes.
The QMPI layer uses this to keep the quantum backend and EPR rendezvous
table in the parent — the paper's §6 "forward to rank 0" discipline,
made literal across process boundaries.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Sequence

__all__ = ["Transport", "TRANSPORTS", "register_transport", "make_transport"]

#: Default wall-clock budget for one SPMD job, seconds (all transports).
DEFAULT_TIMEOUT = 120.0


class Transport:
    """One rank-placement policy. Subclasses implement :meth:`run_spmd`."""

    #: Registry name of the transport.
    name: str = "?"
    #: True when ranks share the caller's address space (objects can be
    #: handed to rank functions directly; no pickling constraints).
    inprocess: bool = True

    def run_spmd(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        service=None,
    ) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on ``n_ranks`` ranks.

        Returns per-rank results in rank order; raises
        :class:`~repro.mpi.errors.RankFailure` /
        :class:`~repro.mpi.errors.DeadlockError` exactly like
        :func:`repro.mpi.runtime.run_spmd`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: Name -> transport class; extend with :func:`register_transport`.
TRANSPORTS: dict[str, type[Transport]] = {}


def register_transport(name: str, cls: type[Transport]) -> None:
    """Register a transport class under ``name`` for :func:`make_transport`."""
    TRANSPORTS[name] = cls


#: Built-in transport name -> the sibling module that registers it on import.
_BUILTINS = {"inproc": "runtime", "mp": "mp"}


def _ensure_builtin_registration(name: str) -> None:
    # Built-ins load on first request, by name: each lives next to its
    # machinery (runtime imports this module for the registry, hence lazily).
    if name in _BUILTINS:
        importlib.import_module(f".{_BUILTINS[name]}", __package__)


def make_transport(
    spec: "str | type[Transport] | Transport" = "inproc", **opts
) -> Transport:
    """Resolve a transport spec into a ready instance.

    ``spec`` may be a :class:`Transport` instance (returned as-is), a
    transport class, or a registry name (``"inproc"``, ``"mp"``).
    Keyword options go to the constructor, e.g.
    ``make_transport("mp", shm_min_bytes=0)``.
    """
    if isinstance(spec, Transport):
        if opts:
            raise ValueError(
                "transport options cannot be applied to a prebuilt "
                f"instance: {sorted(opts)}"
            )
        return spec
    if isinstance(spec, type) and issubclass(spec, Transport):
        return spec(**opts)
    _ensure_builtin_registration(str(spec))
    try:
        cls = TRANSPORTS[str(spec)]
    except KeyError:
        raise ValueError(
            f"unknown transport {spec!r}; known: {sorted(TRANSPORTS.keys() | _BUILTINS.keys())}"
        ) from None
    return cls(**opts)
