"""Shared-memory data plane for cross-process message payloads.

The multi-process transport moves classical control traffic (pickled
:class:`~repro.mpi.fabric.Envelope` headers, protocol bits, RPC frames)
over pipes, but numpy payloads — reduce arrays, amplitude vectors
returned by ``statevector``, anything bulk — should not transit the
pickle path: pickling copies once into the pipe buffer, once out, and
serializes through the router. This codec lifts large ``ndarray``
payloads into :mod:`multiprocessing.shared_memory` blocks and replaces
them with small :class:`ShmBlock` descriptors; the pipe then carries
only the descriptor.

Ownership protocol: the *sender* creates the block and forgets it; the
*receiver* attaches, copies out, and unlinks. All processes of one job
share the parent's resource-tracker daemon (the forkserver passes its fd
to every rank it forks; under ``spawn`` the child inherits it), so
registration is balanced — register on create, unregister on the
receiver's unlink — and a block orphaned by a dead rank is reclaimed by
the tracker at shutdown instead of leaking until reboot.

Arrays are encoded when they are the payload itself or sit one level
inside a ``tuple``/``list`` payload (the shapes classical collectives
produce); anything deeper rides the pickle path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:  # platforms without POSIX shared memory fall back to pickling
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms
    _shm = None

__all__ = ["ShmBlock", "SHM_MIN_BYTES", "encode_payload", "decode_payload", "scrub_payload"]

#: Arrays below this many bytes ride the pickle path; at or above it they
#: move through a shared-memory block. Pipes copy twice and serialize
#: through the router thread, so the crossover favors shm early.
SHM_MIN_BYTES = 1 << 14


@dataclass(frozen=True)
class ShmBlock:
    """Descriptor of one numpy array parked in a shared-memory block."""

    name: str
    shape: tuple
    dtype: str

    def attach(self) -> np.ndarray:
        """Copy the array out of the block and release it (receiver side)."""
        seg = _attach(self.name)
        try:
            flat = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=seg.buf)
            out = flat.copy()
        finally:
            seg.close()
            _unlink(seg)
        return out

    def discard(self) -> None:
        """Release the block without reading it (abort/teardown paths)."""
        try:
            seg = _attach(self.name)
        except FileNotFoundError:
            return
        seg.close()
        _unlink(seg)


def _attach(name: str):
    """Attach without re-registering where the runtime allows it."""
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: attach registration is idempotent
        return _shm.SharedMemory(name=name)


def _unlink(seg) -> None:
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


def _park(arr: np.ndarray) -> ShmBlock:
    arr = np.ascontiguousarray(arr)
    seg = _shm.SharedMemory(create=True, size=max(1, arr.nbytes))
    try:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
    finally:
        seg.close()
    return ShmBlock(seg.name, tuple(arr.shape), arr.dtype.str)


def _eligible(obj, min_bytes: int) -> bool:
    return (
        isinstance(obj, np.ndarray)
        and obj.nbytes >= min_bytes
        and obj.dtype.hasobject is False
    )


def encode_payload(obj, min_bytes: int = SHM_MIN_BYTES):
    """Replace large arrays in ``obj`` with :class:`ShmBlock` descriptors.

    Handles a bare ``ndarray`` and arrays one level inside a
    ``tuple``/``list``; everything else is returned unchanged. With shared
    memory unavailable the input passes through untouched (pure pickle
    fallback).
    """
    if _shm is None:
        return obj
    if _eligible(obj, min_bytes):
        return _park(obj)
    if isinstance(obj, (tuple, list)) and any(_eligible(x, min_bytes) for x in obj):
        items = [_park(x) if _eligible(x, min_bytes) else x for x in obj]
        return tuple(items) if isinstance(obj, tuple) else items
    return obj


def decode_payload(obj):
    """Inverse of :func:`encode_payload` (receiver side: copy + unlink)."""
    if isinstance(obj, ShmBlock):
        return obj.attach()
    if isinstance(obj, (tuple, list)) and any(isinstance(x, ShmBlock) for x in obj):
        items = [x.attach() if isinstance(x, ShmBlock) else x for x in obj]
        return tuple(items) if isinstance(obj, tuple) else items
    return obj


def scrub_payload(obj) -> None:
    """Release any blocks referenced by an encoded payload that will never
    be decoded (undelivered messages found during teardown)."""
    if isinstance(obj, ShmBlock):
        obj.discard()
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            if isinstance(x, ShmBlock):
                x.discard()
