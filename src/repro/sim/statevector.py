"""The paper's one global state vector: the amplitude store with one chunk.

The paper's C++ prototype (§6) keeps one global state vector owned by
rank 0.  A sharded register with one chunk is exactly that vector, so
:class:`StateVector` is :class:`~repro.sim.sharded.ShardedStateVector`
with ``n_shards=1`` — one store, one freeze path, one ``layout_key``
format — and :class:`repro.qmpi.backend.SharedBackend` adds the
rank-0-style serialization on top.
"""

from __future__ import annotations

from .ops import SimulationError
from .sharded import ShardedStateVector

__all__ = ["StateVector", "SimulationError"]


class StateVector(ShardedStateVector):
    """A dynamically sized full state-vector simulator: one chunk.

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    dtype:
        Amplitude precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory/bandwidth at float32
        precision).  ``None`` reads ``REPRO_QMPI_DTYPE`` before
        defaulting to ``"complex128"``.

    Examples
    --------
    >>> sv = StateVector(2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    def __init__(self, n_qubits: int = 0, seed=None, dtype: str | None = None):
        super().__init__(n_qubits, seed, n_shards=1, dtype=dtype)

    # Named in this class body so per-engine tracing can wrap them.
    compile_batch = ShardedStateVector.compile_batch
    freeze_segments = ShardedStateVector.freeze_segments
    execute_frozen = ShardedStateVector.execute_frozen
    execute_segments = ShardedStateVector.execute_segments
    apply_ops = ShardedStateVector.apply_ops
