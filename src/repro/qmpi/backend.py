"""Quantum backends: rank-checked facades over a simulation engine.

The paper's prototype (§6): "To ensure that the state vector faithfully
represents the quantum state of the distributed quantum computer at any
point throughout the computation, all ranks forward quantum operations to
rank 0, which then applies the operation to the state vector."

:class:`QuantumBackend` keeps that discipline — a mutex plus per-rank
qubit *ownership*, so any cross-node interaction must go through the
EPR-based QMPI protocols, exactly as real distributed hardware imposes —
but decouples it from how the amplitudes are stored:

* :class:`SharedBackend` reproduces the paper's rank-0 bottleneck with
  one monolithic :class:`~repro.sim.statevector.StateVector`;
* :class:`ShardedBackend` distributes the amplitudes over per-rank
  chunks (:class:`~repro.sim.sharded.ShardedStateVector`), the layout
  classical HPC simulators use to scale.

Both are drop-in interchangeable anywhere a backend is consumed; pick one
via :func:`make_backend` or the ``backend=`` argument of
:func:`repro.qmpi.api.qmpi_run`.

Like the prototype, there is one gate path: whatever enters —
a flushed stream buffer (:meth:`QuantumBackend.apply_flush`) or an
already-lowered batch (:meth:`QuantumBackend.apply_ops`) — is compiled,
frozen and run by the engine's single executor, ``execute_frozen``.
The five-method engine contract is stated once, in
:class:`QuantumBackend`'s docstring.
"""

from __future__ import annotations

import threading
import warnings
from collections import Counter
from typing import Sequence

import numpy as np

from ..sim.cache import ScheduleCache
from ..sim.schedule import lower_flush
from ..sim.sharded import ShardedStateVector
from ..sim.shots import ShotBits
from ..sim.statevector import SimulationError, StateVector
from . import ops as _ops
from .ops import GateDef, Op
from .qubit import Qureg

__all__ = [
    "QuantumBackend",
    "SharedBackend",
    "ShardedBackend",
    "LocalityError",
    "BACKENDS",
    "make_backend",
    "register_backend",
]


class LocalityError(SimulationError):
    """A rank attempted to operate on a qubit it does not own."""


class QuantumBackend:
    """Thread-safe engine facade with per-rank qubit ownership.

    Subclasses supply the engine (anything with the
    :class:`~repro.sim.statevector.StateVector` surface); this base class
    owns the lock, the ownership table, and locality enforcement.

    **Engine contract.** Besides allocation (an engine may keep a fresh
    qubit as a pending product factor until a call couples it to the
    register; ``num_qubits``/``qubit_ids`` count it from ``alloc`` on),
    measurement and inspection — which include, called directly and
    never probed for, ``begin_shots(shots)``, ``reseed(seed)``,
    ``apply_pauli_if(cond, pauli, qubit)`` and
    ``measure_and_release(qubit, basis="Z", control=None)``
    (``cnot(control, qubit)`` if ``control`` is given, ``h(qubit)`` if
    ``basis == "X"``, then Z-measure and remove) — an engine executes
    gate batches through exactly five methods:

    * ``layout_key(qubit_ids)`` — hashable fingerprint of everything a
      frozen program depends on (positions of the touched qubits, chunk
      layout, shots axis, dtype); equal keys mean a program frozen
      under one is exact under the other;
    * ``compile_batch(lowered_ops)`` — lowered records to a segment
      list (:func:`repro.sim.schedule.compile_segments`);
    * ``freeze_segments(segments)`` — segments to a replay program
      against the current layout, referencing the live segments so
      in-place rebinding flows through;
    * ``execute_frozen(program)`` — run it: the engine's **only**
      gate-batch executor;
    * ``apply_ops(lowered_ops)`` — the one-shot composition
      compile → freeze → execute.

    ``route_copies(ops)`` returns the batch with the engine's fan-out
    copy entries resolved (a diagonal op on a copy runs on its source,
    the rest materialise it; see :class:`repro.sim.register.Register`,
    which both engines inherit): ``apply_ops`` calls it, and
    :meth:`apply_flush` calls it before its schedule cache.

    :meth:`apply_flush` (a rank's flushed buffer: lowered, compiled and
    frozen through the schedule cache) and :meth:`apply_ops`
    (already-lowered batches, chiefly the protocols' one-op batches)
    are the two gate entry points; both end in ``execute_frozen``.
    Named gate methods (``h(rank, q)``, ``cnot(rank, c, t)``,
    ``crz(rank, c, t, theta)``, ...) are generated from the
    :data:`~repro.qmpi.ops.GATESET` registry — one shim per gate, each
    emitting a one-op batch — so registering a new
    :class:`~repro.qmpi.ops.GateDef` extends every backend at once.
    """

    def __init__(self, engine, cache: str = "on"):
        if cache not in ("on", "off"):
            raise ValueError(f'cache must be "on" or "off", got {cache!r}')
        self._sv = engine
        self._lock = threading.RLock()
        self._owner: dict[int, int] = {}
        #: Shot count when shot-batched mode is active (else ``None``).
        self.shots: int | None = None
        self._measure_log: list[tuple[int, object]] = []
        #: The flush-schedule cache (see :mod:`repro.sim.cache`), or
        #: ``None`` with ``cache="off"``.
        self.schedule_cache: ScheduleCache | None = (
            ScheduleCache() if cache == "on" else None
        )

    # ------------------------------------------------------------------
    # shot-batched mode
    # ------------------------------------------------------------------
    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: one run tracks ``shots`` trajectories.

        Delegates to the engine's ``begin_shots`` (see
        :mod:`repro.sim.shots`); measurements then return per-shot
        :class:`~repro.sim.shots.ShotBits` and are recorded for
        :meth:`counts`. Must be called before any measurement.
        """
        with self._lock:
            self._sv.begin_shots(shots)
            self.shots = int(shots)
            self._measure_log = []

    def reseed(self, seed) -> None:
        """Replace the engine's measurement RNG and clear the shot log.

        A sweep over one prebuilt backend calls this before each
        ``qmpi_run`` to give every point its own reproducible stream.
        """
        with self._lock:
            self._sv.reseed(seed)
            self._measure_log = []

    def counts(self) -> Counter:
        """Histogram of per-shot measurement bitstrings.

        One string per shot: every measurement recorded this run, stably
        ordered by measuring rank (program order within a rank), first
        measurement leftmost. Requires shot-batched mode.
        """
        with self._lock:
            if self.shots is None:
                raise SimulationError(
                    "counts() requires shot-batched mode; run with shots="
                )
            order = sorted(
                range(len(self._measure_log)),
                key=lambda i: self._measure_log[i][0],
            )
            cols = []
            for i in order:
                _, bits = self._measure_log[i]
                if isinstance(bits, ShotBits):
                    cols.append(bits.values)
                else:
                    cols.append(np.full(self.shots, int(bits), dtype=np.int64))
            if not cols:
                return Counter({"": self.shots})
            mat = np.stack(cols, axis=1)
            return Counter(
                "".join("1" if b else "0" for b in row) for row in mat
            )

    # ------------------------------------------------------------------
    # allocation & ownership
    # ------------------------------------------------------------------
    def alloc(self, rank: int, n: int = 1) -> Qureg:
        """Allocate ``n`` fresh |0> qubits owned by ``rank``."""
        with self._lock:
            ids = self._sv.alloc(n)
            for q in ids:
                self._owner[q] = rank
            return Qureg(ids)

    def free(self, rank: int, qubits: Sequence[int] | int) -> None:
        """Release qubits (must be disentangled |0>, as in QMPI_Free_qmem)."""
        if isinstance(qubits, int):
            qubits = [qubits]
        with self._lock:
            for q in qubits:
                self._check_owner(rank, q)
                self._sv.release(q)
                del self._owner[q]

    def owner(self, qubit: int) -> int:
        """The rank that currently owns ``qubit``."""
        with self._lock:
            try:
                return self._owner[qubit]
            except KeyError:
                raise SimulationError(f"unknown qubit {qubit}") from None

    def owned_by(self, rank: int) -> Qureg:
        """All qubits currently owned by ``rank`` (ascending ids)."""
        with self._lock:
            return Qureg(sorted(q for q, r in self._owner.items() if r == rank))

    def transfer(self, qubit: int, new_rank: int) -> None:
        """Move ownership (used by *_move teleportation protocols)."""
        with self._lock:
            if qubit not in self._owner:
                raise SimulationError(f"unknown qubit {qubit}")
            self._owner[qubit] = new_rank

    def _check_owner(self, rank: int, *qubits: int) -> None:
        for q in qubits:
            actual = self._owner.get(q)
            if actual is None:
                raise SimulationError(f"unknown qubit {q}")
            if actual != rank:
                raise LocalityError(
                    f"rank {rank} touched qubit {q} owned by rank {actual}; "
                    "remote interaction requires QMPI communication"
                )

    # ------------------------------------------------------------------
    # gates: one batched entry point (rank-checked and serialized)
    # ------------------------------------------------------------------
    def apply_ops(self, rank: int, ops) -> None:
        """Execute a batch of already-lowered op records, uncached.

        Ownership of every operand is checked and the whole batch is
        handed to the engine's ``apply_ops`` (compile, freeze, execute)
        under one lock acquisition. The named convenience methods
        (``h``, ``x``, ..., one per :data:`~repro.qmpi.ops.GATESET`
        entry) are thin shims emitting one-op batches through here.

        Batches may contain :class:`~repro.qmpi.ops.DiagBatch` records —
        coalesced runs of diagonal ops (see
        :func:`repro.sim.diag.coalesce_diagonals`) — and
        :class:`~repro.qmpi.ops.ContractionPlan` records — fused
        small-op windows (see :func:`repro.sim.plan.plan_contractions`);
        the engines apply one precomputed phase vector per batch and
        one matmul per plan.
        """
        ops = tuple(ops)
        if not ops:
            return
        with self._lock:
            for op in ops:
                self._check_owner(rank, *op.qubits)
            self._sv.apply_ops(ops)

    def apply_flush(self, rank: int, ops) -> None:
        """Execute a raw (pre-lowering) flush buffer, cached when possible.

        The one entry point of :meth:`repro.qmpi.stream.OpStream.flush`,
        in-process and over the ``mp`` service alike: ownership of
        every operand is checked once, and the lower + compile work is
        served from the backend's :class:`~repro.sim.cache.ScheduleCache`
        (after the engine's ``route_copies``, so the cache keys ops on a
        fan-out copy as the ops on its source they run as)
        — structurally identical buffers (same gates and qubit pattern,
        any rotation angles) replay their compiled segment list with
        the parameters rebound instead of recompiling.  With
        ``cache="off"`` (or a cache bypass) the buffer is lowered
        (:func:`~repro.sim.schedule.lower_flush`, a function of the
        register size alone) and handed to the engine's one-shot
        ``apply_ops``, which freezes and runs it through the same
        executor.
        """
        ops = tuple(ops)
        if not ops:
            return
        with self._lock:
            for op in ops:
                self._check_owner(rank, *op.qubits)
            ops = self._sv.route_copies(ops)
            n = self._sv.num_qubits
            if self.schedule_cache is not None and self.schedule_cache.execute(
                self._sv, ops, num_qubits=n
            ):
                return
            self._sv.apply_ops(lower_flush(ops, n))

    def cache_info(self) -> dict | None:
        """Schedule-cache counters, or ``None`` when caching is off."""
        with self._lock:
            if self.schedule_cache is None:
                return None
            return self.schedule_cache.info()

    def kernel_info(self) -> dict | None:
        """Native-kernel dispatch counters, or ``None`` without dispatch.

        Engines without the kernel dispatch layer report ``None``.
        Mirrors :meth:`cache_info`: a snapshot dict with the resolved
        ``provider``, jit hit / numpy fallback / csel counters,
        and the one-time provider compile time (see
        :meth:`repro.sim.kernels.KernelDispatch.info`).
        """
        with self._lock:
            kd = getattr(self._sv, "_kernels", None)
            if kd is None:
                return None
            return kd.info()

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def measure(self, rank: int, q: int) -> int:
        """Projective Z-basis measurement of an owned qubit (collapses)."""
        with self._lock:
            self._check_owner(rank, q)
            bit = self._sv.measure(q)
            if self.shots is not None:
                self._measure_log.append((rank, bit))
            return bit

    def measure_and_release(
        self, rank: int, q: int, basis: str = "Z", control: int | None = None
    ) -> int:
        """Measure an owned qubit, then free it. Returns the bit.

        The protocols' one measurement: ``cnot(control, q)`` first when
        an owned ``control`` is given (Fig. 3(a)'s fan-out onto an EPR
        half), ``h(q)`` first for ``basis="X"`` (Fig. 1(b)'s uncopy) —
        one engine call, so no other rank gets in between.  Unlike
        :meth:`measure`, the outcome is *not* recorded in the shot-batched
        measurement log: :meth:`counts` reflects only user-level
        measurements, not EPR parity bits or teleport corrections.
        """
        with self._lock:
            self._check_owner(rank, *((q,) if control is None else (q, control)))
            bit = self._sv.measure_and_release(q, basis, control)
            del self._owner[q]
            return bit

    def apply_pauli_if(self, rank: int, cond, pauli: str, q: int) -> None:
        """Apply X/Y/Z to an owned qubit where ``cond`` holds.

        ``cond`` is a classical bit (plain conditional) or per-shot
        measurement data (:class:`~repro.sim.shots.ShotBits`) — the
        vectorized replacement for ``if m: backend.x(...)`` fixups in
        the QMPI protocols.
        """
        with self._lock:
            self._check_owner(rank, q)
            self._sv.apply_pauli_if(cond, pauli, q)

    def prob_one(self, rank: int, q: int) -> float:
        """Probability of measuring |1> on an owned qubit (no collapse)."""
        with self._lock:
            self._check_owner(rank, q)
            return self._sv.prob_one(q)

    # ------------------------------------------------------------------
    # internal / diagnostic access (not rank-scoped)
    # ------------------------------------------------------------------
    def entangle_pair(self, qa: int, qb: int) -> None:
        """|00> -> (|00>+|11>)/sqrt(2); used by the EPR service only.

        The engine's ``entangle_fresh``: a pending Bell factor when both
        qubits are untouched, else ``h`` + ``cnot``.
        """
        with self._lock:
            self._sv.entangle_fresh(qa, qb)

    @property
    def num_qubits(self) -> int:
        """Total number of allocated qubits across all ranks."""
        with self._lock:
            return self._sv.num_qubits

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Global state for verification in tests (not part of QMPI)."""
        with self._lock:
            return self._sv.statevector(qubits)

    def qubit_ids(self) -> Qureg:
        """Every allocated qubit id, in engine order."""
        with self._lock:
            return Qureg(self._sv.qubit_ids)

    def raw(self):
        """The underlying engine, for white-box tests."""
        return self._sv


class SharedBackend(QuantumBackend):
    """The paper's §6 semantics: one monolithic rank-0-style state vector.

    ``dtype`` selects the amplitude precision (``"complex128"`` default
    / ``"complex64"`` for the half-footprint tier, default from
    ``REPRO_QMPI_DTYPE``).
    """

    def __init__(self, seed=None, cache: str = "on", dtype: str | None = None):
        super().__init__(StateVector(seed=seed, dtype=dtype), cache=cache)


class ShardedBackend(QuantumBackend):
    """Amplitudes split into per-rank chunks (chunk = simulation rank).

    Local-axis gates run as vectorized strided kernels on each flat chunk;
    high-axis gates exchange pair chunks over a private
    :class:`repro.mpi.Fabric`. See :mod:`repro.sim.sharded` for the layout.
    All chunks live in this process, in RAM.

    ``dtype`` selects the amplitude precision (``"complex128"`` default
    / ``"complex64"``, default from ``REPRO_QMPI_DTYPE``).
    """

    def __init__(
        self,
        seed=None,
        n_shards: int = 4,
        cache: str = "on",
        dtype: str | None = None,
    ):
        super().__init__(
            ShardedStateVector(seed=seed, n_shards=n_shards, dtype=dtype),
            cache=cache,
        )
        self.n_shards = n_shards


# ----------------------------------------------------------------------
# GATESET-generated gate shims
# ----------------------------------------------------------------------
def _install_backend_shim(gd: GateDef) -> None:
    n_args = gd.n_qubits + gd.n_params

    def shim(self, rank: int, *args):
        """Generated gate shim (docstring replaced per gate on install)."""
        if len(args) != n_args:
            raise TypeError(
                f"{gd.name}(rank, {gd.signature()}) takes {n_args} operands, "
                f"got {len(args)}"
            )
        self.apply_ops(rank, (Op(gd.name, args[: gd.n_qubits], args[gd.n_qubits :]),))

    _ops.install_gate_method(
        QuantumBackend,
        gd,
        shim,
        f"``{gd.name}(rank, {gd.signature()})`` — rank-checked, emitted as a "
        f"one-op batch through :meth:`apply_ops`.",
    )


_ops.bind_gateset(_install_backend_shim)


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
#: Name -> backend class; extend with :func:`register_backend`.
BACKENDS: dict[str, type[QuantumBackend]] = {
    "shared": SharedBackend,
    "sharded": ShardedBackend,
}


def register_backend(name: str, cls: type[QuantumBackend]) -> None:
    """Register a backend class under ``name`` for :func:`make_backend`."""
    BACKENDS[name] = cls


def make_backend(
    spec: "str | type[QuantumBackend] | QuantumBackend" = "shared",
    *,
    seed=None,
    n_ranks: int = 1,
    **opts,
) -> QuantumBackend:
    """Resolve a backend spec into a ready instance.

    ``spec`` may be an existing :class:`QuantumBackend` instance (returned
    as-is — passing ``seed`` or options alongside one warns, since they
    cannot be applied retroactively), a backend class, or a registry name
    — ``"shared"``, ``"sharded"``, or ``"sharded:<n>"`` to pin the shard
    count. A plain ``"sharded"`` defaults ``n_shards`` to the smallest
    power of two >= ``n_ranks`` (chunk = rank, as in QCMPI).
    """
    if isinstance(spec, QuantumBackend):
        ignored = [] if seed is None else [f"seed={seed!r}"]
        ignored += [f"{k}={v!r}" for k, v in opts.items()]
        if ignored:
            warnings.warn(
                "make_backend received a prebuilt backend instance; "
                f"{', '.join(ignored)} cannot be applied retroactively and "
                "will be ignored — construct the instance with them, or "
                "pass a name/class spec instead (use backend.reseed(seed) "
                "to change the RNG of an existing backend)",
                UserWarning,
                stacklevel=2,
            )
        return spec
    if isinstance(spec, type):
        if issubclass(spec, ShardedBackend):
            opts.setdefault("n_shards", 1 << max(0, n_ranks - 1).bit_length())
        return spec(seed=seed, **opts)
    name, _, arg = str(spec).partition(":")
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; known: {sorted(BACKENDS)}"
        ) from None
    if issubclass(cls, ShardedBackend):
        if arg:
            opts.setdefault("n_shards", int(arg))
        else:
            opts.setdefault("n_shards", 1 << max(0, n_ranks - 1).bit_length())
    elif arg:
        raise ValueError(f"backend {name!r} takes no ':' argument, got {spec!r}")
    return cls(seed=seed, **opts)
