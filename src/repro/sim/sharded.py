"""Sharded state-vector engine: amplitudes distributed across chunk ranks.

Classical HPC simulators (QCMPI; QuEST; the chunked ``SimDistribute``
design) do not funnel every operation through one rank-0-owned array the
way the paper's §6 prototype does. Instead the ``2^n`` amplitudes are
split into ``R`` contiguous chunks, one per simulation rank, and each
gate is applied cooperatively:

* a gate on a **local axis** (one of the low ``n - log2(R)`` bits) only
  permutes/combines amplitudes *within* each chunk, so every rank applies
  a vectorized strided kernel to its own flat array — no communication;
* a gate on a **high axis** (one of the top ``log2(R)`` bits) pairs each
  chunk with the chunk whose index differs in that bit, and the pair
  exchange their amplitudes before combining — here the exchange travels
  through the same :class:`repro.mpi.Fabric` mailboxes that carry QMPI's
  classical traffic, so message matching is exercised for real;
* **diagonal** gates — single-qubit (Z, S, T, Rz) or single-target
  controlled (CZ, controlled-phase) — never need the exchange even on
  high axes: each chunk just scales itself.

Layout
------
The state is a list of ``R`` flat contiguous in-RAM complex arrays
(complex128 by default; ``dtype="complex64"`` selects the half-footprint
mixed-precision tier).
Global amplitude index ``g`` lives in ``chunks[g >> n_local][g & (csize - 1)]``
with ``csize = 2^n_local``.  Qubit handles are stable integer ids mapped
to *bit positions*: a freshly allocated qubit is the least significant
bit, pushing all existing qubits one bit up, which keeps both allocation
(interleave-doubling each chunk) and the paper-convention ``statevector``
(first-allocated qubit = most significant bit = plain chunk
concatenation) purely local operations.

While fewer than ``log2(R)`` qubits exist the engine runs with
``min(R, 2^n)`` active chunks and grows to the full shard count as qubits
are allocated; releasing a high-axis qubit compacts the chunk list again.

Gate execution has one path: the compiled execution schedule
(:mod:`repro.sim.schedule`) is frozen into a per-chunk program and run
(:meth:`ShardedStateVector.freeze_segments` /
:meth:`~ShardedStateVector.execute_frozen` — a cold batch freezes and
runs once, the schedule cache keeps the program for replay).  The eager
``apply``, ``apply_controlled``, named ``h``/``cnot``/... methods and
``entangle_fresh`` emit :class:`~repro.sim.ops.Op` batches through
:meth:`~ShardedStateVector.apply_ops`.  Every record is classified
against the chunk layout exactly once, communication-free stretches
execute chunk-by-chunk in one pass (kernel runs, plan sub-blocks, and
:class:`~repro.sim.diag.DiagBatch` phase vectors materialized once per
shard-bit signature), and only ``mixing`` segments exchange chunks, in
the exchange layer (pair, restricted-pair and group all-to-all).  One
process owns every chunk: concurrency lives in the QMPI ranks above
the backend, never in a second pool under it.

The class mirrors :class:`repro.sim.statevector.StateVector`'s public API
exactly (same methods, same error messages, same RNG draw discipline), so
the two engines are drop-in interchangeable behind
:class:`repro.qmpi.backend.QuantumBackend`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from ..mpi.fabric import Fabric
from . import gates as G
from .diag import DiagBatch, signature_vectors
from .kernels import TILE_AMPS, KernelDispatch, Window
from .ops import Op, bind_engine_gates, controlled_unitary
from .schedule import (
    DiagSegment,
    KernelRun,
    PlanSegment,
    compile_segments,
    iter_stretches,
)
from .shots import branch_mask, fork_outcomes
from .statevector import SimulationError, resolve_dtype

__all__ = ["ShardedStateVector"]


def _apply_generic(chunk, entry, win, ci: int, kd: KernelDispatch) -> None:
    """Apply one ``"ct"`` / ``"csel"`` plan entry to chunk ``ci``.

    ``("ct", u, bits)`` is a window entirely inside the chunk: one
    contraction.  ``("csel", table, hi_bits, lo_bits)`` is a window
    block-diagonal on its shard axes: ``hi_bits`` (window order) select
    the chunk's signature index into ``table``, whose entry is the local
    sub-block to contract over ``lo_bits`` — ``None`` for an identity
    sub-block (skip), a complex scalar when the window has no local
    qubits.  ``win`` is the frozen :class:`~repro.sim.kernels.Window` of
    ``bits`` / ``lo_bits`` (None when there are no local bits).
    """
    if entry[0] == "ct":
        kd.contract(chunk, entry[1], win)
        return
    _, table, hi_bits, lo_bits = entry
    sig = 0
    for sb in hi_bits:
        sig = (sig << 1) | ((ci >> sb) & 1)
    u = table[sig]
    if u is None:
        return
    if not lo_bits:
        kd.scale(chunk, u)  # all-shard window: a per-chunk scalar
    else:
        kd.contract(chunk, u, win)


class ShardedStateVector:
    """A dynamically sized state-vector simulator sharded into chunks.

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    n_shards:
        Number of chunks the amplitudes are distributed over; must be a
        power of two. ``n_shards=1`` degenerates to a single flat array.
    dtype:
        Amplitude precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory/bandwidth at float32
        precision; kernel arms stay bit-identical *within* the dtype).
        ``None`` reads ``REPRO_QMPI_DTYPE`` before defaulting to
        ``"complex128"``.

    The native strided pass and phase fill run on chunks of at least
    :data:`~repro.sim.kernels.JIT_MIN_AMPS_DEFAULT` amplitudes when a
    provider resolves, with amplitudes bit-identical to their numpy
    twins (see :mod:`repro.sim.kernels`).

    Examples
    --------
    >>> sv = ShardedStateVector(2, n_shards=2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    def __init__(
        self,
        n_qubits: int = 0,
        seed=None,
        n_shards: int = 4,
        dtype: str | None = None,
    ):
        if n_shards < 1 or (n_shards & (n_shards - 1)):
            raise SimulationError(f"n_shards must be a power of two, got {n_shards}")
        self._dtype, (self._zero_atol, self._norm_eps, self._agree_eps) = (
            resolve_dtype(dtype)
        )
        self.n_shards = n_shards
        self._kernels = KernelDispatch()
        self._fabric = Fabric(n_shards)
        self._tags = itertools.count()
        # Zero qubits == one chunk holding the single amplitude 1.
        self._chunks: list[np.ndarray] = [np.ones(1, dtype=self._dtype)]
        self._bit_of: dict[int, int] = {}
        self._next_id = 0
        self._shots: int | None = None
        self._shot_of: np.ndarray | None = None
        self._n_branches = 1
        self.segments_executed = 0
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        if n_qubits:
            self.alloc(n_qubits)

    # ------------------------------------------------------------------
    # shot-batched trajectories (see repro.sim.shots)
    # ------------------------------------------------------------------
    @property
    def shots(self) -> int | None:
        """Number of tracked shots, or ``None`` outside shots mode."""
        return self._shots

    @property
    def n_branches(self) -> int:
        """Number of distinct measurement histories currently tracked."""
        return self._n_branches

    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: track ``shots`` trajectories in one run.

        Each chunk gains leading *branch* rows (one per distinct
        measurement history, initially a single row shared by every
        shot): a chunk's flat array holds ``B`` stacked per-branch
        copies of its ``2^n_local`` amplitudes.  Strided local kernels
        and whole-chunk scalings are branch-agnostic on that layout, so
        unitary segments run untouched; only :meth:`measure` forks the
        rows.
        """
        if self._shots is not None:
            if self._bit_of:
                raise SimulationError(
                    "begin_shots() called twice on a non-empty engine"
                )
            # Empty engine (all qubits released): drop the leftover branch
            # rows (unobservable global phases) so a reused backend can
            # start a new shot batch.
            self._chunks = [np.ones(1, dtype=self._dtype)]
            self._n_branches = 1
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")
        self._shots = int(shots)
        self._shot_of = np.zeros(self._shots, dtype=np.int64)

    def reseed(self, seed) -> None:
        """Replace the measurement RNG (one stream per sweep point)."""
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)

    def _require_unforked(self, what: str) -> None:
        if self._n_branches > 1:
            raise SimulationError(
                f"{what}() is ambiguous after a mid-circuit measurement "
                f"fork ({self._n_branches} branches); inspect counts or "
                "per-shot measurement results instead"
            )

    # ------------------------------------------------------------------
    # layout introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""
        return len(self._bit_of)

    @property
    def num_chunks(self) -> int:
        """Active chunk count (at most ``min(n_shards, 2^num_qubits)``;
        releasing a high-axis qubit halves it until the next alloc
        rebalances)."""
        return len(self._chunks)

    @property
    def chunk_size(self) -> int:
        """Amplitudes per chunk per branch (``2^n_local``)."""
        return self._chunks[0].size // self._n_branches

    @property
    def n_local(self) -> int:
        """Number of local (intra-chunk) axes."""
        return self.chunk_size.bit_length() - 1

    def chunk(self, rank: int) -> np.ndarray:
        """Chunk ``rank``'s amplitudes (a live view, for white-box tests)."""
        return self._chunks[rank]

    @property
    def qubit_ids(self) -> tuple[int, ...]:
        """Allocated qubit ids in allocation order (descending bit position)."""
        return tuple(sorted(self._bit_of, key=self._bit_of.__getitem__, reverse=True))

    @property
    def dtype(self) -> str:
        """Amplitude dtype name, derived from the live chunks.

        Part of the engine :meth:`layout_key`, so cached schedules never
        replay across precisions.
        """
        return self._chunks[0].dtype.name

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, n: int = 1) -> list[int]:
        """Allocate ``n`` fresh qubits in |0> and return their ids."""
        if n < 1:
            raise SimulationError(f"cannot allocate {n} qubits")
        ids = []
        for _ in range(n):
            qid = self._next_id
            self._next_id += 1
            for q in self._bit_of:
                self._bit_of[q] += 1
            self._bit_of[qid] = 0
            # New LSB in |0>: amplitudes interleave with zeros,
            # chunk-locally.  When the active chunk count is still below
            # n_shards the doubled chunk also splits at its top *local*
            # bit (per branch row) so the count tracks min(n_shards, 2^n).
            rebalance = len(self._chunks) < self.n_shards
            B = self._n_branches
            grown = []
            for c in self._chunks:
                g = np.zeros(2 * c.size, dtype=self._dtype)
                g[0::2] = c
                if rebalance:
                    half = g.size // B // 2
                    v = g.reshape(B, -1)
                    grown.append(np.ascontiguousarray(v[:, :half]).reshape(-1))
                    grown.append(np.ascontiguousarray(v[:, half:]).reshape(-1))
                else:
                    grown.append(g)
            self._chunks = grown
            ids.append(qid)
        return ids

    def release(self, qubit: int) -> None:
        """Release a qubit that is disentangled and in state |0>.

        Mirrors ``QMPI_Free_qmem``: freeing a qubit that still carries
        amplitude in |1> (or is entangled) is a program error.
        """
        b = self._bit(qubit)
        nl = self.n_local
        atol = self._zero_atol
        if b < nl:
            stride = 1 << b
            views = [c.reshape(-1, 2, stride) for c in self._chunks]
            if any(not np.allclose(v[:, 1, :], 0.0, atol=atol) for v in views):
                self._raise_not_zero(qubit)
            self._chunks = [np.ascontiguousarray(v[:, 0, :]).reshape(-1) for v in views]
        else:
            mask = 1 << (b - nl)
            ones = [c for i, c in enumerate(self._chunks) if i & mask]
            if any(not np.allclose(c, 0.0, atol=atol) for c in ones):
                self._raise_not_zero(qubit)
            self._chunks = [c for i, c in enumerate(self._chunks) if not i & mask]
        del self._bit_of[qubit]
        for q, bb in self._bit_of.items():
            if bb > b:
                self._bit_of[q] = bb - 1

    def measure_and_release(self, qubit: int, basis: str = "Z", control: int | None = None):
        """``cnot(control, qubit)`` if ``control`` is given, ``h(qubit)`` if
        ``basis == "X"``, then measure ``qubit`` in the Z basis and remove
        it. Returns the bit."""
        G.measurement_prelude(self, qubit, basis, control)
        bit = self.measure(qubit)
        self.apply_pauli_if(bit, "X", qubit)
        self.release(qubit)
        return bit

    def entangle_fresh(self, qa: int, qb: int) -> None:
        """``|00> -> (|00>+|11>)/sqrt(2)`` on ``qa``, ``qb``: one ``h`` +
        ``cnot`` batch."""
        self.apply_ops((Op("h", (qa,)), Op("cnot", (qa, qb))))

    def _bit(self, qubit: int) -> int:
        try:
            return self._bit_of[qubit]
        except KeyError:
            raise SimulationError(f"unknown qubit id {qubit}") from None

    @staticmethod
    def _raise_not_zero(qubit: int) -> None:
        raise SimulationError(
            f"qubit {qubit} is not in |0> (or is entangled); "
            "measure/uncompute before releasing"
        )

    # ------------------------------------------------------------------
    # chunk exchange (the communication layer)
    # ------------------------------------------------------------------
    def _pair_exchange(self, shard_bit: int) -> list[np.ndarray]:
        """Every chunk sends its amplitudes to its partner in ``shard_bit``
        and receives the partner's, all through the fabric mailboxes.
        Returns the partner chunk for each chunk index."""
        tag = next(self._tags)
        mask = 1 << shard_bit
        for c in range(len(self._chunks)):
            self._fabric.send(0, c, c ^ mask, tag, self._chunks[c])
        return [
            self._fabric.recv(0, c, c ^ mask, tag).payload
            for c in range(len(self._chunks))
        ]

    def _group_exchange(
        self, shard_bits: Sequence[int]
    ) -> tuple[dict[int, list[int]], dict[int, list[np.ndarray]]]:
        """All-to-all chunk exchange within each ``2^h``-member group.

        Chunks agreeing on every shard bit *not* in ``shard_bits`` form a
        group; each member ships its chunk to every other member over the
        fabric. Returns ``(groups, gathered)`` where ``groups`` maps a
        group base index to its member indices (ascending, i.e. ordered by
        the value of the ``shard_bits`` coordinate) and ``gathered`` maps
        each chunk index to the group's chunks in that same order.
        """
        tag = next(self._tags)
        groups: dict[int, list[int]] = {}
        for c in range(len(self._chunks)):
            base = c
            for j in shard_bits:
                base &= ~(1 << j)
            groups.setdefault(base, []).append(c)
        for members in groups.values():
            for src in members:
                for dst in members:
                    if dst != src:
                        self._fabric.send(0, src, dst, tag, self._chunks[src])
        gathered: dict[int, list[np.ndarray]] = {}
        for members in groups.values():
            for dst in members:
                gathered[dst] = [
                    self._chunks[dst]
                    if src == dst
                    else self._fabric.recv(0, dst, src, tag).payload
                    for src in members
                ]
        return groups, gathered

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply_ops(self, ops) -> None:
        """Execute a batch of typed op records (see :mod:`repro.sim.ops`)
        as a compiled execution schedule.

        The batch is compiled once into typed segments by
        :func:`repro.sim.schedule.compile_segments` — every record is
        classified against the chunk layout exactly once (local /
        block-diagonal-shard-axes / mixing) — then frozen and run (the
        same freeze-then-:meth:`execute_frozen` path a schedule-cache
        miss takes): maximal communication-free stretches
        execute chunk-by-chunk in one pass (kernel runs, sub-block
        selections and phase-vector multiplies), and only a ``mixing``
        segment exchanges chunks through the fabric.
        """
        self.execute_segments(self.compile_batch(ops))

    # ------------------------------------------------------------------
    # engine contract (see repro.qmpi.backend.QuantumBackend)
    # ------------------------------------------------------------------
    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Pins each touched qubit's global bit position, the chunk
        boundary, the active chunk count, the presence of shot-branch
        rows, and the amplitude dtype — everything
        :meth:`compile_batch`'s classification *and* the frozen
        programs depend on.  Equal keys mean a program frozen under one
        is exact under the other; unknown qubit ids raise, so a
        recycled engine can never bind a stale schedule.
        """
        return (
            "sharded",
            tuple(self._bit(q) for q in qubits),
            self.n_local,
            len(self._chunks),
            self._shots is not None,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch against the current chunk layout."""
        return compile_segments(ops, bit=self._bit, n_local=self.n_local)

    def execute_segments(self, segments) -> None:
        """Run a compiled segment list once: freeze, then execute."""
        self.execute_frozen(self.freeze_segments(segments))

    def freeze_segments(self, segments):
        """Freeze a bound segment list into a replay program.

        Precomputes the stretch grouping (:func:`iter_stretches`), the
        run/diag fold boundaries, and — per kernel-run fold — one
        specialized step list **per chunk** (:meth:`_freeze_run`): every
        per-entry per-chunk branch (which dispatch call, shard-axis
        factor selection, control-mask participation) is decided once
        here.  Steps reference the live
        segment objects and re-read their entries on every execution,
        so the cache's in-place parameter rebinding flows through.
        """
        nl = self.n_local
        n_chunks = len(self._chunks)
        steps = []
        for stretch, barrier in iter_stretches(segments):
            if stretch:
                folds = []
                run: list = []
                for seg in stretch:
                    if isinstance(seg, DiagSegment):
                        if run:
                            folds.append(
                                ("run", self._freeze_run(run, nl, n_chunks))
                            )
                            run = []
                        folds.append(("diag", seg))
                    else:
                        run.append(seg)
                if run:
                    folds.append(("run", self._freeze_run(run, nl, n_chunks)))
                steps.append(("stretch", tuple(folds), len(stretch)))
            if barrier is not None:
                steps.append(("barrier", barrier))
        return tuple(steps)

    @staticmethod
    def _freeze_run(segs, nl, n_chunks):
        """Specialize a kernel-run fold into one step list per chunk.

        Each entry becomes, per chunk, one step naming the
        :class:`~repro.sim.kernels.KernelDispatch` call it makes and
        holding that call's arguments in call order — or no step at all
        for a chunk whose shard-axis control bits rule it out:

        * ``("sq", seg, i, b, diag)`` -> ``kd.sq``;
        * ``("cc", seg, i, local_controls, t_bit, nl, diag)`` -> ``kd.cc``;
        * ``("ss", seg, i, sel)`` -> ``kd.scale`` by the entry's diagonal
          element ``sel`` (a shard-axis ``sq`` target: its bit is fixed
          per chunk);
        * ``("cs", seg, i, sel, local_controls, nl)`` ->
          ``kd.masked_scale`` (a shard-axis ``cc`` target);
        * ``("g", seg, i, win)`` -> :func:`_apply_generic` for
          ``ct``/``csel`` entries (``i`` is None for a
          :class:`PlanSegment`; ``win`` is the entry's frozen
          :class:`~repro.sim.kernels.Window`).

        Steps hold ``(seg, i)`` references rather than matrices, which
        rebinding replaces inside the live segments.
        """
        per_chunk: list[list] = [[] for _ in range(n_chunks)]
        for seg in segs:
            if isinstance(seg, KernelRun):
                sources = [(seg, i, e) for i, e in enumerate(seg.entries)]
            else:  # communication-free PlanSegment
                sources = [(seg, None, seg.entry)]
            for src, i, e in sources:
                kind = e[0]
                if kind == "sq":
                    b, diag = e[2], e[3]
                    for ci in range(n_chunks):
                        if b < nl:
                            step = ("sq", src, i, b, diag)
                        else:
                            step = ("ss", src, i, (ci >> (b - nl)) & 1)
                        per_chunk[ci].append(step)
                elif kind == "cc":
                    cmask, local_controls, t_bit, diag = e[2], e[3], e[4], e[5]
                    for ci in range(n_chunks):
                        if (ci & cmask) != cmask:
                            continue
                        if t_bit < nl:
                            step = ("cc", src, i, local_controls, t_bit, nl, diag)
                        else:
                            sel = (ci >> (t_bit - nl)) & 1
                            step = ("cs", src, i, sel, local_controls, nl)
                        per_chunk[ci].append(step)
                else:  # "ct"/"csel": generic entry
                    bits = e[2] if kind == "ct" else e[3]
                    step = ("g", src, i, Window(bits, nl) if bits else None)
                    for ci in range(n_chunks):
                        per_chunk[ci].append(step)
        return tuple(tuple(s) for s in per_chunk)

    def _exec_frozen_chunk(self, steps, ci, chunk) -> None:
        """Replay one chunk's frozen kernel-fold program.

        One loop over the chunk's steps (:meth:`_freeze_run`), each a
        single :class:`~repro.sim.kernels.KernelDispatch` call on the
        entry re-read from its live segment, so cache rebinding flows
        through.  The dispatch decides native vs numpy per call and owns
        the counters and the rounding to the chunk's dtype.
        """
        kd = self._kernels
        for tag, src, i, *args in steps[ci]:
            entry = src.entry if i is None else src.entries[i]
            if tag == "sq":
                kd.sq(chunk, entry[1], *args)
            elif tag == "cc":
                kd.cc(chunk, entry[1], *args)
            elif tag == "ss":
                kd.scale(chunk, entry[1][args[0], args[0]])
            elif tag == "cs":
                kd.masked_scale(chunk, entry[1][args[0], args[0]], *args[1:])
            else:  # "g"
                _apply_generic(chunk, entry, args[0], ci, kd)

    def execute_frozen(self, program) -> None:
        """Execute a frozen program: the engine's only gate-batch path."""
        nl = self.n_local
        for step in program:
            if step[0] == "stretch":
                _, folds, n_segments = step
                self.segments_executed += n_segments
                # Chunk-major: materialize every fold's phase tensors
                # first, then touch each chunk exactly once for the whole
                # stretch (chunks are independent between barriers, so
                # the per-chunk op order — and the amplitudes — are
                # identical to fold-major order), and each fold's tables
                # are prepared once rather than once per chunk.
                prepped = [
                    ("diag", self._prep_diag_batch(payload.batch))
                    if kind == "diag"
                    else ("run", payload)
                    for kind, payload in folds
                ]
                for ci, chunk in enumerate(self._chunks):
                    for kind, payload in prepped:
                        if kind == "diag":
                            # Leading -1 axis folds in any shot-branch
                            # rows; each factor (ndim nl) broadcasts
                            # over it right-aligned.
                            v = chunk.reshape((-1,) + (2,) * nl)
                            for factor in payload[ci]:
                                v *= factor
                        else:
                            self._exec_frozen_chunk(payload, ci, chunk)
                continue
            # Barrier: the one record that moves amplitude between
            # chunks goes to the exchange layer.
            barrier = step[1]
            self.segments_executed += 1
            self._exchange(
                barrier.plan if isinstance(barrier, PlanSegment) else barrier.op
            )

    def _batch_tables(self, batch: DiagBatch):
        """A batch's phase tables keyed by bit position (chunk layout)."""
        singles = [(self._bit(q), t) for q, t in batch.phases1.items()]
        pairs = [
            ((self._bit(a), self._bit(b)), t)
            for (a, b), t in batch.phases2.items()
        ]
        return singles, pairs

    def _prep_diag_batch(self, batch: DiagBatch):
        """Materialize a diagonal batch as per-chunk phase factors.

        The per-qubit/per-pair phase tables become one broadcastable
        complex128 ``base`` tensor over the local axes, built once, plus
        a small ``extra`` factor per *shard-bit signature*
        (:func:`repro.sim.diag.signature_vectors`).  Returns, per chunk,
        the factors it multiplies in place (``base`` then its extra;
        identity factors are left out), so preparing a batch holds one
        ``2^n_local`` table however many signatures it has.  Factors
        stay complex128 in every register dtype: the in-place chunk
        multiply casts on store.
        """
        singles, pairs = self._batch_tables(batch)
        base, extras, sig_of = signature_vectors(
            singles, pairs, self.n_local, len(self._chunks), kernels=self._kernels
        )
        return [
            tuple(f for f in (base, extras[sig]) if f is not None) for sig in sig_of
        ]

    def apply(self, u: np.ndarray, *qubits: int) -> None:
        """Apply a ``2^k x 2^k`` unitary to ``k`` qubits (a one-op batch).

        The first qubit in ``qubits`` corresponds to the most significant
        bit of the matrix index (``U = sum |i><j|`` over k-bit ints).
        """
        self.apply_ops((Op(G.UNITARY, qubits, u=u),))

    def apply_controlled(
        self, u: np.ndarray, controls: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Apply ``u`` on ``targets`` conditioned on all ``controls`` = |1>.

        A one-op batch carrying ``u`` and the control count: a single
        target takes the controlled kernels and the restricted pair
        exchange, as a registry ``cnot`` does; several targets run the
        controlled matrix (controls most significant) as a generic op.
        """
        self.apply_ops((controlled_unitary(u, controls, targets),))

    # ------------------------------------------------------------------
    # the exchange layer: what a mixing barrier runs
    # ------------------------------------------------------------------
    def _exchange(self, rec) -> None:
        """Run one ``mixing`` barrier record through the fabric.

        ``rec`` is an op or a mixing plan (an uncontrolled pseudo-op: one
        exchange for the whole fused run).  Its matrix is rounded to the
        register dtype once, so the exchange arithmetic runs in-precision
        (NEP 50 never promotes a complex64 register to complex128).
        """
        if len(rec.targets) != 1:  # group all-to-all over the full matrix
            u = np.asarray(rec.matrix(), dtype=self._dtype)
            self._apply_mixed(u, [self._bit(q) for q in rec.qubits])
            return
        u = np.asarray(rec.target_matrix(), dtype=self._dtype)
        t_bit = self._bit(rec.targets[0])
        if rec.controls:
            c_bits = [self._bit(q) for q in rec.controls]
            self._apply_controlled_high_target(u, c_bits, t_bit)
        else:
            self._apply_pair(u, t_bit)

    def _apply_pair(self, u: np.ndarray, b: int) -> None:
        """One-qubit gate on shard axis ``b``: pair-chunk exchange, then a
        local linear combination, one pair at a time (O(chunk) transient
        RAM).  The fabric payloads alias live peer chunks, so both halves
        of a pair are computed before either is rebound.
        """
        mask = 1 << (b - self.n_local)
        partners = self._pair_exchange(b - self.n_local)
        for i in range(len(self._chunks)):
            if i & mask:
                continue
            j = i | mask
            new_lo = u[0, 0] * self._chunks[i] + u[0, 1] * partners[i]
            new_hi = u[1, 0] * partners[j] + u[1, 1] * self._chunks[j]
            self._chunks[i] = new_lo
            self._chunks[j] = new_hi

    def _apply_mixed(self, u: np.ndarray, bits: Sequence[int]) -> None:
        # At least one shard axis: the 2^h chunks agreeing on every
        # other shard bit exchange all-to-all, then each member computes
        # only its own slice,
        #     new[own] = sum_src U[own, src] . chunk[src],
        # where U[own, src] is the 2^l x 2^l sub-block over the window's
        # l local qubits — one row-block matmul against the members'
        # amplitudes staged window-axes-first.  The staging walks the
        # chunks in slabs (fixed values of the top free local bits: the
        # contraction never couples them) small enough that the 2^h
        # members' copies of one slab hold at most one chunk and at most
        # TILE_AMPS amplitudes, so the transient is one slab-sized stage
        # plus one product, never a group tensor; and because the stage
        # is a copy, each member's slab is written straight back into
        # its live chunk.
        k = len(bits)
        nl = self.n_local
        hi = sorted((i for i, b in enumerate(bits) if b >= nl), key=lambda i: -bits[i])
        lo = [i for i, b in enumerate(bits) if b < nl]
        h, l = len(hi), len(lo)
        groups, gathered = self._group_exchange(sorted(bits[i] - nl for i in hi))
        # Row/column index = (member rank within its group, local window
        # index): members ascend with the shard-bit coordinate, most
        # significant shard bit first.
        pos = hi + lo
        u = np.ascontiguousarray(
            u.reshape((2,) * (2 * k)).transpose(pos + [k + i for i in pos])
        ).reshape(1 << k, 1 << k)
        # Chunk view axes: [shot-branch rows, local bit nl-1, ..., bit 0].
        lo_axes = [nl - bits[i] for i in lo]
        free = [ax for ax in range(1, nl + 1) if ax not in lo_axes]
        order = lo_axes + [0] + free
        lead = (slice(None),) * (l + 1)
        fixed = min(h, len(free))
        while fixed < len(free) and (self._chunks[0].size << h) >> fixed > TILE_AMPS:
            fixed += 1
        slabs = [lead + idx for idx in np.ndindex((2,) * fixed)]

        def staged(chunk):
            return chunk.reshape((-1,) + (2,) * nl).transpose(order)

        shape = staged(self._chunks[0])[slabs[0]].shape
        stage = np.empty((1 << h,) + shape, dtype=u.dtype)
        flat = stage.reshape(1 << k, -1)
        prod = np.empty((1 << l, flat.shape[1]), dtype=u.dtype)
        for members in groups.values():
            # Every member gathers the same 2^h chunks, so one stage
            # serves the whole group.
            srcs = [staged(c) for c in gathered[members[0]]]
            outs = [staged(self._chunks[c]) for c in members]
            for sel in slabs:
                for j, v in enumerate(srcs):
                    stage[j] = v[sel]
                for j, v in enumerate(outs):
                    np.dot(u[j << l : (j + 1) << l], flat, out=prod)
                    v[sel] = prod.reshape(shape)

    def _apply_controlled_high_target(self, u: np.ndarray, c_bits, t_bit: int) -> None:
        """Non-diagonal single-target controlled gate whose target is a
        shard axis: pair-chunk exchange restricted to participating chunks.

        Only chunks whose high-axis control bits are all 1 take part; each
        sends its amplitudes to its partner in the target bit and combines
        on the |1...1> slice of any *local* control axes. This replaces
        the dense ``controlled(u)`` + group all-to-all fallback: half (or
        fewer) of the chunks exchange, pairwise, with no group tensor.
        """
        nl = self.n_local
        cmask = sum(1 << (b - nl) for b in c_bits if b >= nl)
        # Leading -1 axis folds in any shot-branch rows.
        idx: list = [slice(None)] * (nl + 1)
        for b in c_bits:
            if b < nl:
                idx[1 + nl - 1 - b] = 1
        idx = tuple(idx)
        pmask = 1 << (t_bit - nl)
        tag = next(self._tags)
        parts = [i for i in range(len(self._chunks)) if (i & cmask) == cmask]
        for i in parts:
            self._fabric.send(0, i, i ^ pmask, tag, self._chunks[i])
        partners = {
            i: self._fabric.recv(0, i, i ^ pmask, tag).payload for i in parts
        }
        # Two passes: payloads may alias live peer chunks (the in-process
        # fabric does not copy), so compute every new slice before any
        # chunk is mutated.
        new = {}
        for i in parts:
            own = self._chunks[i].reshape((-1,) + (2,) * nl)
            par = partners[i].reshape((-1,) + (2,) * nl)
            if i & pmask:
                new[i] = u[1, 0] * par[idx] + u[1, 1] * own[idx]
            else:
                new[i] = u[0, 0] * own[idx] + u[0, 1] * par[idx]
        for i in parts:
            self._chunks[i].reshape((-1,) + (2,) * nl)[idx] = new[i]

    # ------------------------------------------------------------------
    # measurement and inspection
    # ------------------------------------------------------------------
    def _branch_prob_one(self, qubit: int) -> np.ndarray:
        """Per-branch probability of |1> on ``qubit``, shape ``(B,)``."""
        b = self._bit(qubit)
        nl = self.n_local
        B = self._n_branches
        p = np.zeros(B)
        if b < nl:
            stride = 1 << b
            for c in self._chunks:
                v = np.abs(c.reshape(B, -1, 2, stride)[:, :, 1, :]) ** 2
                p += v.reshape(B, -1).sum(axis=1)
        else:
            mask = 1 << (b - nl)
            for i, c in enumerate(self._chunks):
                if i & mask:
                    p += (np.abs(c.reshape(B, -1)) ** 2).sum(axis=1)
        return np.clip(p, 0.0, 1.0)

    def prob_one(self, qubit: int):
        """Probability of measuring |1> on ``qubit`` (no collapse).

        Outside shots mode (and whenever every tracked branch agrees)
        this is a plain float; after a measurement fork made the
        probability branch-dependent, the per-shot values are returned
        as an array instead.
        """
        if self._shots is None:
            return float(self._branch_prob_one(qubit)[0])
        p = self._branch_prob_one(qubit)
        if np.ptp(p) < self._agree_eps:
            return float(p[0])
        return p[self._shot_of]

    def measure(self, qubit: int):
        """Projective Z-basis measurement with collapse.

        Returns 0 or 1; in shots mode returns a
        :class:`~repro.sim.shots.ShotBits` of per-shot outcomes, and
        every chunk's branch rows fork into one row per surviving
        ``(branch, outcome)`` pair.
        """
        if self._shots is None:
            p1 = self.prob_one(qubit)
            bit = int(self.rng.random() < p1)
            self.postselect(qubit, bit)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, spec = fork_outcomes(p1, self._shot_of, self.rng)
        b = self._bit(qubit)
        nl = self.n_local
        csize = self.chunk_size
        B_old = self._n_branches
        src, outcome, scale = spec
        # Scale in the register's own real dtype (exact for float64) so
        # a complex64 register is not promoted.
        scale = scale.astype(self._chunks[0].real.dtype)[:, None]
        rows = np.arange(len(src))
        new_chunks = []
        for ci, c in enumerate(self._chunks):
            v = c.reshape(B_old, csize)
            if b < nl:
                out = v[src] * scale
                out.reshape(len(src), -1, 2, 1 << b)[rows, :, 1 - outcome, :] = 0.0
            else:
                # Rows whose outcome is the other chunk's half of the
                # shard axis are projected away here — zero.
                keep = outcome == ((ci >> (b - nl)) & 1)
                out = np.zeros((len(src), csize), dtype=self._dtype)
                out[keep] = v[src[keep]] * scale[keep]
            new_chunks.append(out.reshape(-1))
        self._n_branches = len(src)
        self._chunks = new_chunks
        return bits

    def apply_pauli_if(self, cond, pauli: str, qubit: int) -> None:
        """Apply a Pauli to ``qubit`` where ``cond`` holds.

        ``cond`` is an int/bool (plain conditional application) or
        per-shot measurement data (:class:`~repro.sim.shots.ShotBits`):
        the Pauli is then applied only on the branch rows whose shots
        satisfy it — the vectorized form of the protocols' classical
        ``if m: X`` fixups.
        """
        if self._shots is None:
            if cond:
                self.apply(G.PAULIS[pauli.upper()], qubit)
            return
        mask = branch_mask(cond, self._shot_of, self._n_branches)
        if not mask.any():
            return
        if mask.all():
            self.apply(G.PAULIS[pauli.upper()], qubit)
            return
        self._branch_apply(mask, pauli.upper(), qubit)

    def _branch_apply(self, mask: np.ndarray, pauli: str, qubit: int) -> None:
        """Apply X/Y/Z to ``qubit`` on the masked branch rows only."""
        B = self._n_branches
        if pauli == "Y":
            # Y = i X Z: the masked rows pick up an i phase on top.
            self._branch_apply(mask, "Z", qubit)
            self._branch_apply(mask, "X", qubit)
            for c in self._chunks:
                v = c.reshape(B, -1)
                v[mask] = v[mask] * 1j
            return
        b = self._bit(qubit)
        nl = self.n_local
        if pauli == "Z":
            if b < nl:
                stride = 1 << b
                for c in self._chunks:
                    v = c.reshape(B, -1, 2, stride)
                    v[mask, :, 1, :] = v[mask, :, 1, :] * -1.0
            else:
                hbit = 1 << (b - nl)
                for i, c in enumerate(self._chunks):
                    if i & hbit:
                        v = c.reshape(B, -1)
                        v[mask] = v[mask] * -1.0
            return
        # X
        if b < nl:
            stride = 1 << b
            for c in self._chunks:
                v = c.reshape(B, -1, 2, stride)
                v[mask] = v[mask][:, :, ::-1, :]
            return
        # High axis: the masked rows swap with the partner chunk's rows.
        # Gather every replacement first — the in-process fabric does not
        # copy payloads, so partner arrays alias live peer chunks.
        partners = self._pair_exchange(b - nl)
        rows = [p.reshape(B, -1)[mask] for p in partners]  # fancy index copies
        for c, r in zip(self._chunks, rows):
            c.reshape(B, -1)[mask] = r

    def postselect(self, qubit: int, bit: int) -> None:
        """Project ``qubit`` onto ``|bit>`` and renormalize (per branch)."""
        b = self._bit(qubit)
        nl = self.n_local
        if b < nl:
            stride = 1 << b
            for c in self._chunks:
                c.reshape(-1, 2, stride)[:, 1 - bit, :] = 0.0
        else:
            mask = 1 << (b - nl)
            for i, c in enumerate(self._chunks):
                if bool(i & mask) != bool(bit):
                    c[:] = 0.0
        if self._shots is None:
            norm = self.norm()
            if norm < self._norm_eps:
                raise SimulationError(
                    f"postselecting qubit {qubit} on {bit}: outcome has zero "
                    "probability"
                )
            for c in self._chunks:
                c /= norm
            return
        B = self._n_branches
        sq = np.zeros(B)
        for c in self._chunks:
            sq += (np.abs(c.reshape(B, -1)) ** 2).sum(axis=1)
        norms = np.sqrt(sq)
        if np.any(norms < self._norm_eps):
            raise SimulationError(
                f"postselecting qubit {qubit} on {bit}: outcome has zero "
                "probability in some branch"
            )
        for c in self._chunks:
            c.reshape(B, -1)[:] /= norms[:, None]

    def measure_many(self, qubits: Iterable[int]) -> list[int]:
        """Measure several qubits sequentially (with collapse)."""
        return [self.measure(q) for q in qubits]

    def amplitude(self, bits: Sequence[int], qubits: Sequence[int] | None = None) -> complex:
        """Amplitude of the computational basis state given by ``bits``.

        ``qubits`` defaults to all qubits in allocation order.
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if len(bits) != len(qubits):
            raise SimulationError("bits and qubits must have equal length")
        if len(qubits) != self.num_qubits:
            raise SimulationError("amplitude() requires all qubits")
        self._require_unforked("amplitude")
        g = 0
        for bval, q in zip(bits, qubits):
            g |= int(bval) << self._bit(q)
        nl = self.n_local
        return complex(self._chunks[g >> nl][g & ((1 << nl) - 1)])

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Dense state vector with ``qubits[0]`` as the most significant bit.

        ``qubits`` must enumerate all allocated qubits; defaults to
        allocation order (for which this is a plain chunk concatenation).
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if sorted(qubits) != sorted(self._bit_of):
            raise SimulationError("statevector() requires all qubit ids exactly once")
        self._require_unforked("statevector")
        full = np.concatenate(self._chunks)
        n = self.num_qubits
        # Axis i of the (2,)*n view is global bit n-1-i == qubit_ids[i].
        axes = [n - 1 - self._bit(q) for q in qubits]
        return np.moveaxis(full.reshape((2,) * n), axes, range(n)).reshape(-1).copy()

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement distribution over computational basis states."""
        vec = self.statevector(qubits)
        return np.abs(vec) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (should always be ~1).

        In shots mode this is the root-mean-square of the per-branch
        norms, so it stays ~1 regardless of how many branches exist.
        """
        sq = sum(float(np.sum(np.abs(c) ** 2)) for c in self._chunks)
        if self._shots is not None:
            sq /= self._n_branches
        return float(np.sqrt(sq))

    def expectation_pauli(self, mapping: dict[int, str]) -> float:
        """Expectation value of a Pauli string ``{qubit: 'X'|'Y'|'Z'}``."""
        self._require_unforked("expectation_pauli")
        saved = [c.copy() for c in self._chunks]
        try:
            for q, p in mapping.items():
                self.apply(G.PAULIS[p.upper()], q)
            val = sum(np.vdot(s, c) for s, c in zip(saved, self._chunks))
        finally:
            self._chunks = saved
        return float(np.real(val))

    def copy(self) -> "ShardedStateVector":
        """Deep copy (shares no state, including a cloned RNG)."""
        out = ShardedStateVector.__new__(ShardedStateVector)
        # Same break-even, fresh counters: the copy's kernel hits are its own.
        out._kernels = KernelDispatch()
        out._kernels.jit_min_amps = self._kernels.jit_min_amps
        out.n_shards = self.n_shards
        out._fabric = Fabric(self.n_shards)
        out._tags = itertools.count()
        out._dtype = self._dtype
        out._zero_atol = self._zero_atol
        out._norm_eps = self._norm_eps
        out._agree_eps = self._agree_eps
        out._chunks = [c.copy() for c in self._chunks]
        out._bit_of = dict(self._bit_of)
        out._next_id = self._next_id
        out._shots = self._shots
        out._shot_of = None if self._shot_of is None else self._shot_of.copy()
        out._n_branches = self._n_branches
        out.segments_executed = self.segments_executed
        out.rng = np.random.default_rng(self.rng.integers(2**63))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedStateVector n={self.num_qubits} chunks={self.num_chunks}"
            f"x{self.chunk_size} ids={self.qubit_ids}>"
        )


bind_engine_gates(ShardedStateVector)
