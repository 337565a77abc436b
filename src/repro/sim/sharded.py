"""The amplitude store: a state vector split into chunks.

Classical HPC simulators (QCMPI; QuEST; the chunked ``SimDistribute``
design) split the ``2^n`` amplitudes into ``R`` contiguous chunks, one
per simulation rank, and apply each gate cooperatively:

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

With ``R = 1`` the store is the paper's §6 prototype — one global state
vector — and :class:`repro.sim.statevector.StateVector` is that
spelling: there is one store, one freeze path and one
:meth:`~ShardedStateVector.layout_key` format.

Layout
------
The state is a list of ``R`` flat contiguous in-RAM complex arrays
(complex128 by default; ``dtype="complex64"`` selects the half-footprint
mixed-precision tier).
Global amplitude index ``g`` lives in ``chunks[g >> n_local][g & (csize - 1)]``
with ``csize = 2^n_local``; in shots mode each chunk holds one such row
per measurement branch, rows leading.  Qubit bookkeeping is
:class:`repro.sim.register.Register`'s: a fresh qubit is a pending
factor until a call couples it to the register, and merging it makes
it the least significant bit, pushing the existing qubits up — a
strided fill of each new chunk — so bit order is merge order.

While fewer than ``log2(R)`` qubits are bits the engine runs with
``min(R, 2^n)`` active chunks and grows to the full shard count as
qubits merge; removing a high-axis qubit compacts the chunk list again.
The register's own steps — Pauli fix-ups, measurement forks, bit
drops — work on the halves :meth:`ShardedStateVector._halves` hands
out (a local bit's strided halves of every chunk, or a shard bit's
chunk pairs) in place; only gates go through the exchange layer.

Gate execution has one path: the compiled execution schedule
(:mod:`repro.sim.schedule`) is frozen into a per-chunk program and run
(:meth:`ShardedStateVector.freeze_segments` /
:meth:`~ShardedStateVector.execute_frozen` — a cold batch freezes and
runs once, the schedule cache keeps the program for replay).  The eager
``apply``, ``apply_controlled`` and named ``h``/``cnot``/... methods
emit :class:`~repro.sim.ops.Op` batches through
:meth:`~ShardedStateVector.apply_ops`.  Every record is classified
against the chunk layout exactly once, communication-free stretches
execute fold by fold without communication (kernel runs, plan
sub-blocks, and :class:`~repro.sim.diag.DiagBatch` phase tables applied
slab by slab), and only ``mixing`` segments exchange chunks, in the
exchange layer (pair, restricted-pair and group all-to-all).  Every
step updates the chunks in place and holds a few
:data:`~repro.sim.kernels.TILE_AMPS` slabs of scratch.  One process
owns every chunk: concurrency lives in the QMPI ranks above the
backend, never in a second pool under it.

Which kernel a chunk-local single-target entry runs is chosen at freeze
from the chunk's amplitude count ``2^n_local`` alone: under
:data:`_WINDOW_BELOW_AMPS` it is one
:meth:`~repro.sim.kernels.KernelDispatch.contract` over a frozen
:class:`~repro.sim.kernels.Window`, from there on the strided
``sq`` / ``cc`` pass.  The layout key pins ``n_local``, so the choice is
fixed per cached program and identical with or without shot rows or a
native provider.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..mpi.fabric import Fabric
from .diag import DiagBatch, apply_phase_tables
from .kernels import TILE_AMPS, KernelDispatch, Window, mix_pair, slabs
from .ops import SimulationError
from .register import Register
from .schedule import (
    DiagSegment,
    KernelRun,
    PlanSegment,
    compile_segments,
    iter_stretches,
    monomial_pattern,
)

__all__ = ["ShardedStateVector"]

#: Chunk rows of fewer amplitudes run a chunk-local ``"sq"`` / ``"cc"``
#: entry as a ``contract`` window instead of the strided pass.  Per call
#: on one complex128 chunk (single-threaded BLAS), a window beat the
#: numpy strided twin by 2-6x on every dense 2x2 up to 2^11 amplitudes,
#: tied or beat the native pass (4-16 vs 7-15 us), and tied or beat the
#: diagonal scales and the ``cc`` swap; from 2^12 the native pass ties
#: it and from 2^13 wins (docs/architecture.md).
_WINDOW_BELOW_AMPS = 1 << 12


def _apply_csel(chunk, entry, win, ci: int, kd: KernelDispatch) -> None:
    """Apply one ``"csel"`` entry to chunk ``ci``.

    ``("csel", table, hi_bits, lo_bits, rows)`` is a window
    block-diagonal on its shard axes: ``hi_bits`` (window order) select
    the chunk's signature index into ``table``, whose entry is the local
    sub-block to contract over ``lo_bits`` — ``None`` for an identity
    sub-block (skip), a complex scalar when the window has no local
    qubits.  ``win`` is the frozen :class:`~repro.sim.kernels.Window` of
    ``lo_bits`` (None when there are no local bits).
    """
    table, hi_bits = entry[1], entry[2]
    sig = 0
    for sb in hi_bits:
        sig = (sig << 1) | ((ci >> sb) & 1)
    u = table[sig]
    if u is None:
        return
    if win is None:
        kd.scale(chunk, u)  # all-shard window: a per-chunk scalar
    else:
        kd.contract(chunk, u, win)


class ShardedStateVector(Register):
    """A dynamically sized state-vector simulator sharded into chunks.

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    n_shards:
        Number of chunks the amplitudes are distributed over; must be a
        power of two. ``n_shards=1`` is one flat array
        (:class:`~repro.sim.statevector.StateVector`).
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
        self.n_shards = n_shards
        super().__init__(n_qubits, seed, dtype)

    # ------------------------------------------------------------------
    # the amplitude store (see repro.sim.register)
    # ------------------------------------------------------------------
    def _reset_store(self) -> None:
        # Zero qubits == one chunk holding the single amplitude 1.
        self._chunks: list[np.ndarray] = [np.ones(1, dtype=self._dtype)]
        self._n_branches = 1
        self._fabric = Fabric(self.n_shards)
        self._tags = itertools.count()

    def _own_store(self) -> None:
        self._chunks = [c.copy() for c in self._chunks]
        self._fabric = Fabric(self.n_shards)
        self._tags = itertools.count()

    def _arrays(self) -> list:
        return self._chunks

    def _grow(self, k: int, terms) -> None:
        """``k`` new low bits holding the factor ``terms``: old global
        index ``g`` becomes ``g << k | j`` for each term ``j``.

        While the active chunk count is below ``n_shards`` the register
        also splits into more chunks, so the count tracks
        ``min(n_shards, 2^n)``.  Each new chunk is allocated once, at
        its final size, and filled at stride ``2^k`` from the one old
        chunk its amplitudes come from; an old chunk is dropped as soon
        as its new chunks exist, so the peak is the new register plus
        one old chunk.
        """
        B = self._n_branches
        old = self._chunks
        old_size = old[0].size // B  # amplitudes per chunk per branch row
        count = min(self.n_shards, len(old) << k)
        per_old = count // len(old)
        size = (old_size << k) // per_old
        stride = 1 << k
        grown = []
        for o in range(len(old)):
            src = old[o].reshape(B, old_size)
            for s in range(per_old):
                chunk = np.zeros(B * size, dtype=self._dtype)
                start = s * size  # first new index, within old chunk o's span
                for j, amp in terms:
                    off = j - start % stride  # first index of this term in the chunk
                    if 0 <= off < size:
                        a = start >> k
                        np.multiply(
                            src[:, a : a + max(1, size >> k)],
                            amp,
                            out=chunk.reshape(B, size)[:, off::stride],
                        )
                grown.append(chunk)
            old[o] = None  # free it now: the peak stays one old chunk over the new register
        self._chunks = grown

    def _halves(self, b: int) -> list:
        B, nl = self._n_branches, self.n_local
        if b < nl:
            views = [c.reshape(B, -1, 2, 1 << b) for c in self._chunks]
            return [(v[:, :, 0], v[:, :, 1]) for v in views]
        mask = 1 << (b - nl)
        return [
            (self._chunks[i].reshape(B, -1), self._chunks[i | mask].reshape(B, -1))
            for i in range(len(self._chunks))
            if not i & mask
        ]

    def _rebuild(self, arrays) -> None:
        self._n_branches = arrays[0].shape[0]
        self._chunks = [a.reshape(-1) for a in arrays]

    def _fork(self, src) -> None:
        B = self._n_branches
        self._chunks = [c.reshape(B, -1)[src].reshape(-1) for c in self._chunks]
        self._n_branches = len(src)

    @property
    def n_branches(self) -> int:
        """Number of distinct measurement histories currently tracked."""
        return self._n_branches

    # ------------------------------------------------------------------
    # layout introspection
    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """Active chunk count (at most ``min(n_shards, 2^n)`` for ``n``
        store qubits; removing a high-axis qubit halves it until the
        next merge rebalances)."""
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

    # ------------------------------------------------------------------
    # chunk exchange (the communication layer)
    # ------------------------------------------------------------------
    def _pair_exchange(self, shard_bit: int, cmask: int = 0) -> dict[int, np.ndarray]:
        """Every chunk whose shard bits cover ``cmask`` sends its amplitudes
        to its partner in ``shard_bit`` and receives the partner's, all
        through the fabric mailboxes.  Returns the partner chunk for each
        participating chunk index."""
        tag = next(self._tags)
        mask = 1 << shard_bit
        parts = [c for c in range(len(self._chunks)) if (c & cmask) == cmask]
        for c in parts:
            self._fabric.send(0, c, c ^ mask, tag, self._chunks[c])
        return {c: self._fabric.recv(0, c, c ^ mask, tag).payload for c in parts}

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
    # engine contract (see repro.qmpi.backend.QuantumBackend)
    # ------------------------------------------------------------------
    # Named in this class body so per-engine tracing can wrap them.
    apply_ops = Register.apply_ops
    execute_segments = Register.execute_segments

    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Pins each touched qubit's global bit position, the chunk
        boundary, the active chunk count, the presence of shot-branch
        rows, and the amplitude dtype — everything
        :meth:`compile_batch`'s classification *and* the frozen
        programs depend on (the chunk boundary also fixes which kernel
        :meth:`_freeze_run` picks per entry).  Equal keys mean a program
        frozen under one is exact under the other; unknown qubit ids
        raise, so a recycled engine can never bind a stale schedule.
        Pending qubits among ``qubits`` are merged first.
        """
        self._merge(qubits)
        return (
            tuple(self._bit(q) for q in qubits),
            self.n_local,
            len(self._chunks),
            self._shots is not None,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch against the current chunk layout."""
        return compile_segments(ops, bit=self._bit, n_local=self.n_local)

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

        * ``("k", seg, i, win)`` -> ``kd.contract`` of the entry's matrix
          over its frozen :class:`~repro.sim.kernels.Window`, carrying
          the record's :func:`~repro.sim.schedule.monomial_pattern`: a
          ``"ct"`` entry (full matrix; ``i`` is None for a
          :class:`PlanSegment`), or a chunk-local ``"sq"`` / ``"cc"``
          entry on chunks under :data:`_WINDOW_BELOW_AMPS` (target
          matrix, under the local controls);
        * ``("sq", seg, i, b, diag)`` -> ``kd.sq``;
        * ``("cc", seg, i, local_controls, t_bit, nl, diag)`` -> ``kd.cc``;
        * ``("ss", seg, i, sel)`` -> ``kd.scale`` by the entry's diagonal
          element ``sel`` (a shard-axis ``sq`` target: its bit is fixed
          per chunk);
        * ``("cs", seg, i, sel, local_controls, nl)`` ->
          ``kd.masked_scale`` (a shard-axis ``cc`` target);
        * ``("g", seg, i, win)`` -> :func:`_apply_csel` (``win`` covers
          the local bits, None when there are none).

        The choice between ``"k"`` and ``"sq"`` / ``"cc"`` reads ``nl``
        alone — never the chunk's size with its shot rows, or the
        provider — so :meth:`layout_key` pins it.  Steps hold ``(seg,
        i)`` references rather than matrices, which rebinding replaces
        inside the live segments.
        """
        per_chunk: list[list] = [[] for _ in range(n_chunks)]
        small = (1 << nl) < _WINDOW_BELOW_AMPS
        for seg in segs:
            if isinstance(seg, KernelRun):
                sources = [(seg, i, e) for i, e in enumerate(seg.entries)]
            else:  # communication-free PlanSegment
                sources = [(seg, None, seg.entry)]
            for src, i, e in sources:
                kind = e[0]
                rec = src.plan if i is None else src.ops[i]
                if kind in ("sq", "cc"):
                    if kind == "sq":
                        t_bit, diag, cmask, local_controls = e[2], e[3], 0, ()
                    else:
                        cmask, local_controls, t_bit, diag = e[2], e[3], e[4], e[5]
                    local = None  # the step of a chunk-local target, the same on every chunk
                    if t_bit < nl and small:
                        pattern = monomial_pattern(rec, full=False)
                        local = ("k", src, i, Window((t_bit,), nl, local_controls, pattern))
                    elif t_bit < nl and kind == "sq":
                        local = ("sq", src, i, t_bit, diag)
                    elif t_bit < nl:
                        local = ("cc", src, i, local_controls, t_bit, nl, diag)
                    for ci in range(n_chunks):
                        if (ci & cmask) != cmask:
                            continue
                        step = local
                        if step is None:  # a shard-axis target: its bit is fixed per chunk
                            sel = (ci >> (t_bit - nl)) & 1
                            step = ("ss", src, i, sel) if kind == "sq" else (
                                "cs", src, i, sel, local_controls, nl)
                        per_chunk[ci].append(step)
                elif kind == "ct":
                    step = ("k", src, i, Window(e[2], nl, pattern=monomial_pattern(rec)))
                    for ci in range(n_chunks):
                        per_chunk[ci].append(step)
                else:  # "csel": a table's sub-blocks differ per signature, so no pattern
                    step = ("g", src, i, Window(e[3], nl) if e[3] else None)
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
            if tag == "k":
                kd.contract(chunk, entry[1], args[0])
            elif tag == "sq":
                kd.sq(chunk, entry[1], *args)
            elif tag == "cc":
                kd.cc(chunk, entry[1], *args)
            elif tag == "ss":
                kd.scale(chunk, entry[1][args[0], args[0]])
            elif tag == "cs":
                kd.masked_scale(chunk, entry[1][args[0], args[0]], *args[1:])
            else:  # "g"
                _apply_csel(chunk, entry, args[0], ci, kd)

    def execute_frozen(self, program) -> None:
        """Execute a frozen program: the engine's only gate-batch path.

        Every step updates the chunks in place and holds a few
        :data:`~repro.sim.kernels.TILE_AMPS` slabs of scratch: a fold of
        kernel runs goes chunk by chunk, a diagonal batch slab by slab
        (:meth:`_apply_diag_batch`), and a barrier through the exchange
        layer, which also walks slabs.
        """
        for step in program:
            if step[0] == "stretch":
                _, folds, n_segments = step
                self.segments_executed += n_segments
                # Chunks are independent between barriers, so running the
                # folds one after another gives every chunk the same op
                # order — and the same amplitudes — as any interleaving.
                for kind, payload in folds:
                    if kind == "diag":
                        self._apply_diag_batch(payload.batch)
                    else:
                        for ci, chunk in enumerate(self._chunks):
                            self._exec_frozen_chunk(payload, ci, chunk)
                continue
            # Barrier: the one record that moves amplitude between
            # chunks goes to the exchange layer.
            barrier = step[1]
            self.segments_executed += 1
            self._exchange(
                barrier.plan if isinstance(barrier, PlanSegment) else barrier.op
            )

    def _apply_diag_batch(self, batch: DiagBatch) -> None:
        """Multiply a diagonal batch into every chunk in place.

        The tables, keyed by bit position (chunk layout), go to
        :func:`repro.sim.diag.apply_phase_tables`, which cuts each chunk into slabs of at most
        :data:`~repro.sim.kernels.TILE_AMPS` amplitudes: one slab-sized
        base table for the low local bits, and a small factor per group
        of slabs for the tables on higher local bits or shard bits.
        Shard axes are fixed per chunk, so no amplitude moves between
        chunks.
        """
        singles = [(self._bit(q), t) for q, t in batch.phases1.items()]
        pairs = [
            ((self._bit(a), self._bit(b)), t)
            for (a, b), t in batch.phases2.items()
        ]
        apply_phase_tables(singles, pairs, self._chunks, self.n_local, kernels=self._kernels)

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
        self._apply_pair(u, self._bit(rec.targets[0]), [self._bit(q) for q in rec.controls])

    def _apply_pair(self, u: np.ndarray, t_bit: int, c_bits=()) -> None:
        """Single-target gate on shard axis ``t_bit``, under controls on
        bits ``c_bits``: pair-chunk exchange, then a local linear
        combination, in place, slab by slab (a few slabs of scratch).

        Only chunks whose shard-axis control bits are all 1 take part;
        each pair combines on the all-ones slice of the *local* control
        axes — no dense ``controlled(u)`` and no group all-to-all.  The
        fabric payloads alias live peer chunks, so both new halves of a
        slab are computed before either is written.
        """
        nl = self.n_local
        cmask = sum(1 << (b - nl) for b in c_bits if b >= nl)
        # Leading -1 axis folds in any shot-branch rows.
        shape = (-1,) + (2,) * nl
        idx: list = [slice(None)] * (nl + 1)
        for b in c_bits:
            if b < nl:
                idx[nl - b] = 1
        idx = tuple(idx)
        pmask = 1 << (t_bit - nl)
        partners = self._pair_exchange(t_bit - nl, cmask)
        for i in partners:
            if i & pmask:
                continue
            j = i | pmask
            lo, hi, from_hi, from_lo = (
                a.reshape(shape)[idx]
                for a in (self._chunks[i], self._chunks[j], partners[i], partners[j])
            )
            for sel in slabs(lo.shape):
                mix_pair(u, lo[sel], hi[sel], from_hi[sel], from_lo[sel])

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedStateVector n={self.num_qubits} chunks={self.num_chunks}"
            f"x{self.chunk_size} ids={self.qubit_ids}>"
        )

