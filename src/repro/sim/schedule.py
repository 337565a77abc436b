"""Unified execution-schedule IR: classified segments for the amplitude store.

The QMPI paper's performance model works because every operation is
classified *once* — local vs. EPR-mediated — before execution.  This
module is the **single place where execution strategy is decided**, in
two passes:

:func:`lower_flush` — the stream-side pass (run behind
:meth:`repro.qmpi.backend.QuantumBackend.apply_flush`): diagonal
coalescing followed by **size-aware** contraction planning, a function
of the register size alone (:func:`plan_window`).  Planning pays only
from :data:`PLAN_MIN_QUBITS` (the fused matmul amortizes its planning +
window-product overhead from about 16 qubits; below that the pass is
bypassed outright), and from :data:`WIDE_WINDOW_MIN_QUBITS` the
per-pass memory traffic dominates, so :data:`WIDE_WINDOW`-qubit windows
— one 16x16 contraction replacing >= 4 strided passes — win and
:data:`~repro.sim.plan.MAX_WINDOW` is widened.

:func:`compile_segments` — the engine-side pass (called by
:meth:`repro.sim.sharded.ShardedStateVector.compile_batch`): turns the
lowered op list into an ordered list of typed **segments**, each tagged
exactly once with its communication class against the chunk layout:

* :class:`KernelRun`    — a maximal run of communication-free kernels
  (single-qubit strided passes, controlled gates with chunk-local
  targets, chunk-local contractions);
* :class:`DiagSegment`  — one coalesced :class:`~repro.sim.diag.DiagBatch`,
  always communication-free (phase-vector multiply per shard-bit
  signature);
* :class:`PlanSegment`  — one :class:`~repro.sim.plan.ContractionPlan`,
  classified against the chunk layout exactly once;
* :class:`ExchangeSegment` — an op whose unitary genuinely mixes
  amplitudes across a shard axis (or a rare generic shape outside the
  kernel vocabulary): the store falls back to its exchange paths.

Communication classes (:data:`LOCAL` / :data:`BLOCKDIAG` /
:data:`MIXING`) mirror the sharded layout: ``local`` never reads the
chunk index, ``blockdiag`` selects per-chunk factors or sub-blocks from
the shard-bit signature but never moves amplitude between chunks, and
``mixing`` requires chunk exchange.  A maximal run of non-``mixing``
segments is a **communication-free stretch** — the unit
:meth:`repro.sim.sharded.ShardedStateVector.execute_frozen` runs
chunk-major, touching each chunk once per stretch.

The store is a pure *interpreter* of this IR: it decides no
communication, it only picks, per entry, the kernel that runs it
(:meth:`~repro.sim.sharded.ShardedStateVector.freeze_segments`).  With
one chunk every bit is local, so every segment is ``local``.
"""

from __future__ import annotations

import numpy as np

from .diag import DiagBatch, coalesce_diagonals
from .plan import MAX_WINDOW, ContractionPlan, plan_contractions, window_product

__all__ = [
    "LOCAL",
    "BLOCKDIAG",
    "MIXING",
    "PLAN_MIN_QUBITS",
    "WIDE_WINDOW_MIN_QUBITS",
    "WIDE_WINDOW",
    "plan_window",
    "Segment",
    "KernelRun",
    "DiagSegment",
    "PlanSegment",
    "ExchangeSegment",
    "classify_matrix",
    "is_parametric",
    "monomial_pattern",
    "plan_support",
    "lower_flush",
    "compile_segments",
    "iter_stretches",
]

#: Communication class: the segment never reads the chunk index.
LOCAL = "local"
#: Communication class: per-chunk factors/sub-blocks selected by the
#: shard-bit signature; amplitudes never cross a chunk boundary.
BLOCKDIAG = "blockdiag"
#: Communication class: amplitudes move between chunks (fabric exchange).
MIXING = "mixing"


# The planning thresholds come from the contraction-plan and
# schedule-compiler sweeps recorded in CHANGES.md: fused matmuls lose
# below ~16 qubits, where per-op dispatch is cheaper than planning; the
# 16x16 four-qubit contraction wins from ~18 qubits, where one pass
# over the amplitudes beats four.  BENCHMARK.json's ``sweep_small``
# sits below the first, ``trotter_*`` and ``qft_sharded`` at or above
# the second.

#: Register size below which contraction planning is bypassed outright.
PLAN_MIN_QUBITS = 16
#: Register size from which plan windows widen to :data:`WIDE_WINDOW`.
WIDE_WINDOW_MIN_QUBITS = 18
#: Widened window bound.  Widening is growth-only: bridge merges stay
#: at :data:`~repro.sim.plan.MAX_WINDOW` (merging two viable small
#: windows saves no pass — see :func:`repro.sim.plan.plan_contractions`).
WIDE_WINDOW = 4


def plan_window(n_qubits: int) -> int:
    """Window bound for contraction planning at this register size.

    0 (planning bypassed) below :data:`PLAN_MIN_QUBITS`,
    :data:`WIDE_WINDOW` from :data:`WIDE_WINDOW_MIN_QUBITS`, and
    :data:`~repro.sim.plan.MAX_WINDOW` in between.  The constants are
    read at call time.
    """
    if n_qubits < PLAN_MIN_QUBITS:
        return 0
    if n_qubits >= WIDE_WINDOW_MIN_QUBITS:
        return WIDE_WINDOW
    return MAX_WINDOW


class Segment:
    """Base of all schedule segments: a communication class.

    ``comm`` is :data:`LOCAL`, :data:`BLOCKDIAG` or :data:`MIXING`.
    Segments are produced by :func:`compile_segments` and consumed by
    the engine interpreters — they are never built by user code.
    """

    __slots__ = ("comm",)

    def __init__(self, comm: str):
        self.comm = comm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} comm={self.comm}>"


class KernelRun(Segment):
    """A maximal run of communication-free kernels.

    ``ops`` are the source op records; ``entries`` are their tagged
    per-chunk kernel entries, one per op, which the store freezes.
    """

    __slots__ = ("ops", "entries")

    def __init__(self, ops, entries, comm):
        super().__init__(comm)
        self.ops = tuple(ops)
        self.entries = tuple(entries)


class DiagSegment(Segment):
    """One coalesced diagonal batch (always communication-free)."""

    __slots__ = ("batch",)

    def __init__(self, batch: DiagBatch, comm):
        super().__init__(comm)
        self.batch = batch


class PlanSegment(Segment):
    """One contraction plan, classified against the layout exactly once.

    ``entry`` is the plan's kernel-run entry — ``("ct", u, bits)`` for
    an all-local window, ``("csel", table, hi_bits, lo_bits, rows)`` for
    a window block-diagonal on its shard axes — or ``None`` for a
    ``mixing`` plan the engine must exchange for.
    """

    __slots__ = ("plan", "entry")

    def __init__(self, plan: ContractionPlan, entry, comm):
        super().__init__(comm)
        self.plan = plan
        self.entry = entry


class ExchangeSegment(Segment):
    """An op executed through the engine's generic (exchange) path."""

    __slots__ = ("op",)

    def __init__(self, op, comm):
        super().__init__(comm)
        self.op = op


# ----------------------------------------------------------------------
# stream-side pass: size-aware lowering
# ----------------------------------------------------------------------
def lower_flush(ops, n_qubits: int):
    """Lower a flushed op buffer: coalesce diagonals, then plan windows.

    This is the stream-side half of the flush-time compiler, run on a
    rank's raw buffer by the backend's flush entry point with the
    current register size, so the planning decision is **size-aware**:
    below :data:`PLAN_MIN_QUBITS` the contraction pass is bypassed
    outright (no :class:`~repro.sim.plan.ContractionPlan` is ever
    built), and on large registers windows widen to :data:`WIDE_WINDOW`
    qubits (see :func:`plan_window`).
    """
    ops = coalesce_diagonals(ops)
    w = plan_window(n_qubits)
    if w:
        # Widening is growth-only: merges stay at the base bound.
        ops = plan_contractions(
            ops, max_window=w, merge_window=min(w, MAX_WINDOW)
        )
    return ops


# ----------------------------------------------------------------------
# layout classification
# ----------------------------------------------------------------------
def _csel_layout(bits, n_local: int):
    """Structural sub-block layout of a window over the chunk boundary.

    Returns ``(mixing, rows_per_sig, hi_bits, lo_bits)``: the boolean
    mask of matrix entries that would couple two distinct shard-axis
    bit patterns, the row-index array each shard-bit signature selects,
    and the shard-/local-bit tuples of the eventual ``"csel"`` entry.
    Depends only on ``bits`` and ``n_local`` — never on matrix values —
    so the ``"csel"`` entry carries ``rows_per_sig`` and the schedule
    cache rebuilds its table from them across parameter rebinds.
    """
    bits = list(bits)
    w = len(bits)
    high_idx = [i for i, b in enumerate(bits) if b >= n_local]
    h = len(high_idx)
    # Row/column index bit of window qubit i is (w - 1 - i); the matrix
    # is exchange-free iff no entry couples two distinct shard-axis bit
    # patterns.
    hmask = sum(1 << (w - 1 - i) for i in high_idx)
    g = np.arange(1 << w)
    mixing = (g[:, None] & hmask) != (g[None, :] & hmask)
    rows_per_sig = []
    for sig in range(1 << h):
        pattern = sum(
            ((sig >> (h - 1 - j)) & 1) << (w - 1 - i)
            for j, i in enumerate(high_idx)
        )
        rows_per_sig.append(g[(g & hmask) == pattern])
    hi_bits = tuple(bits[i] - n_local for i in high_idx)
    lo_bits = tuple(b for b in bits if b < n_local)
    return mixing, rows_per_sig, hi_bits, lo_bits


def _csel_table(u: np.ndarray, rows_per_sig):
    """Extract the per-signature sub-blocks of a block-diagonal window.

    Identity sub-blocks become ``None`` (skipped at execution), ``1x1``
    sub-blocks collapse to scalars.  Value-dependent by design: the
    schedule cache re-runs this per parameter payload on the entry's
    structural ``rows_per_sig`` layout.
    """
    eye = np.eye(len(rows_per_sig[0]), dtype=np.complex128)
    table = []
    for rows in rows_per_sig:
        sub = np.ascontiguousarray(u[np.ix_(rows, rows)])
        if np.allclose(sub, eye, rtol=0.0, atol=1e-12):
            table.append(None)
        elif sub.shape == (1, 1):
            table.append(complex(sub[0, 0]))
        else:
            table.append(sub)
    return tuple(table)


def classify_matrix(u: np.ndarray, bits, n_local: int, support=None):
    """Classify a unitary over bit positions against the chunk layout.

    Returns a kernel-run entry for the communication-free forms, or
    ``None`` when the matrix needs chunk exchange:

    * every bit below ``n_local`` — ``("ct", u, bits)``: one in-chunk
      contraction per chunk;
    * the matrix **block-diagonal** on every shard axis it touches
      (control-like high bits, products of diagonals) — ``("csel",
      table, hi_bits, lo_bits, rows_per_sig)``: each chunk contracts the
      sub-block its shard-bit signature selects (identity sub-blocks
      ``None`` are skipped; a window with no local qubits reduces to
      per-chunk scalars);
    * anything else mixes amplitudes across a shard axis — ``None``.

    ``support`` (optional) is a non-negative matrix whose nonzero
    pattern is a superset of ``|u|``'s for *every* parameter assignment
    (see :func:`plan_support`): when given, the block-diagonality
    decision is made on it instead of on ``u``'s current values, so the
    classification is stable under parameter rebinding — a window that
    happens to be block-diagonal at one angle but mixes at another is
    always classified ``mixing``.

    :func:`compile_segments` calls it once per plan and once per
    generic op, the only place a window is classified.
    """
    bits = list(bits)
    if all(b < n_local for b in bits):
        return ("ct", u, tuple(bits))
    mixing, rows_per_sig, hi_bits, lo_bits = _csel_layout(bits, n_local)
    probe = np.abs(u) if support is None else support
    if np.any(probe[mixing] > 1e-12):
        return None
    return ("csel", _csel_table(u, rows_per_sig), hi_bits, lo_bits, rows_per_sig)


# ----------------------------------------------------------------------
# parameter-stable structure: support supersets
# ----------------------------------------------------------------------
#: Generic sample angles for parametric support evaluation.  Every
#: matrix entry of the built-in rotation builders is of the form
#: ``cos(t/2)``, ``sin(t/2)`` or ``e^{i t}`` — each vanishes only on an
#: isolated lattice of angles spaced ``pi`` apart (as half-angles), so
#: no entry can vanish at both samples and the elementwise maximum over
#: them covers the support of *every* parameter assignment.
_SUPPORT_SAMPLES = (0.7365439, 2.1130981)


def is_parametric(op) -> bool:
    """Whether ``op`` is a named gate with continuous parameters.

    Parametric ops are the ones whose matrix values the schedule cache
    holds out of the structural key (the parameters travel in the
    payload vector instead); explicit-``unitary`` ops and constant
    gates hash by value/name.
    """
    return bool(
        getattr(op, "params", ())
        and getattr(op, "spec", None) is not None
        and getattr(op.spec, "builder", None) is not None
    )


def _op_support(op) -> np.ndarray:
    """Non-negative support superset of an op's full matrix.

    Constant and explicit-matrix ops contribute their exact nonzero
    pattern; parametric ops contribute the union of their patterns at
    the two generic :data:`_SUPPORT_SAMPLES` angles, which covers every
    parameter assignment for sinusoidal/phase entries.
    """
    if is_parametric(op):
        acc = None
        for s in _SUPPORT_SAMPLES:
            sampled = type(op)(op.gate, op.qubits, (s,) * len(op.params))
            m = np.abs(np.asarray(sampled.matrix(), dtype=np.complex128))
            acc = m if acc is None else np.maximum(acc, m)
        m = acc
    else:
        m = np.abs(np.asarray(op.matrix(), dtype=np.complex128))
    return (m > 1e-12).astype(np.float64)


def _pattern_of(m):
    """``perm`` with ``m[perm[j], j]`` the one nonzero of column ``j``, or None.

    Exact zeros only: a residual ``1e-17`` keeps the matrix dense, so a
    window run as moves computes exactly what its matrix says.
    """
    perm = []
    for col in np.asarray(m).T.tolist():
        rows = [i for i, x in enumerate(col) if x != 0]
        if len(rows) != 1:
            return None
        perm.append(rows[0])
    return tuple(perm) if len(set(perm)) == len(perm) else None


#: Registry gate name -> monomial pattern of its target matrix (None:
#: dense).  Gate names cannot be re-registered, so entries never go stale.
_GATE_PATTERNS: dict = {}


def _gate_pattern(spec):
    if spec.name not in _GATE_PATTERNS:
        if spec.builder is None:
            pat = _pattern_of(spec.target_matrix(()))
        else:
            # Structural, like _op_support: the pattern at both generic
            # sample angles, kept only where they agree.
            pats = {
                _pattern_of(spec.target_matrix((s,) * spec.n_params))
                for s in _SUPPORT_SAMPLES
            }
            pat = pats.pop() if len(pats) == 1 else None
        _GATE_PATTERNS[spec.name] = pat
    return _GATE_PATTERNS[spec.name]


def monomial_pattern(rec, full: bool = True):
    """Monomial pattern of an op's or plan's matrix, or None when dense.

    A matrix is *monomial* when every column holds exactly one nonzero:
    it moves amplitudes and scales them, and
    :meth:`~repro.sim.kernels.KernelDispatch.contract` runs it as slice
    moves with no product.  The pattern is ``perm`` with ``u[perm[j],
    j]`` that nonzero.  ``full`` selects the op's full matrix (controls
    included, what a ``"ct"`` entry carries) over its target matrix
    (what a chunk-local ``"sq"`` / ``"cc"`` entry contracts under its
    controls).

    The answer is structural wherever the schedule cache rebinds values,
    so a frozen window stays valid across rebinds:

    * a registry gate answers once per name (parametric ones at the
      :data:`_SUPPORT_SAMPLES` angles, like :func:`_op_support`);
    * an explicit ``unitary`` op and a plan with no parametric source
      answer from their values, which are their cache key;
    * a parametric plan is monomial iff every source is: its support
      (:func:`plan_support`) is a product of non-negative supports of
      invertible matrices, which keeps a column with two nonzeros
      wherever a factor has one.  Its values then carry the same
      pattern at every angle, since each entry is one product of the
      sources' nonzeros.
    """
    if isinstance(rec, ContractionPlan):
        sources = rec.sources
        if sources is not None and any(is_parametric(op) for op in sources):
            if not all(monomial_pattern(op) for op in sources):
                return None
        return _pattern_of(rec.u)
    spec = rec.spec
    pat = _pattern_of(rec.u) if spec is None else _gate_pattern(spec)
    nc = rec.n_controls
    if pat is None or not full or not nc:
        return pat
    # Controls are the most significant index bits: identity until the
    # all-ones block, which holds the target pattern.
    d = len(pat)
    off = (d << nc) - d
    return tuple(range(off)) + tuple(off + p for p in pat)


def plan_support(plan: ContractionPlan):
    """Support superset of a plan's window unitary over all parameters.

    Returns ``None`` when the plan carries no parametric sources (its
    current values *are* its structure — classify them directly), else
    a non-negative matrix whose nonzero pattern contains ``|plan.u|``'s
    for every parameter assignment: the boolean chain product of the
    per-op support matrices (non-negative products cannot cancel, so
    the product pattern only ever over-approximates).  Classifying on
    it keeps the block-diagonal/mixing decision identical across
    parameter rebinds — the invariant the schedule cache relies on.
    """
    sources = plan.sources
    if sources is None or not any(is_parametric(op) for op in sources):
        return None
    s = window_product(
        sources, plan.qubits, _op_support, dtype=np.float64
    )
    return (s > 1e-12).astype(np.float64)


# ----------------------------------------------------------------------
# engine-side pass: op list -> segments
# ----------------------------------------------------------------------
def compile_segments(ops, bit, n_local: int):
    """Compile a lowered op list into an ordered list of segments.

    ``bit`` is a callable mapping a qubit id to its global bit position
    (the store passes its ``_bit``); ``n_local`` is the chunk boundary
    (bits below it are chunk-local).

    Segment order preserves program order op-for-op — each input record
    lands in exactly one segment, and segments are emitted in
    first-touch order — so interpreting the segments in sequence is
    exactly the sequential application.
    """
    segs: list[Segment] = []
    run_ops: list = []
    run_entries: list = []
    run_comm = LOCAL

    def close_run() -> None:
        nonlocal run_ops, run_entries, run_comm
        if run_ops:
            segs.append(KernelRun(run_ops, run_entries, run_comm))
            run_ops = []
            run_entries = []
            run_comm = LOCAL

    def push_entry(op, entry, comm) -> None:
        nonlocal run_comm
        run_ops.append(op)
        run_entries.append(entry)
        if comm == BLOCKDIAG:
            run_comm = BLOCKDIAG

    for op in ops:
        if isinstance(op, DiagBatch):
            close_run()
            comm = LOCAL
            if any(bit(q) >= n_local for q in op.qubits):
                comm = BLOCKDIAG
            segs.append(DiagSegment(op, comm))
            continue
        if isinstance(op, ContractionPlan):
            close_run()
            bits = [bit(q) for q in op.qubits]
            # An all-local window is "ct" whatever its values: no support.
            support = plan_support(op) if max(bits) >= n_local else None
            entry = classify_matrix(op.u, bits, n_local, support=support)
            if entry is None:
                segs.append(PlanSegment(op, None, MIXING))
            else:
                comm = LOCAL if entry[0] == "ct" else BLOCKDIAG
                segs.append(PlanSegment(op, entry, comm))
            continue
        controls = op.controls
        targets = op.targets
        if not controls and len(targets) == 1:
            u = np.asarray(op.target_matrix(), dtype=np.complex128)
            b = bit(targets[0])
            # Structural diagonality (gate spec, not current values):
            # an rx(0.0) that happens to be the identity is still
            # routed as non-diagonal, so the comm pattern is a function
            # of circuit *shape* and the schedule cache can replay it
            # under any parameter payload.
            diag = op.is_diagonal
            if b < n_local:
                push_entry(op, ("sq", u, b, diag), LOCAL)
                continue
            if diag:
                push_entry(op, ("sq", u, b, diag), BLOCKDIAG)
                continue
            close_run()
            segs.append(ExchangeSegment(op, MIXING))
            continue
        if controls and len(targets) == 1:
            u = np.asarray(op.target_matrix(), dtype=np.complex128)
            t_b = bit(targets[0])
            diag = op.is_diagonal
            if t_b >= n_local and not diag:
                # Non-diagonal shard-axis target: restricted pair
                # exchange (the engine's specialized path).
                close_run()
                segs.append(ExchangeSegment(op, MIXING))
                continue
            c_bits = [bit(q) for q in controls]
            cmask = sum(1 << (b - n_local) for b in c_bits if b >= n_local)
            local_controls = tuple(sorted(b for b in c_bits if b < n_local))
            entry = ("cc", u, cmask, local_controls, t_b, diag)
            comm = BLOCKDIAG if (cmask or t_b >= n_local) else LOCAL
            push_entry(op, entry, comm)
            continue
        # Generic shape (uncontrolled multi-qubit, or the rare
        # multi-target controlled gate): classify its full matrix.
        qubits = op.qubits
        bits = [bit(q) for q in qubits]
        u = np.asarray(op.matrix(), dtype=np.complex128)
        entry = classify_matrix(u, bits, n_local)
        if entry is None:
            close_run()
            segs.append(ExchangeSegment(op, MIXING))
            continue
        comm = LOCAL if entry[0] == "ct" else BLOCKDIAG
        push_entry(op, entry, comm)
    close_run()
    return segs


def iter_stretches(segments):
    """Split a segment list into communication-free stretches.

    Yields ``(stretch, barrier)`` pairs in order: ``stretch`` is a
    (possibly empty) list of consecutive non-``mixing`` segments and
    ``barrier`` is the ``mixing`` segment that terminated it, or
    ``None`` for the final stretch.  A stretch is the unit the store
    runs chunk-major.
    """
    stretch: list[Segment] = []
    for seg in segments:
        if seg.comm != MIXING:
            stretch.append(seg)
        else:
            yield stretch, seg
            stretch = []
    yield stretch, None
