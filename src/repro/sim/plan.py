"""Per-chunk contraction plans: cross-op fusion of bounded qubit windows.

Peephole fusion (:class:`~repro.qmpi.stream.OpStream`) merges adjacent
*single*-qubit ops into one 2x2 product, and diagonal coalescing
(:func:`repro.sim.diag.coalesce_diagonals`) collapses diagonal runs
into phase tables — but a dense two-qubit-heavy circuit (a CNOT ladder,
a swap network, a random entangler) still dispatches one strided engine
pass per gate.  This module closes that gap at flush time:

:func:`plan_contractions` scans the (already diagonal-coalesced) op
sequence and fuses runs of one- and two-qubit ops into bounded qubit
**windows** (at most :data:`MAX_WINDOW` = 3 distinct qubits each),
emitting one :class:`ContractionPlan` per window — a precontracted
``4x4``/``8x8`` unitary plus the window's qubit tuple.  Several
windows stay open at once: because ops on *disjoint* qubit sets
commute, an op interleaved between two independent interaction
clusters (a brickwork entangler layer, gates on far-apart pairs) still
lands in the window of the cluster it touches, and only an op that
would push its window past the bound — or one that bridges open
windows that cannot all merge — forces an emission.  Windows are
pairwise qubit-disjoint by construction, which is exactly what makes
the reordering exact.

The cost unit is the *sweep over the amplitudes*, not the gate: a pass
is bandwidth-bound and costs about the same for a 2x2 as for a 16x16,
so a single-qubit gate should never pay for its own sweep when a
neighbouring window can carry it.  Three layout-free rules see to that:
(a) a bridging op that overflows the merge bound takes along the hit
windows that still fit beside it, smallest first, and only the rest are
emitted — the lone ``{rx(q)}`` left by a rotation layer rides into the
next step's ``cnot(q-1, q)`` instead of being flushed by it; (b) a
window holding a single op does not count toward the open-window bound
and is never evicted for it (keeping it costs nothing, emitting it
costs a sweep); (c) whenever the windows are drained — end of the
buffer or a barrier record — the lone single-qubit ops still open are
packed into shared windows first, so a trailing rotation layer on n
qubits is ``ceil(n / max_window)`` passes, not n.  All three only ever
delay an op past ops on *other* qubits (the windows are disjoint and
an emitted window's qubits are re-opened by whatever touches them
next), so every pair of ops that shares a qubit keeps its program
order — the one condition the reordering needs to be exact.

Each engine then applies **one matmul per plan**
instead of one pass per op; on the sharded engine a plan is
additionally *classified once* against the chunk layout (see
:meth:`repro.sim.sharded.ShardedStateVector.apply_ops`):

* every window qubit on a local axis — communication-free, the plan
  joins the per-chunk kernel run;
* shard-axis qubits on which the fused unitary is **block-diagonal**
  (control-like axes: a fused CNOT ladder controlled from a high axis)
  — still communication-free: each chunk applies the sub-block its
  shard-bit signature selects, one small matrix per signature;
* a shard axis the unitary genuinely mixes — one restricted pair/group
  chunk exchange for the *whole plan* instead of one per op.

Within a window the fused product is taken in program order, and ops
are only ever commuted past ops of *other* (qubit-disjoint) windows,
so semantics are exact; windows holding a single op pass through
untouched, preserving the engines' specialized single-op paths (a lone
cz stays communication-free, a lone high-target CNOT keeps its
restricted exchange).

This module lives in :mod:`repro.sim` (below the op IR) next to
:mod:`repro.sim.diag` so both engines can import it without cycles; :mod:`repro.qmpi.ops` re-exports
:class:`ContractionPlan` as part of the public IR.
"""

from __future__ import annotations

import numpy as np

from .diag import DiagBatch

__all__ = [
    "ContractionPlan",
    "plan_contractions",
    "window_product",
    "freeze_window",
    "replay_window",
    "MAX_WINDOW",
]

#: Default largest number of distinct qubits a plan window may span.
#: Three local qubits keep the fused unitary at 8x8 — still far below
#: chunk size — while letting ladder-shaped circuits (cnot chains, swap
#: networks) fuse pairs of overlapping two-qubit gates.  The schedule
#: (:func:`repro.sim.schedule.plan_window`) makes the bound
#: size-aware at flush time: planning is bypassed outright on small
#: registers and the window widens to four qubits (one 16x16
#: contraction) on large ones, where memory traffic dominates.
MAX_WINDOW = 3


class ContractionPlan:
    """A fused run of adjacent small ops: one unitary, one qubit window.

    Instances quack like :class:`~repro.sim.ops.Op` where the pipeline
    cares (``qubits``/``targets``/``controls``,
    ``spec``/``gate``/``params``, ``target_matrix``) so rank-ownership
    checks and generic dispatch treat them uniformly; engines
    special-case them for the one-matmul fast path.

    Build instances with :meth:`from_ops` (or let
    :func:`plan_contractions` do it); the constructor trusts its
    arguments.
    """

    __slots__ = ("u", "_qubits", "n_ops", "sources")

    #: Op-protocol constants: a plan is an uncontrolled multi-target
    #: pseudo-op outside the GATESET registry.
    spec = None
    gate = "contraction_plan"
    params: tuple = ()
    controls: tuple = ()
    n_controls = 0
    is_single = False

    def __init__(self, u: np.ndarray, qubits, n_ops: int):
        self.u = u
        self._qubits = tuple(qubits)
        self.n_ops = int(n_ops)
        #: Source op records the plan was fused from (set by
        #: :meth:`from_ops`; ``None`` for directly constructed plans).
        #: The schedule cache keys on them to rebind the window unitary
        #: under fresh rotation parameters.
        self.sources = None

    @property
    def qubits(self) -> tuple:
        """The window qubits, first-touch order (first = matrix MSB)."""
        return self._qubits

    @property
    def targets(self) -> tuple:
        """Alias of :attr:`qubits` (a plan has no control operands)."""
        return self._qubits

    def target_matrix(self) -> np.ndarray:
        """The precontracted window unitary (same as :meth:`matrix`)."""
        return self.u

    def matrix(self) -> np.ndarray:
        """The precontracted window unitary over :attr:`qubits`."""
        return self.u

    @classmethod
    def from_ops(cls, ops) -> "ContractionPlan":
        """Fuse an in-order run of one-/two-qubit ops into one plan.

        The window is the union of the ops' operands in first-touch
        order (at most :data:`MAX_WINDOW` qubits — the caller enforces
        the bound); the plan unitary is the in-order operator product
        ``op_k ... op_2 op_1`` with every op's full matrix (controls
        included) embedded over the window.
        """
        ops = tuple(ops)
        window: list[int] = []
        seen: set[int] = set()
        for op in ops:
            for q in op.qubits:
                if q not in seen:
                    seen.add(q)
                    window.append(q)
        u = window_product(ops, window, lambda op: op.matrix())
        plan = cls(u, window, len(ops))
        plan.sources = ops
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ContractionPlan qubits={self._qubits} n_ops={self.n_ops}>"


def window_product(ops, window, matrix_of, dtype=np.complex128):
    """In-order operator product of ``ops`` embedded over ``window``.

    ``matrix_of(op)`` supplies each op's full matrix (controls
    included); the result is the ``2^w x 2^w`` product ``M_k ... M_1``
    with every matrix embedded over the window qubits.  An op spanning
    the whole window in window order is a plain matmul (the common case
    for two-qubit windows), anything else embeds through a
    ``(2,)*w + (2,)*w`` view of U — applying the op matrix to U's row
    axes is the operator product ``E @ U`` without materializing the
    embedded ``E``.  :meth:`ContractionPlan.from_ops` runs it on the
    actual matrices; the schedule cache runs it on non-negative
    *support* matrices (which cannot cancel) to classify parametric
    windows independently of their rotation angles.
    """
    window = list(window)
    w = len(window)
    wtup = tuple(window)
    u = np.eye(1 << w, dtype=dtype)
    for op in ops:
        m = np.asarray(matrix_of(op), dtype=dtype)
        if op.qubits == wtup:
            u = m @ u
            continue
        k = len(op.qubits)
        axes = [window.index(q) for q in op.qubits]
        t = np.tensordot(
            m.reshape((2,) * (2 * k)),
            u.reshape((2,) * (2 * w)),
            axes=(range(k, 2 * k), axes),
        )
        u = np.ascontiguousarray(
            np.moveaxis(t, range(k), axes)
        ).reshape(1 << w, 1 << w)
    return u


def freeze_window(ops, window):
    """Precompute the structural recipe of one :func:`window_product`.

    For every op the recipe captures the shape of its embedding step —
    ``None`` for a full-window matmul, else ``(k, perm_in, perm_out)``
    where the permutations are exactly the transposes
    ``np.tensordot``/``np.moveaxis`` derive internally per call.  The
    recipe depends only on the window structure (op arities and qubit
    positions), never on matrix values, so the schedule cache computes
    it once per cached plan and replays fresh parameter payloads through
    :func:`replay_window` at a fraction of the per-flush cost.
    """
    window = list(window)
    w = len(window)
    wtup = tuple(window)
    widx = {q: i for i, q in enumerate(window)}
    steps = []
    for op in ops:
        if op.qubits == wtup:
            steps.append(None)
            continue
        k = len(op.qubits)
        axes = [widx[q] for q in op.qubits]
        # np.tensordot(m.reshape((2,)*2k), u.reshape((2,)*2w),
        #              axes=(range(k, 2k), axes)) transposes u by
        # contracted-axes-first before one flat dot ...
        perm_in = tuple(axes) + tuple(
            x for x in range(2 * w) if x not in axes
        )
        # ... and np.moveaxis(t, range(k), axes) is this transpose.
        order = list(range(k, 2 * w))
        for dest, src in sorted(zip(axes, range(k))):
            order.insert(dest, src)
        steps.append((k, perm_in, tuple(order)))
    return (w, tuple(steps))


def replay_window(recipe, mats, dtype=np.complex128):
    """Re-run a frozen :func:`window_product` on fresh matrices.

    Performs, step for step, the same numpy operations
    :func:`window_product` performs — the flat ``dot`` with the same
    operand layouts, the same transposes, the same contiguous copy — so
    the result is bit-identical to rebuilding the product from scratch;
    only the per-call structure derivation is skipped.
    """
    w, steps = recipe
    full = (2,) * (2 * w)
    dim = 1 << w
    u = np.eye(dim, dtype=dtype)
    for m, step in zip(mats, steps):
        if step is None:
            u = m @ u
            continue
        k, perm_in, perm_out = step
        bt = u.reshape(full).transpose(perm_in).reshape(1 << k, -1)
        t = np.dot(m, bt)
        u = np.ascontiguousarray(
            t.reshape(full).transpose(perm_out)
        ).reshape(dim, dim)
    return u


def _plannable(op) -> bool:
    """One- or two-qubit plain ops fuse; batches and plans are barriers."""
    return (
        not isinstance(op, (DiagBatch, ContractionPlan))
        and 1 <= len(op.qubits) <= 2
    )


def plan_contractions(
    ops,
    max_window: int = MAX_WINDOW,
    min_ops: int = 2,
    max_open: int = 16,
    merge_window: int | None = None,
):
    """Fuse small-op runs into :class:`ContractionPlan` records.

    Scans the op sequence in order, growing a set of open *windows* —
    pairwise qubit-disjoint clusters of at most ``max_window`` distinct
    qubits, each accumulating the ops that touch it in program order:

    * an op touching exactly one window joins it if the union still
      fits; otherwise that window is emitted and the op opens a fresh
      one (the classic break on a fourth distinct qubit);
    * an op touching no window opens a new one;
    * an op bridging several windows merges them when the combined
      qubit set fits ``merge_window``; otherwise it absorbs the hit
      windows that still fit beside it, smallest first, and only the
      rest are emitted (rule a);
    * at most ``max_open`` windows holding *several* ops stay alive
      (oldest emitted first); a window holding a lone op is free to
      keep and is never evicted (rule b);
    * anything non-plannable — :class:`~repro.sim.diag.DiagBatch`
      records, three-qubit ops — is a barrier: the windows are drained
      and the op passes through unchanged.  A drain (here and at the
      end of the buffer) first packs the lone single-qubit ops still
      open into shared windows of up to ``max_window`` qubits (rule c).

    Windows holding fewer than ``min_ops`` ops — or fewer ops than
    window qubits (the fused ``2^w`` matmul only pays once it replaces
    about one op per qubit) — pass their ops through untouched, so
    single gates and sparse runs keep the engines' specialized paths;
    that density rule is also why only lone *single-qubit* ops are
    worth packing at a drain: a window short of one op per qubit stays
    short however it is combined with others.

    Exactness: the open windows are pairwise qubit-disjoint at every
    step, each window's run is in program order, a merged run
    concatenates runs on disjoint qubits, and an op on a qubit of an
    emitted window opens a window that is emitted later.  So two ops
    that share a qubit always come out in program order, and an op is
    only ever delayed past ops on other qubits, with which it commutes
    — rules (a)-(c) included, since absorbing, keeping or packing a
    lone single-qubit op moves it only relative to other windows.

    With ``max_window`` above :data:`MAX_WINDOW` (size-aware widening,
    see :func:`repro.sim.schedule.plan_window`), only
    single-window *growth* may exceed ``merge_window`` (default
    ``max_window``; the size-aware caller pins it to
    :data:`MAX_WINDOW`): an op extending one live window to a fourth
    qubit would otherwise force an emit-and-reopen — one more pass over
    the amplitudes — so the 16x16 contraction that swallows it wins.
    A *bridge merge*, by contrast, combines windows that would each be
    emitted as a dense small plan anyway; fusing them saves no pass and
    only inflates the per-amplitude flops, so merges stay bounded by
    ``merge_window`` — measured, not guessed: unrestricted widening
    costs the ``brickwork`` 20q shared row ~10% while growth-only
    widening keeps ``rand2q``'s 11-16% win.
    """
    merge_window = max_window if merge_window is None else min(merge_window, max_window)
    out: list = []
    windows: list[tuple[list, set[int]]] = []  # (run, qubit set)

    def emit(i: int) -> None:
        run, wq = windows.pop(i)
        # Density rule: a 2^w contraction costs ~2^w flops per amplitude
        # while a sparse controlled gate costs ~1, so a window must hold
        # at least as many ops as qubits before the fused matmul can
        # amortize (two shard-axis-targeting CNOTs sharing only their
        # target, say, are faster through the per-op restricted
        # exchange — measured, not guessed: the chigh_cnot benchmark
        # row loses 3x without this bound).
        if len(run) < max(min_ops, len(wq)):
            out.extend(run)
            return
        out.append(ContractionPlan.from_ops(run))

    def drain() -> None:
        # Rule (c): of the windows the density rule would pass through,
        # only lone single-qubit ops can be lifted — a window short of
        # one op per qubit stays short however it is packed — so they
        # share windows of up to max_window qubits, one pass per group.
        lone, rest = [], []
        for w in windows:
            (lone if len(w[0]) == 1 == len(w[1]) else rest).append(w)
        if len(lone) > 1:
            windows[:] = rest
            for i in range(0, len(lone), max_window):
                group = lone[i : i + max_window]
                windows.append(
                    ([run[0] for run, _ in group], {q for _, wq in group for q in wq})
                )
        while windows:
            emit(0)

    for op in ops:
        if not _plannable(op):
            drain()
            out.append(op)
            continue
        qs = set(op.qubits)
        hits = [i for i, (_, wq) in enumerate(windows) if wq & qs]
        if len(hits) == 1 and len(windows[hits[0]][1] | qs) <= max_window:
            run, wq = windows[hits[0]]
            run.append(op)
            wq |= qs
        else:
            # Rule (a): the op takes along every hit window that still
            # fits beside it, smallest first (all of them when the
            # union fits — the plain merge); only the rest are emitted.
            # A single hit got here by overflowing max_window, so it
            # cannot fit the tighter merge bound either.
            fits = []
            for i in sorted(hits, key=lambda i: len(windows[i][1])):
                if len(qs | windows[i][1]) <= merge_window:
                    qs |= windows[i][1]
                    fits.append(i)
            run = [o for i in sorted(fits) for o in windows[i][0]]
            run.append(op)
            for i in reversed(hits):
                if i in fits:
                    del windows[i]
                else:
                    emit(i)
            windows.append((run, qs))
        # Rule (b): only windows holding several ops count toward
        # max_open (oldest evicted first; an op makes at most one more
        # of them) — a lone op costs nothing to keep and a whole pass
        # to emit.
        grown = [i for i, (run, _) in enumerate(windows) if len(run) > 1]
        if len(grown) > max_open:
            emit(grown[0])
    drain()
    return out
