"""Schedule cache: structural circuit hashing and parameterized replay.

Production QMPI workloads replay the same circuit *shapes* millions of
times — VQE/Trotter parameter sweeps, shot services, job streams — yet
every flush used to re-run the whole schedule compiler
(:func:`~repro.sim.schedule.lower_flush` +
:func:`~repro.sim.schedule.compile_segments`) from scratch.  QCMPI and
MPI-Q amortize exactly this with precompiled communication schedules;
this module is that amortization for the flush pipeline.

The key insight is the split between a batch's **structure** and its
**payload**:

* the *structural key* covers everything the compiled segment list's
  shape depends on — gate names, canonicalized qubit patterns (ids are
  renumbered by first touch, so a recycled backend with drifted ids
  still hits), explicit-matrix bytes for fused
  :data:`~repro.qmpi.ops.UNITARY` records (peephole fusion makes their
  structure value-dependent by design) and the register size, which
  alone steers the lowering passes (:func:`~repro.sim.schedule.plan_window`);
* the *payload* is the flat vector of continuous gate parameters
  (rz/crz/cphase angles, ...), held **out** of the key: two flushes of
  the same Trotter step with different angles share one cache entry.

A cache entry (:class:`CachedSchedule`) holds the lowered template and,
per *engine layout* (:meth:`layout_key` — qubit positions, chunk
boundary, chunk count, shots branch axis, dtype), one
:class:`CompiledLayout`: the compiled segment list, *binders* that
know which segment parts are value-dependent, and the engine's frozen
program over those segments (``engine.freeze_segments``).  Replay then
rebinds only the value-dependent parts — rebuilt matrices for
parametric kernel entries, fresh phase tables for
:class:`~repro.sim.diag.DiagBatch` segments, fresh window products for
:class:`~repro.sim.plan.ContractionPlan` segments — through the *same*
numeric routines the cold compiler uses, and runs the program.

There is one executor: a miss, a hit, ``cache="off"`` and a bypass all
end in ``engine.execute_frozen`` (the last two through
``engine.apply_ops``, which freezes and runs once), so cached replay
is float-identical to a cold run by construction — and the
differential fuzz suite checks both against a dense oracle that shares
no code with this pipeline (``tests/_dense_oracle.py``).  The engine
contract the cache relies on (``layout_key`` / ``compile_batch`` /
``freeze_segments`` / ``execute_frozen``) is stated in
:class:`repro.qmpi.backend.QuantumBackend`.

Safety relies on two invariants established in
:mod:`repro.sim.schedule`:

* classification is **parameter-stable**: single-qubit routing uses the
  structural :attr:`~repro.sim.ops.Op.is_diagonal` flag and parametric
  plan windows are classified on a value-independent support superset
  (:func:`~repro.sim.schedule.plan_support`), so a segment's kind and
  communication class never change under rebinding;
* the engine layout key pins everything else the segments depend on —
  a changed layout (alloc/release/rebalance, shots mode, recycled
  backend) misses the layout table and recompiles instead of replaying
  stale segments.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .diag import DiagBatch
from .plan import ContractionPlan, freeze_window, replay_window
from .schedule import (
    DiagSegment,
    KernelRun,
    PlanSegment,
    _csel_layout,
    _csel_table,
    lower_flush,
)

__all__ = [
    "ScheduleCache",
    "CachedSchedule",
    "CompiledLayout",
    "structural_key",
]

#: ``(op class, gate name) -> spec has a matrix builder`` — whether the
#: op's parameters can be rebound through the gate registry.  Gate names
#: cannot be re-registered (:func:`repro.qmpi.ops.register_gate`), so
#: entries never go stale.
_PARAMETRIC_MEMO: dict = {}


def structural_key(ops, n_qubits):
    """Split a flush buffer into a structural key and a parameter payload.

    Returns ``(key, payload, ids, slices)`` — the hashable key, the flat
    tuple of continuous parameters in op order, the touched qubit ids in
    first-touch order (the canonicalization basis), and one payload
    ``(start, stop)`` slice per op (``None`` for non-parametric ops) —
    or ``None`` when the buffer cannot be safely cached (an op outside
    the Op protocol, or the same op *object* appearing twice, which
    would make the positional payload mapping ambiguous).

    Qubit ids are canonicalized by first touch, so two structurally
    identical circuits on different absolute ids (a recycled backend
    whose monotonic id counter drifted) produce the same key; the actual
    ids travel alongside for layout lookup and binding.  Explicit
    matrices hash by value: peephole fusion makes a ``UNITARY`` record's
    content parameter-dependent, so different fused values are —
    correctly — different schedules.  ``n_qubits`` is part of the key
    because it steers size-aware planning.
    """
    canon: dict[int, int] = {}
    tokens = []
    payload: list[float] = []
    slices: list[tuple[int, int] | None] = []
    seen_objs: set[int] = set()
    canon_of = canon.setdefault
    for op in ops:
        oid = id(op)
        if oid in seen_objs:
            return None
        seen_objs.add(oid)
        gate = getattr(op, "gate", None)
        qubits = getattr(op, "qubits", None)
        if gate is None or qubits is None:
            return None
        cq = tuple(canon_of(q, len(canon)) for q in qubits)
        params = getattr(op, "params", ())
        if params:
            # Rebindability is a property of the op's class and gate
            # name (does the spec carry a matrix builder?), memoized so
            # the hot path skips the spec lookup per op.
            ck = (op.__class__, gate)
            parametric = _PARAMETRIC_MEMO.get(ck)
            if parametric is None:
                spec = getattr(op, "spec", None)
                parametric = (
                    spec is not None
                    and getattr(spec, "builder", None) is not None
                )
                _PARAMETRIC_MEMO[ck] = parametric
            if parametric:
                start = len(payload)
                payload.extend(params)
                tokens.append(("p", gate, cq, len(params)))
                slices.append((start, len(payload)))
                continue
            u = getattr(op, "u", None)
            if u is None:
                # Parameters but no builder: they cannot be rebound
                # through the spec, so they hash by value.
                tokens.append(("cp", gate, cq, tuple(float(p) for p in params)))
                slices.append(None)
                continue
        else:
            u = getattr(op, "u", None)
            if u is None:
                tokens.append(("c", gate, cq))
                slices.append(None)
                continue
        m = np.ascontiguousarray(np.asarray(u, dtype=np.complex128))
        tokens.append(("u", cq, m.shape, m.tobytes()))
        slices.append(None)
    key = (tuple(tokens), int(n_qubits))
    return key, tuple(payload), tuple(canon), tuple(slices)


def _fresh_op(op, sl, idmap, payload):
    """A copy of ``op`` with remapped qubits / rebound parameters.

    Returns ``op`` itself when nothing changes — the common case on the
    cold path, where the template records are reused verbatim.
    """
    qubits = tuple(idmap[q] for q in op.qubits) if idmap is not None else op.qubits
    if sl is None:
        if qubits == op.qubits:
            return op
        return op.rebind(qubits=qubits)
    params = payload[sl[0] : sl[1]]
    if qubits == op.qubits and params == op.params:
        return op
    return op.rebind(qubits=qubits, params=params)


class CompiledLayout:
    """A cached schedule compiled against one concrete engine layout.

    Holds the segment list plus *binders*: per-segment descriptors of
    the value-dependent parts, built once by walking the compiled
    segments against the lowered records (the compiler maps records to
    segments one-to-one in program order, so the walk is positional).
    :meth:`bind` rebinds ids and parameters in place — replaying with
    the same payload and ids is a pure pointer return.
    """

    __slots__ = ("segments", "binders", "bound_ids", "bound_payload", "frozen")

    def __init__(self, segments, records, ids, payload, layout_key):
        self.segments = segments
        self.frozen = None  # engine replay program, built on first execute
        self.bound_ids = ids
        self.bound_payload = payload
        if layout_key[0] == "sharded":
            pos_of = dict(zip(ids, layout_key[1]))
            n_local = layout_key[2]
        else:
            pos_of = None
            n_local = None
        self.binders = self._build_binders(records, pos_of, n_local)

    def _build_binders(self, records, pos_of, n_local):
        """Walk segments against their source records, noting parametric
        sites and precomputing the structural layout (``rows_per_sig``)
        any ``"csel"`` rebuild will need."""
        binders = []
        it = iter(records)

        def csel_rows(qubits):
            bits = [pos_of[q] for q in qubits]
            return _csel_layout(bits, n_local)[1]

        for seg in self.segments:
            if isinstance(seg, KernelRun):
                sites = []
                for i, op in enumerate(seg.ops):
                    rec, sl = next(it)
                    if rec is not op:  # pragma: no cover - compiler invariant
                        raise RuntimeError("schedule cache record walk desync")
                    if sl is None:
                        continue
                    info = None
                    if seg.entries is not None and seg.entries[i][0] == "csel":
                        info = csel_rows(op.qubits)
                    sites.append((i, sl, info))
                if sites:
                    binders.append(("run", seg, tuple(sites)))
            elif isinstance(seg, DiagSegment):
                rec, sls = next(it)
                if any(s is not None for s in sls):
                    binders.append(("diag", seg, sls))
            elif isinstance(seg, PlanSegment):
                rec, sls = next(it)
                if any(s is not None for s in sls):
                    info = None
                    if seg.entry is not None and seg.entry[0] == "csel":
                        info = csel_rows(seg.plan.qubits)
                    recipe = freeze_window(seg.plan.sources, seg.plan.qubits)
                    binders.append(("plan", seg, sls, info, recipe))
            else:  # ExchangeSegment
                rec, sl = next(it)
                if sl is not None:
                    binders.append(("xchg", seg, sl))
        leftover = next(it, None)
        if leftover is not None:  # pragma: no cover - compiler invariant
            raise RuntimeError("schedule cache record walk desync")
        return tuple(binders)

    def bind(self, ids, payload):
        """Rebind the cached segments to ``ids``/``payload`` and return them.

        Three tiers, cheapest first: identical ids and payload return
        the segments verbatim; changed ids remap every id-referencing
        object (classified entries are positional, so they survive — the
        layout key guarantees equal positions); a changed payload
        rebuilds only the parametric parts through the same numeric
        routines the cold compiler uses.
        """
        if ids != self.bound_ids:
            self._remap(dict(zip(self.bound_ids, ids)))
            self.bound_ids = ids
        if payload != self.bound_payload:
            self._rebind(payload)
            self.bound_payload = payload
        return self.segments

    def _remap(self, idmap):
        """Point every id-referencing object at the new qubit ids.

        Values (matrices, phase tables, window products) are untouched:
        the layout key pins the *positions* of the touched qubits, so a
        remap never changes what any entry computes.
        """
        for seg in self.segments:
            if isinstance(seg, KernelRun):
                seg.ops = tuple(
                    op.rebind(qubits=tuple(idmap[q] for q in op.qubits))
                    for op in seg.ops
                )
            elif isinstance(seg, DiagSegment):
                b = seg.batch
                nb = DiagBatch(
                    {idmap[q]: t for q, t in b.phases1.items()},
                    {
                        (idmap[a], idmap[c]): t
                        for (a, c), t in b.phases2.items()
                    },
                    tuple(idmap[q] for q in b.qubits),
                )
                if b.sources is not None:
                    nb.sources = tuple(
                        op.rebind(qubits=tuple(idmap[q] for q in op.qubits))
                        for op in b.sources
                    )
                seg.batch = nb
            elif isinstance(seg, PlanSegment):
                p = seg.plan
                nplan = ContractionPlan(
                    p.u, tuple(idmap[q] for q in p.qubits), p.n_ops
                )
                if p.sources is not None:
                    nplan.sources = tuple(
                        op.rebind(qubits=tuple(idmap[q] for q in op.qubits))
                        for op in p.sources
                    )
                seg.plan = nplan
            else:  # ExchangeSegment
                seg.op = seg.op.rebind(
                    qubits=tuple(idmap[q] for q in seg.op.qubits)
                )

    def _rebind(self, payload):
        """Rebuild the value-dependent parts for a fresh parameter payload.

        Every rebuild routes through the same numeric code as a cold
        compile — ``target_matrix``/``matrix`` for kernel entries,
        :meth:`DiagBatch.from_ops` for phase tables,
        :meth:`ContractionPlan.from_ops` for window products,
        :func:`~repro.sim.schedule._csel_table` over the precomputed
        row layout for sub-block tables — so replayed amplitudes are
        bit-identical to an uncached run.
        """
        for binder in self.binders:
            kind, seg = binder[0], binder[1]
            if kind == "run":
                ops = list(seg.ops)
                entries = None if seg.entries is None else list(seg.entries)
                for i, sl, rows in binder[2]:
                    op = _fresh_op(ops[i], sl, None, payload)
                    ops[i] = op
                    if entries is None:
                        continue
                    e = entries[i]
                    ek = e[0]
                    if ek == "sq":
                        u = np.asarray(op.target_matrix(), dtype=np.complex128)
                        entries[i] = ("sq", u, e[2], e[3])
                    elif ek == "cc":
                        u = np.asarray(op.target_matrix(), dtype=np.complex128)
                        entries[i] = ("cc", u, e[2], e[3], e[4], e[5])
                    elif ek == "ct":
                        u = np.asarray(op.matrix(), dtype=np.complex128)
                        entries[i] = ("ct", u, e[2])
                    else:  # "csel"
                        u = np.asarray(op.matrix(), dtype=np.complex128)
                        entries[i] = ("csel", _csel_table(u, rows), e[2], e[3])
                seg.ops = tuple(ops)
                if entries is not None:
                    seg.entries = tuple(entries)
            elif kind == "diag":
                sources = seg.batch.sources
                fresh = tuple(
                    _fresh_op(op, sl, None, payload)
                    for op, sl in zip(sources, binder[2])
                )
                seg.batch = DiagBatch.from_ops(fresh)
            elif kind == "plan":
                sources = seg.plan.sources
                fresh = tuple(
                    _fresh_op(op, sl, None, payload)
                    for op, sl in zip(sources, binder[2])
                )
                # Same floats as ``ContractionPlan.from_ops`` — the
                # frozen recipe replays the identical operations with
                # the window structure precomputed.
                mats = [
                    np.asarray(op.matrix(), dtype=np.complex128)
                    for op in fresh
                ]
                nplan = ContractionPlan(
                    replay_window(binder[4], mats),
                    seg.plan.qubits,
                    len(fresh),
                )
                nplan.sources = fresh
                seg.plan = nplan
                entry, rows = seg.entry, binder[3]
                if entry is not None:
                    if entry[0] == "ct":
                        seg.entry = ("ct", nplan.u, entry[2])
                    else:  # "csel"
                        seg.entry = (
                            "csel",
                            _csel_table(nplan.u, rows),
                            entry[2],
                            entry[3],
                        )
            else:  # "xchg"
                seg.op = _fresh_op(seg.op, binder[2], None, payload)


class CachedSchedule:
    """One cache entry: the lowered template plus its per-layout compiles.

    ``lowered`` pairs each lowered record with its payload-slice
    annotation — one slice per plain op, a slice tuple per
    :class:`~repro.sim.diag.DiagBatch` /
    :class:`~repro.sim.plan.ContractionPlan` source — which is what lets
    a :class:`CompiledLayout` map parameters back into segments without
    re-running the lowering passes.
    """

    __slots__ = ("template_ids", "template_payload", "lowered", "layouts")

    def __init__(self, template_ids, template_payload, lowered):
        self.template_ids = template_ids
        self.template_payload = template_payload
        self.lowered = lowered
        self.layouts: OrderedDict = OrderedDict()

    @classmethod
    def build(cls, ops, slices, ids, payload, key):
        """Lower the template buffer and annotate payload provenance.

        Returns ``None`` when a lowered record cannot be traced back to
        its source ops (a record built outside the standard lowering
        passes) — the caller then bypasses the cache for this shape.
        """
        _, n_qubits = key
        lowered = lower_flush(ops, n_qubits)
        smap = {id(op): sl for op, sl in zip(ops, slices)}
        annotated = []
        for rec in lowered:
            if isinstance(rec, (DiagBatch, ContractionPlan)):
                if rec.sources is None or any(
                    id(s) not in smap for s in rec.sources
                ):
                    return None
                annotated.append(
                    (rec, tuple(smap[id(s)] for s in rec.sources))
                )
            else:
                if id(rec) not in smap:
                    return None
                annotated.append((rec, smap[id(rec)]))
        return cls(ids, payload, tuple(annotated))

    def materialize(self, ids, payload):
        """Lowered records bound to ``ids``/``payload``.

        Identical ids and payload reuse the template records verbatim
        (the cold-miss path compiles what it just lowered); otherwise
        every record is rebuilt through the same ``from_ops`` routines
        the lowering passes use.
        """
        if ids == self.template_ids and payload == self.template_payload:
            return self.lowered
        idmap = dict(zip(self.template_ids, ids))
        out = []
        for rec, sl in self.lowered:
            if isinstance(rec, (DiagBatch, ContractionPlan)):
                fresh = tuple(
                    _fresh_op(op, s, idmap, payload)
                    for op, s in zip(rec.sources, sl)
                )
                out.append((type(rec).from_ops(fresh), sl))
            else:
                out.append((_fresh_op(rec, sl, idmap, payload), sl))
        return tuple(out)


class ScheduleCache:
    """Bounded LRU cache of compiled execution schedules.

    One instance lives on each :class:`~repro.qmpi.backend.QuantumBackend`
    built with ``cache="on"`` (the default) and survives across
    ``qmpi_run`` calls on that prebuilt backend, so a parameter sweep
    driven through one backend compiles each flush shape once.  All
    calls happen under the backend lock, so binders may mutate cached
    segments in place.

    Counters: ``hits``/``misses`` count structural-key lookups,
    ``evictions`` counts entries dropped by the LRU bound, ``bypasses``
    counts flushes that could not be cached (non-Op records, ambiguous
    payload mapping) and ran through the caller's one-shot path instead.
    """

    def __init__(self, maxsize: int = 128, max_layouts: int = 8):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_layouts < 1:
            raise ValueError(f"max_layouts must be >= 1, got {max_layouts}")
        self.maxsize = int(maxsize)
        self.max_layouts = int(max_layouts)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """Counter snapshot (the ``cache_info`` surface for benches/tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def keys(self):
        """The cached structural keys, LRU order (oldest first)."""
        return list(self._entries)

    def execute(self, engine, ops, *, num_qubits: int) -> bool:
        """Execute a flush buffer through the cache.

        Key the buffer structurally; on a miss, lower once and remember
        the template; per engine layout, compile and freeze once and
        remember the program; then bind the payload and run it — a miss
        and a hit execute the same frozen program, the hit just skips
        building it.  Returns ``False`` without executing (counted in
        ``bypasses``) for anything the cache cannot key safely; the
        caller then runs its one-shot lower-then-``apply_ops`` path.
        """
        keyed = structural_key(ops, num_qubits)
        entry = None
        if keyed is not None:
            key, payload, ids, slices = keyed
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
            else:
                built = CachedSchedule.build(ops, slices, ids, payload, key)
                if built is not None:
                    self.misses += 1
                    entry = built
                    self._entries[key] = entry
                    if len(self._entries) > self.maxsize:
                        self._entries.popitem(last=False)
                        self.evictions += 1
        if entry is None:
            self.bypasses += 1
            return False
        lk = engine.layout_key(ids)
        layout = entry.layouts.get(lk)
        if layout is None:
            records = entry.materialize(ids, payload)
            segments = engine.compile_batch([rec for rec, _ in records])
            layout = CompiledLayout(segments, records, ids, payload, lk)
            entry.layouts[lk] = layout
            if len(entry.layouts) > self.max_layouts:
                entry.layouts.popitem(last=False)
        else:
            entry.layouts.move_to_end(lk)
        segments = layout.bind(ids, payload)
        # One frozen program per layout: the engine's per-op dispatch is
        # decided once at freeze time (see ``freeze_segments`` on the
        # engines; the sharded engine's program is one step list per
        # chunk, each step one ``KernelDispatch`` call).  The program
        # references the live segment objects, so in-place rebinds flow
        # through automatically — matrices are re-read at execute time,
        # not freeze time.
        if layout.frozen is None:
            layout.frozen = engine.freeze_segments(segments)
        engine.execute_frozen(layout.frozen)
        return True
