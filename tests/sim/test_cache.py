"""White-box tests of the schedule cache (:mod:`repro.sim.cache`).

Covers the structural-hash semantics (what hits, what misses), the
bounded-LRU mechanics and counter accuracy, payload rebinding on both
engines, recycled-id remapping, and the poisoning guard: a mutated
cached segment list is never replayed once the engine layout key
changes.
"""

import numpy as np
import pytest

from repro.qmpi.backend import SharedBackend, ShardedBackend
from repro.qmpi.ops import Op
from repro.qmpi.stream import OpStream
from repro.sim.cache import CachedSchedule, ScheduleCache, structural_key
from tests._lowering import fusion_of, lowering


@pytest.fixture
def planned():
    """Plan at every register size, so the planner runs in the cache."""
    with lowering("planned"):
        yield


def _sweep_ops(qs, theta):
    ops = [Op("ry", (q,), (theta + 0.1 * i,)) for i, q in enumerate(qs)]
    for a, b in zip(qs, qs[1:]):
        ops.append(Op("cnot", (a, b)))
        ops.append(Op("rz", (b,), (0.7 * theta,)))
    ops.append(Op("crz", (qs[0], qs[-1]), (0.3 * theta,)))
    return ops


def _flush(be, qs, theta):
    st = OpStream(be, 0, fusion="auto")
    for op in _sweep_ops(qs, theta):
        st.append(op)
    st.flush()


# ----------------------------------------------------------------------
# structural key semantics
# ----------------------------------------------------------------------
def test_same_shape_different_params_share_a_key():
    a = _sweep_ops((0, 1, 2), 0.4)
    b = _sweep_ops((0, 1, 2), 1.9)
    ka = structural_key(a, 3)
    kb = structural_key(b, 3)
    assert ka is not None and kb is not None
    assert ka[0] == kb[0]          # same structural key
    assert ka[1] != kb[1]          # different payload
    assert ka[3] == kb[3]          # same payload slices


def test_qubit_ids_canonicalized_by_first_touch():
    # Same circuit shape on shifted absolute ids: one key, two id tuples.
    a = _sweep_ops((0, 1, 2), 0.4)
    b = _sweep_ops((7, 8, 9), 0.4)
    ka = structural_key(a, 3)
    kb = structural_key(b, 3)
    assert ka[0] == kb[0]
    assert ka[2] == (0, 1, 2) and kb[2] == (7, 8, 9)


def test_different_qubit_pattern_misses():
    a = [Op("cnot", (0, 1)), Op("rz", (1,), (0.3,))]
    b = [Op("cnot", (1, 0)), Op("rz", (1,), (0.3,))]
    ka = structural_key(a, 2)
    kb = structural_key(b, 2)
    assert ka[0] != kb[0]


def test_key_covers_register_size():
    # The register size alone steers the lowering (plan_window).
    ops = _sweep_ops((0, 1, 2), 0.4)
    base = structural_key(ops, 3)[0]
    assert structural_key(ops, 3)[0] == base
    assert structural_key(ops, 4)[0] != base


def test_unitary_records_hash_by_value():
    u1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    u2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    ka = structural_key([Op("unitary", (0,), u=u1)], 1)
    kb = structural_key([Op("unitary", (0,), u=u2)], 1)
    assert ka[0] != kb[0]
    # Parametric gates, by contrast, hold params out of the key.
    assert ka[3] == (None,)


def test_duplicate_op_object_is_uncacheable():
    op = Op("rz", (0,), (0.3,))
    assert structural_key([op, op], 1) is None


# ----------------------------------------------------------------------
# cache mechanics: hits, misses, LRU, counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SharedBackend, ShardedBackend])
@pytest.mark.usefixtures("planned")
def test_sweep_hits_after_one_miss(cls):
    be = cls(seed=0)
    qs = tuple(be.alloc(0, 4))
    for theta in (0.3, 0.9, 1.7, 0.3):
        _flush(be, qs, theta)
    info = be.cache_info()
    assert info["misses"] == 1
    assert info["hits"] == 3
    assert info["bypasses"] == 0
    assert info["size"] == 1


@pytest.mark.usefixtures("planned")
def test_n_shards_changes_layout_not_entry():
    # Same circuit, different shard counts: the structural key is engine
    # agnostic, but each engine layout compiles its own segment list.
    results = []
    for n_shards in (2, 4):
        be = ShardedBackend(seed=0, n_shards=n_shards)
        qs = tuple(be.alloc(0, 4))
        _flush(be, qs, 0.4)
        (key,) = be.schedule_cache.keys()
        entry = be.schedule_cache._entries[key]
        results.append((key, next(iter(entry.layouts))))
    (k1, l1), (k2, l2) = results
    assert k1 == k2      # same structural key
    assert l1 != l2      # different engine layout key (chunk boundary)


def test_lru_eviction_order_and_counters():
    cache = ScheduleCache(maxsize=2)
    be = SharedBackend(seed=0)
    be.schedule_cache = cache
    qs = tuple(be.alloc(0, 3))

    def shape(n):  # n distinct structural shapes
        st = OpStream(be, 0, fusion="auto")
        for q in qs[:n]:
            st.append(Op("ry", (q,), (0.3,)))
        st.flush()

    shape(1)
    shape(2)
    k1, k2 = cache.keys()
    shape(3)  # evicts shape(1), the oldest
    assert cache.info()["evictions"] == 1
    assert k1 not in cache.keys() and k2 in cache.keys()
    shape(2)  # refreshes shape(2) to most-recent
    assert cache.keys()[-1] == k2
    shape(1)  # re-insert: now evicts shape(3), not the refreshed shape(2)
    assert k2 in cache.keys()
    assert cache.info() == {
        "hits": 1,
        "misses": 4,
        "evictions": 2,
        "bypasses": 0,
        "size": 2,
        "maxsize": 2,
    }


def test_uncacheable_buffers_bypass_and_still_execute():
    on, off = SharedBackend(seed=0), SharedBackend(seed=0, cache="off")
    q_on = tuple(on.alloc(0, 1))
    q_off = tuple(off.alloc(0, 1))
    op_on = Op("ry", (q_on[0],), (0.3,))
    op_off = Op("ry", (q_off[0],), (0.3,))
    # Duplicate op *objects* make the payload mapping ambiguous: the
    # flush bypasses the cache but still executes (one-shot path).
    on.apply_flush(0, (op_on, op_on))
    off.apply_flush(0, (op_off, op_off))
    info = on.cache_info()
    assert info["bypasses"] == 1
    assert info["misses"] == 0 and info["size"] == 0
    assert np.array_equal(on.statevector(), off.statevector())


@pytest.mark.usefixtures("planned")
def test_clear_drops_entries_keeps_counters():
    be = SharedBackend(seed=0)
    qs = tuple(be.alloc(0, 3))
    _flush(be, qs, 0.3)
    _flush(be, qs, 0.9)
    be.schedule_cache.clear()
    info = be.cache_info()
    assert info["size"] == 0 and info["hits"] == 1 and info["misses"] == 1
    _flush(be, qs, 0.3)
    assert be.cache_info()["misses"] == 2


@pytest.mark.usefixtures("planned")
def test_cache_off_disables_everything():
    be = SharedBackend(seed=0, cache="off")
    assert be.schedule_cache is None and be.cache_info() is None
    qs = tuple(be.alloc(0, 3))
    _flush(be, qs, 0.3)  # still executes correctly through the one-shot path
    with pytest.raises(ValueError):
        SharedBackend(seed=0, cache="sometimes")


# ----------------------------------------------------------------------
# rebinding correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SharedBackend, ShardedBackend])
@pytest.mark.usefixtures("planned")
def test_warm_replay_bit_identical(cls):
    thetas = (0.3, 1.1, 2.4, 0.3, 1.1)
    on, off = cls(seed=0), cls(seed=0, cache="off")
    for be in (on, off):
        qs = tuple(be.alloc(0, 5))
        for t in thetas:
            _flush(be, qs, t)
    assert np.array_equal(on.statevector(), off.statevector())
    assert on.cache_info()["hits"] == len(thetas) - 1


@pytest.mark.usefixtures("planned")
def test_drifted_ids_hit_and_remap():
    # Drifted absolute ids (the job-runner recycling pattern): the
    # canonical shape matches, so the entry hits and the compiled
    # layout remaps its ids rather than recompiling.
    a = SharedBackend(seed=0)
    qa = tuple(a.alloc(0, 3))
    _flush(a, qa, 0.8)
    # Second backend shares the cache; burning one id before the real
    # register drifts its ids to (1, 2, 3) at the same register size.
    b = SharedBackend(seed=0)
    b.schedule_cache = a.schedule_cache
    qb = tuple(b.alloc(0, 4))
    b.free(0, qb[0])
    _flush(b, qb[1:], 0.8)
    info = b.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    assert np.array_equal(a.statevector(), b.statevector())
    # A fresh payload on the drifted ids exercises rebind-after-remap.
    _flush(b, qb[1:], 2.1)
    ref = SharedBackend(seed=0, cache="off")
    rq = tuple(ref.alloc(0, 3))
    _flush(ref, rq, 0.8)
    _flush(ref, rq, 2.1)
    assert np.array_equal(b.statevector(), ref.statevector())


@pytest.mark.usefixtures("planned")
def test_id_drift_via_job_style_recycling():
    # One backend, cache on: run, tear down, re-run on fresh ids with
    # fresh angles; compare against an uncached twin doing the same.
    def episode(be, theta):
        qs = tuple(be.alloc(0, 3))
        st = OpStream(be, 0, fusion="auto")
        st.append(Op("ry", (qs[0],), (theta,)))
        st.append(Op("cnot", (qs[0], qs[1])))
        st.append(Op("rz", (qs[1],), (theta * 0.5,)))
        st.append(Op("cnot", (qs[1], qs[2])))
        st.flush()
        sv = be.statevector().copy()
        # Uncompute exactly so the qubits can be freed.
        st.append(Op("cnot", (qs[1], qs[2])))
        st.append(Op("rz", (qs[1],), (-theta * 0.5,)))
        st.append(Op("cnot", (qs[0], qs[1])))
        st.append(Op("ry", (qs[0],), (-theta,)))
        st.flush()
        be.free(0, list(qs))
        return sv

    on, off = SharedBackend(seed=0), SharedBackend(seed=0, cache="off")
    for theta in (0.4, 1.3, 0.4):
        a = episode(on, theta)
        b = episode(off, theta)
        assert np.array_equal(a, b)
    info = on.cache_info()
    # Forward and inverse stretches each hit once per repeat episode.
    assert info["hits"] >= 2
    assert on.raw().num_qubits == 0


@pytest.mark.parametrize("mode", ["planned", "noplan", "nodiag", "off"])
def test_lowering_modes_replay_bit_identical(mode):
    thetas = (0.5, 1.9, 0.5)
    with lowering(mode):
        on, off = ShardedBackend(seed=0), ShardedBackend(seed=0, cache="off")
        for be in (on, off):
            qs = tuple(be.alloc(0, 4))
            st = OpStream(be, 0, fusion=fusion_of(mode))
            for t in thetas:
                for op in _sweep_ops(qs, t):
                    st.append(op)
                st.flush()
    assert np.array_equal(on.statevector(), off.statevector())


@pytest.mark.usefixtures("planned")
def test_shots_mode_layout_separate_from_plain():
    be = SharedBackend(seed=0)
    qs = tuple(be.alloc(0, 2))
    _flush(be, qs, 0.3)
    (key,) = be.schedule_cache.keys()
    entry = be.schedule_cache._entries[key]
    n_layouts = len(entry.layouts)
    assert n_layouts == 1
    # A branch axis changes the layout key: same entry, new layout.
    be2 = SharedBackend(seed=0)
    be2.schedule_cache = be.schedule_cache
    be2.begin_shots(8)
    qs2 = tuple(be2.alloc(0, 2))
    _flush(be2, qs2, 0.3)
    assert len(entry.layouts) == 2


# ----------------------------------------------------------------------
# poisoning guard: stale layouts are never replayed
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("planned")
def test_poisoned_segments_not_replayed_after_layout_change():
    # Two sharded backends with different chunk boundaries share one
    # cache (same structural key, different engine layout key).  Poison
    # the first layout's segment list; the second backend must compile
    # fresh under its own layout key rather than replay the stale list.
    a = ShardedBackend(seed=0, n_shards=2)
    qa = tuple(a.alloc(0, 4))
    _flush(a, qa, 0.4)
    (key,) = a.schedule_cache.keys()
    entry = a.schedule_cache._entries[key]
    (lk_a,) = entry.layouts
    entry.layouts[lk_a].segments = [object()]  # poison
    b = ShardedBackend(seed=0, n_shards=4)
    b.schedule_cache = a.schedule_cache
    qb = tuple(b.alloc(0, 4))
    _flush(b, qb, 0.4)
    lk_b = b.raw().layout_key(qb)
    assert lk_b != lk_a
    assert set(entry.layouts) == {lk_a, lk_b}
    assert b.cache_info()["hits"] == 1  # entry hit, layout recompiled
    ref = ShardedBackend(seed=0, n_shards=4, cache="off")
    rq = tuple(ref.alloc(0, 4))
    _flush(ref, rq, 0.4)
    assert np.array_equal(b.statevector(), ref.statevector())


def test_layout_key_rejects_unknown_ids():
    be = SharedBackend(seed=0)
    qs = tuple(be.alloc(0, 2))
    with pytest.raises(Exception):
        be.raw().layout_key((qs[-1] + 17,))


def test_build_annotates_diag_provenance():
    # A coalesced DiagBatch carries per-source payload slices so replay
    # can rebuild its phase tables from fresh angles.
    ops = (Op("rz", (0,), (0.3,)), Op("rz", (1,), (0.7,)))
    k, payload, ids, slices = structural_key(
        ops, 2
    )
    built = CachedSchedule.build(ops, slices, ids, payload, k)
    assert built is not None
    from repro.sim.diag import DiagBatch

    (rec, sls), = built.lowered
    assert isinstance(rec, DiagBatch)
    assert sls == ((0, 1), (1, 2))


def test_build_refuses_records_without_provenance():
    # A record the lowering passes did not derive from the buffer (a
    # pre-built DiagBatch with no source annotation) cannot be payload
    # mapped; build returns None and execute falls back to one-shot.
    from repro.sim.diag import DiagBatch

    be = SharedBackend(seed=0)
    qs = tuple(be.alloc(0, 2))
    batch = DiagBatch.from_ops(
        [Op("rz", (qs[0],), (0.3,)), Op("rz", (qs[1],), (0.7,))]
    )
    batch.sources = None
    be.apply_flush(0, (batch,))
    info = be.cache_info()
    assert info["bypasses"] == 1 and info["size"] == 0
    ref = SharedBackend(seed=0, cache="off")
    rq = tuple(ref.alloc(0, 2))
    ref.apply_flush(0, (Op("rz", (rq[0],), (0.3,)), Op("rz", (rq[1],), (0.7,))))
    assert np.array_equal(be.statevector(), ref.statevector())


# ----------------------------------------------------------------------
# uncommon structural-key arms and the exchange-segment binder
# ----------------------------------------------------------------------
class _BareOp:
    """Op-like record with parameters but no spec builder (optionally an
    explicit matrix): the by-value hashing arms of ``structural_key``."""

    def __init__(self, gate, qubits, params=(), u=None):
        self.gate = gate
        self.qubits = qubits
        self.params = params
        self.u = u
        self.spec = None


def test_non_op_records_are_uncacheable():
    assert structural_key([object()], 1) is None


def test_params_without_builder_hash_by_value():
    # No builder means the parameters cannot be rebound through the gate
    # registry, so they must live *in* the key, not in the payload.
    ka = structural_key(
        [_BareOp("mystery", (0,), (0.3,))], 1
    )
    kb = structural_key(
        [_BareOp("mystery", (0,), (0.9,))], 1
    )
    assert ka[0] != kb[0]
    assert ka[1] == () and ka[3] == (None,)  # nothing rebindable


def test_params_with_explicit_matrix_hash_by_matrix():
    # When an explicit matrix is present it *is* the executed value, so
    # the key covers the matrix bytes and ignores the parameters.
    u = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    ka = structural_key(
        [_BareOp("blob", (0,), (0.3,), u=u)], 1
    )
    kb = structural_key(
        [_BareOp("blob", (0,), (0.9,), u=u)], 1
    )
    assert ka[0] == kb[0]
    assert ka[1] == () and ka[3] == (None,)


def test_exchange_segment_remap_and_rebind():
    # A non-diagonal single-qubit gate on the shard-axis qubit compiles
    # to an ExchangeSegment.  Job-style register recycling drifts the
    # ids (remap arm) and fresh angles rebuild the op (``"xchg"`` rebind
    # arm); both replays must stay bit-identical to an uncached twin.
    def episode(be, theta):
        qs = tuple(be.alloc(0, 4))
        st = OpStream(be, 0, fusion="auto")
        # ``qs[0]`` sits on the shard axis (the engine lays positions
        # out high-to-low), so the non-diagonal ry compiles to an
        # ExchangeSegment.
        st.append(Op("ry", (qs[0],), (theta,)))
        st.append(Op("cnot", (qs[0], qs[1])))
        st.append(Op("rx", (qs[-1],), (1.3 * theta,)))
        st.flush()
        sv = be.statevector().copy()
        # Uncompute exactly so the register can be freed and recycled.
        st.append(Op("rx", (qs[-1],), (-1.3 * theta,)))
        st.append(Op("cnot", (qs[0], qs[1])))
        st.append(Op("ry", (qs[0],), (-theta,)))
        st.flush()
        be.free(0, list(qs))
        return sv

    on = ShardedBackend(seed=0, n_shards=2)
    svs = [episode(on, t) for t in (0.4, 1.7, 0.4)]
    cache = on.schedule_cache
    assert any(
        b[0] == "xchg"
        for key in cache.keys()
        for layout in cache._entries[key].layouts.values()
        for b in layout.binders
    )
    # Episodes 2 and 3 hit both the forward and the inverse shape.
    assert on.cache_info()["hits"] >= 4
    assert on.raw().num_qubits == 0
    off = ShardedBackend(seed=0, n_shards=2, cache="off")
    for sv, t in zip(svs, (0.4, 1.7, 0.4)):
        assert np.array_equal(sv, episode(off, t))


@pytest.mark.usefixtures("planned")
def test_plan_csel_window_remap_and_rebind():
    # A parametric plan window whose select bit sits on the shard axis
    # classifies as "csel": replaying with fresh angles rebuilds the
    # sub-block table through the precomputed row layout, and drifted
    # ids remap the plan's qubits.
    def run(be, qs, theta):
        st = OpStream(be, 0, fusion="auto")
        st.append(Op("ry", (qs[2],), (theta,)))
        st.append(Op("cnot", (qs[0], qs[2])))  # control on the shard axis
        st.flush()

    on = ShardedBackend(seed=0, n_shards=2)
    qa = tuple(on.alloc(0, 4))
    run(on, qa, 0.4)
    cache = on.schedule_cache
    (key,) = cache.keys()
    (layout,) = cache._entries[key].layouts.values()
    plan_binders = [b for b in layout.binders if b[0] == "plan"]
    assert plan_binders and plan_binders[0][1].entry[0] == "csel"
    run(on, qa, 1.7)  # fresh payload -> csel table rebuild
    # Drifted ids on a shared cache exercise the plan remap arm.
    b = ShardedBackend(seed=0, n_shards=2)
    b.schedule_cache = cache
    qb = tuple(b.alloc(0, 5))
    b.free(0, qb[0])
    run(b, qb[1:], 0.4)
    run(b, qb[1:], 1.7)
    off = ShardedBackend(seed=0, n_shards=2, cache="off")
    qo = tuple(off.alloc(0, 4))
    run(off, qo, 0.4)
    run(off, qo, 1.7)
    assert np.array_equal(on.statevector(), off.statevector())
    assert np.array_equal(b.statevector(), off.statevector())


@pytest.mark.usefixtures("planned")
def test_materialize_rebuilds_on_drifted_ids_new_layout():
    # Entry hit + layout miss + drifted ids: the template records are
    # rebuilt through ``materialize`` with an id map before compiling
    # the new layout (here the shots branch axis changes the layout key
    # while the burned id drifts the register).
    a = SharedBackend(seed=0)
    qa = tuple(a.alloc(0, 3))
    _flush(a, qa, 0.4)
    b = SharedBackend(seed=0)
    b.schedule_cache = a.schedule_cache
    b.begin_shots(4)
    qb = tuple(b.alloc(0, 4))
    b.free(0, qb[0])
    _flush(b, qb[1:], 0.4)
    assert b.cache_info()["hits"] == 1
    (key,) = b.schedule_cache.keys()
    assert len(b.schedule_cache._entries[key].layouts) == 2
    ref = SharedBackend(seed=0, cache="off")
    ref.begin_shots(4)
    rq = tuple(ref.alloc(0, 4))
    ref.free(0, rq[0])
    _flush(ref, rq[1:], 0.4)
    assert np.array_equal(b.statevector(), ref.statevector())


def test_partial_payload_rebind_reuses_unchanged_ops():
    # Changing one angle of a two-angle payload rebinds only the changed
    # op; the untouched one is reused verbatim and the replay stays
    # bit-identical.
    on, off = SharedBackend(seed=0), SharedBackend(seed=0, cache="off")
    q_on, q_off = tuple(on.alloc(0, 2)), tuple(off.alloc(0, 2))
    for angles in ((0.3, 0.7), (0.3, 0.9)):
        on.apply_flush(0, tuple(
            Op("rz", (q,), (t,)) for q, t in zip(q_on, angles)
        ))
        off.apply_flush(0, tuple(
            Op("rz", (q,), (t,)) for q, t in zip(q_off, angles)
        ))
    assert on.cache_info()["hits"] == 1
    assert np.array_equal(on.statevector(), off.statevector())


@pytest.mark.usefixtures("planned")
def test_cache_ctor_validation_and_len():
    with pytest.raises(ValueError):
        ScheduleCache(maxsize=0)
    with pytest.raises(ValueError):
        ScheduleCache(maxsize=8, max_layouts=0)
    cache = ScheduleCache()
    assert len(cache) == 0
    be = SharedBackend(seed=0)
    be.schedule_cache = cache
    qs = tuple(be.alloc(0, 2))
    _flush(be, qs, 0.3)
    assert len(cache) == 1


@pytest.mark.usefixtures("planned")
def test_max_layouts_eviction():
    # The per-entry layout table is itself LRU-bounded: a third chunk
    # boundary evicts the oldest compiled layout, which recompiles
    # (correctly) on its next use.
    cache = ScheduleCache(max_layouts=1)
    backends = []
    for n_shards in (2, 4):
        be = ShardedBackend(seed=0, n_shards=n_shards)
        be.schedule_cache = cache
        qs = tuple(be.alloc(0, 4))
        _flush(be, qs, 0.4)
        backends.append((be, qs))
    (key,) = cache.keys()
    assert len(cache._entries[key].layouts) == 1
    # The first backend's layout was evicted; its next flush recompiles.
    be, qs = backends[0]
    _flush(be, qs, 1.7)
    ref = ShardedBackend(seed=0, n_shards=2, cache="off")
    rq = tuple(ref.alloc(0, 4))
    _flush(ref, rq, 0.4)
    _flush(ref, rq, 1.7)
    assert np.array_equal(be.statevector(), ref.statevector())


def test_minimal_engine_is_frozen_once_per_layout_and_replayed():
    # The cache needs exactly layout_key/compile_batch/freeze_segments/
    # execute_frozen from an engine: one freeze per layout on the miss,
    # the same program replayed on the hit, a fresh freeze when the
    # layout key changes.
    class _MiniEngine:
        def __init__(self):
            self.layout = "a"
            self.frozen = []
            self.executed = []

        def layout_key(self, ids):
            return ("mini", self.layout, tuple(ids))

        def compile_batch(self, lowered):
            return list(lowered)

        def freeze_segments(self, segments):
            program = ("program", len(self.frozen), tuple(segments))
            self.frozen.append(program)
            return program

        def execute_frozen(self, program):
            self.executed.append(program)

    cache = ScheduleCache()
    eng = _MiniEngine()
    for _ in range(2):
        assert cache.execute(eng, (Op("rz", (0,), (0.3,)),), num_qubits=1)
    assert len(eng.frozen) == 1
    assert eng.executed == [eng.frozen[0]] * 2
    assert cache.info()["hits"] == 1 and cache.info()["misses"] == 1
    eng.layout = "b"
    assert cache.execute(eng, (Op("rz", (0,), (0.3,)),), num_qubits=1)
    assert len(eng.frozen) == 2 and eng.executed[-1] is eng.frozen[1]
    assert cache.info()["hits"] == 2 and len(cache) == 1


def test_parametric_generic_run_entries_rebind():
    # Multi-qubit parametric gates route through the generic
    # classify_matrix path: fully local -> a "ct" kernel entry,
    # block-diagonal on the shard axis -> a "csel" sub-block table.
    # Both entry kinds must rebuild on a fresh payload.
    from repro.qmpi.ops import GATESET, GateDef, register_gate

    if "t_rxx" not in GATESET:
        def _rxx(theta):
            c, s = np.cos(theta / 2), -1j * np.sin(theta / 2)
            x = np.array([[0, 1], [1, 0]])
            return c * np.eye(4) + s * np.kron(x, x)

        def _crxb(theta):
            # Controlled-rx written as a plain two-qubit gate: block
            # diagonal in its first (select) qubit for every angle.
            c, s = np.cos(theta / 2), -1j * np.sin(theta / 2)
            u = np.eye(4, dtype=np.complex128)
            u[2:, 2:] = [[c, s], [s, c]]
            return u

        register_gate(GateDef("t_rxx", ("a", "b"), ("theta",), builder=_rxx))
        register_gate(GateDef("t_crxb", ("a", "b"), ("theta",), builder=_crxb))

    def run(be, qs, theta):
        st = OpStream(be, 0, fusion="auto")
        st.append(Op("t_rxx", (qs[1], qs[2]), (theta,)))      # local pair
        st.append(Op("t_crxb", (qs[0], qs[1]), (theta * 0.6,)))  # select on shard axis
        st.flush()

    on = ShardedBackend(seed=0, n_shards=2)
    qs = tuple(on.alloc(0, 3))
    run(on, qs, 0.4)
    (key,) = on.schedule_cache.keys()
    (layout,) = on.schedule_cache._entries[key].layouts.values()
    kinds = [
        e[0]
        for b in layout.binders
        if b[0] == "run"
        for e in b[1].entries
    ]
    assert "ct" in kinds and "csel" in kinds
    run(on, qs, 1.7)
    off = ShardedBackend(seed=0, n_shards=2, cache="off")
    qo = tuple(off.alloc(0, 3))
    run(off, qo, 0.4)
    run(off, qo, 1.7)
    assert np.array_equal(on.statevector(), off.statevector())
