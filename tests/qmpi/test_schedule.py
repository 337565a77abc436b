"""The execution-schedule IR: compiler, planning thresholds, stretches.

Five layers:

1. ``FUSION_MODES`` validation (``"auto"`` / ``"off"`` only; old
   spellings and booleans raise) and the re-export from ``repro.qmpi``;
2. white-box compiler tests: segment typing and communication classes,
   order preservation (every input record lands in exactly one segment,
   in program order), controlled gates joining kernel runs;
3. size-aware planning: no ``PlanSegment`` below ``PLAN_MIN_QUBITS``,
   four-qubit windows at/above ``WIDE_WINDOW_MIN_QUBITS``;
4. communication-free stretches: one frozen stretch per barrier-free
   span, a mixing segment splits it, and every stretch shape (runs,
   diagonal batches, shard-axis controls, planned windows) matches the
   dense reference on 1-8 chunks;
5. the property suite: per-qubit program order is preserved across
   every lowering mode x 1/2/4 ranks (amplitude-exact against the
   eager shared reference).
"""

import numpy as np
import pytest

from repro.qmpi import (
    FUSION_MODES,
    ContractionPlan,
    DiagBatch,
    Op,
    OpStream,
    SharedBackend,
    qmpi_run,
)
from repro.sim import (
    DiagSegment,
    ExchangeSegment,
    KernelRun,
    PlanSegment,
    ShardedStateVector,
    StateVector,
    coalesce_diagonals,
    compile_segments,
    lower_flush,
    plan_contractions,
    schedule,
)
from repro.sim.schedule import BLOCKDIAG, LOCAL, MIXING, classify_matrix, plan_window
from tests._lowering import MODES, compiled_records, fusion_of, lowering
from tests._precision import DEEP_ATOL


# ----------------------------------------------------------------------
# fusion-mode validation
# ----------------------------------------------------------------------
def test_fusion_modes_exported_and_validated():
    assert FUSION_MODES == ("auto", "off")
    be = SharedBackend(seed=0)
    assert OpStream(be, 0, fusion="auto").fusion
    assert not OpStream(be, 0, fusion="off").fusion
    for bogus in ("no_plan", "nodiagg", "AUTO", "", None, 2):
        with pytest.raises(ValueError):
            OpStream(be, 0, fusion=bogus)


def test_fusion_booleans_and_old_spellings_raise():
    be = SharedBackend(seed=0)
    for old in (True, False, "on", "noplan", "nodiag"):
        with pytest.raises(ValueError, match="fusion must be one of"):
            OpStream(be, 0, fusion=old)


# ----------------------------------------------------------------------
# compiler white-box: segment typing, comm classes, order
# ----------------------------------------------------------------------
def _flatten(segs):
    out = []
    for seg in segs:
        if isinstance(seg, KernelRun):
            out.extend(seg.ops)
        elif isinstance(seg, DiagSegment):
            out.append(seg.batch)
        elif isinstance(seg, PlanSegment):
            out.append(seg.plan)
        else:
            out.append(seg.op)
    return out


def test_layoutless_compile_is_all_local():
    batch = DiagBatch.from_ops([Op("t", (0,)), Op("cz", (0, 1))])
    plan = ContractionPlan.from_ops([Op("cnot", (0, 1)), Op("h", (1,))])
    ops = [Op("h", (0,)), Op("cnot", (0, 1)), batch, plan, Op("x", (1,))]
    segs = compile_segments(ops)
    assert [type(s) for s in segs] == [
        KernelRun, DiagSegment, PlanSegment, KernelRun,
    ]
    assert all(s.comm == LOCAL for s in segs)
    assert segs[0].entries is None  # no layout, no kernel entries
    assert _flatten(segs) == ops


def test_sharded_compile_classifies_once():
    # 4 qubits on 4 shards: bits 3,2 are shard axes (qubits 0,1).
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    sv.layout_key(range(4))  # merge the pending qubits, qubit 0 on top
    batch = DiagBatch.from_ops([Op("t", (0,)), Op("cz", (0, 1))])
    plan_local = plan_contractions(
        [Op("cnot", (2, 3)), Op("ry", (3,), (0.8,))]
    )[0]
    plan_blockdiag = plan_contractions(
        [Op("cnot", (0, 2)), Op("ry", (2,), (0.5,)), Op("cnot", (0, 2))]
    )[0]
    plan_mixing = plan_contractions(
        [Op("cnot", (2, 0)), Op("h", (0,)), Op("cnot", (2, 0))]
    )[0]
    ops = [
        Op("h", (2,)),          # local single-qubit kernel
        Op("rz", (0,), (0.3,)),  # diagonal on a shard axis: blockdiag
        Op("cnot", (0, 3)),     # shard-axis control, local target: blockdiag
        batch,                  # touches shard axes: blockdiag
        plan_local,
        plan_blockdiag,
        Op("h", (0,)),          # non-diagonal on a shard axis: mixing
        plan_mixing,
    ]
    segs = compile_segments(ops, bit=sv._bit, n_local=sv.n_local)
    assert [type(s) for s in segs] == [
        KernelRun, DiagSegment, PlanSegment, PlanSegment,
        ExchangeSegment, PlanSegment,
    ]
    run = segs[0]
    assert run.comm == BLOCKDIAG  # upgraded by the rz/cnot entries
    assert [e[0] for e in run.entries] == ["sq", "sq", "cc"]
    assert segs[1].comm == BLOCKDIAG
    assert segs[2].comm == LOCAL and segs[2].entry[0] == "ct"
    assert segs[3].comm == BLOCKDIAG and segs[3].entry[0] == "csel"
    assert segs[4].comm == MIXING
    assert segs[5].comm == MIXING and segs[5].entry is None
    assert _flatten(segs) == ops


def test_classify_matrix_matches_plan_classes():
    # Diagonal product over two shard axes: per-chunk scalars.
    plan = ContractionPlan.from_ops(
        [Op("cz", (0, 1)), Op("t", (0,)), Op("s", (1,))]
    )
    entry = classify_matrix(plan.u, [3, 2], 2)
    assert entry[0] == "csel" and entry[3] == ()  # no local window qubits
    # A swap across the chunk boundary genuinely mixes.
    assert classify_matrix(np.asarray(Op("swap", (0, 1)).matrix()), [2, 1], 2) is None


def test_compile_preserves_per_qubit_order():
    rng = np.random.default_rng(7)
    gates = ["h", "x", "t", "s", "z"]
    ops = []
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            ops.append(Op(str(rng.choice(gates)), (int(rng.integers(4)),)))
        elif roll < 0.8:
            a, b = rng.choice(4, size=2, replace=False)
            ops.append(Op("cnot", (int(a), int(b))))
        else:
            a, b = rng.choice(4, size=2, replace=False)
            ops.append(Op("crz", (int(a), int(b)), (float(rng.random()),)))
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    sv.layout_key(range(4))  # merge the pending qubits, qubit 0 on top
    for layout in ({}, {"bit": sv._bit, "n_local": sv.n_local}):
        flat = _flatten(compile_segments(ops, **layout))
        # Every record lands in exactly one segment, in program order.
        assert flat == ops


# ----------------------------------------------------------------------
# size-aware planning
# ----------------------------------------------------------------------
def test_plan_window_thresholds(monkeypatch):
    assert (schedule.PLAN_MIN_QUBITS, schedule.WIDE_WINDOW_MIN_QUBITS) == (16, 18)
    assert [plan_window(n) for n in (12, 15, 16, 17, 18, 24)] == [0, 0, 3, 3, 4, 4]
    # The constants are read at call time: a patched module plans at once.
    monkeypatch.setattr(schedule, "PLAN_MIN_QUBITS", 0)
    assert plan_window(2) == 3


def _dense_ladder(qubits):
    ops = []
    for i in range(len(qubits) - 1):
        ops.append(Op("cnot", (qubits[i], qubits[i + 1])))
        ops.append(Op("ry", (qubits[i + 1],), (0.3 + 0.1 * i,)))
        ops.append(Op("cnot", (qubits[i], qubits[i + 1])))
    return ops


def _flush_ladder(be):
    qs = tuple(be.alloc(0, 6))
    stream = OpStream(be, 0, fusion="auto")
    for op in _dense_ladder(qs):
        stream.append(op)
    stream.flush()


def test_no_plan_segment_below_threshold():
    # By default a 6-qubit register never plans, so a dense ladder
    # flushes as plain ops — no ContractionPlan anywhere in the batch.
    be = SharedBackend(seed=0)
    seen = compiled_records(be)
    _flush_ladder(be)
    assert seen and not any(isinstance(o, ContractionPlan) for o in seen)
    # The same circuit with the threshold lowered does plan.
    with lowering("planned"):
        be2 = SharedBackend(seed=0)
        seen2 = compiled_records(be2)
        _flush_ladder(be2)
    assert any(isinstance(o, ContractionPlan) for o in seen2)


def test_wide_windows_above_threshold(monkeypatch):
    # From WIDE_WINDOW_MIN_QUBITS the planner may grow 4-qubit windows
    # (one 16x16 contraction); below it the classic 3-qubit bound holds.
    ops = _dense_ladder((0, 1, 2, 3))
    monkeypatch.setattr(schedule, "PLAN_MIN_QUBITS", 0)
    monkeypatch.setattr(schedule, "WIDE_WINDOW_MIN_QUBITS", 6)
    wide = lower_flush(ops, 6)
    plans = [o for o in wide if isinstance(o, ContractionPlan)]
    assert max(len(p.qubits) for p in plans) == 4
    monkeypatch.setattr(schedule, "WIDE_WINDOW_MIN_QUBITS", 7)
    narrow = lower_flush(ops, 6)
    assert max(
        len(p.qubits) for p in narrow if isinstance(p, ContractionPlan)
    ) <= 3
    # Wide windows are exact: the fused product equals sequential apply.
    ref = StateVector(4, seed=0)
    got = StateVector(4, seed=0)
    for q in range(4):
        ref.h(q), got.h(q)
    ref.apply_ops(ops)
    got.apply_ops(wide)
    np.testing.assert_allclose(ref.statevector(), got.statevector(), atol=DEEP_ATOL)


def test_wide_windows_match_on_sharded_engine():
    ops = _dense_ladder((0, 1, 2, 3)) + [Op("crz", (0, 3), (0.7,))]
    wide = plan_contractions(coalesce_diagonals(ops), max_window=4, merge_window=3)
    assert max(len(p.qubits) for p in wide if isinstance(p, ContractionPlan)) == 4
    ref = ShardedStateVector(4, seed=0, n_shards=4)
    got = ShardedStateVector(4, seed=0, n_shards=4)
    for q in range(4):
        ref.h(q), got.h(q)
    ref.apply_ops(ops)
    got.apply_ops(wide)
    np.testing.assert_allclose(ref.statevector(), got.statevector(), atol=DEEP_ATOL)


# ----------------------------------------------------------------------
# communication-free stretches on the sharded engine
# ----------------------------------------------------------------------
def _stretch_ops():
    """One communication-free stretch on 4 chunks: runs + a diagonal
    batch + runs."""
    return (
        [Op("rx", (2,), (0.4,)), Op("ry", (3,), (0.8,))]
        + coalesce_diagonals(
            [Op("t", (0,)), Op("cz", (0, 1)), Op("rz", (2,), (0.3,))]
        )
        + [Op("cnot", (0, 2)), Op("h", (3,))]
    )


def _mixing_ops():
    return (
        [Op("rx", (2,), (0.4,))]
        + [Op("h", (1,))]  # non-diagonal on a shard axis: mixing barrier
        + [Op("ry", (3,), (0.2,))]
    )


def _frozen_kinds(sv, ops):
    sv.layout_key(range(4))  # merge the pending qubits, qubit 0 on top
    return [step[0] for step in sv.freeze_segments(sv.compile_batch(ops))]


def _spread_pair(n_shards):
    ref = StateVector(4, seed=0)
    sv = ShardedStateVector(4, seed=0, n_shards=n_shards)
    spread = [Op("h", (q,)) for q in range(4)]
    ref.apply_ops(spread)
    sv.apply_ops(spread)
    return ref, sv


def test_communication_free_ops_freeze_into_one_stretch():
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    assert _frozen_kinds(sv, _stretch_ops()) == ["stretch"]
    (step,) = sv.freeze_segments(sv.compile_batch(_stretch_ops()))
    # runs, then the diagonal batch, then runs: three folds, one pass
    assert [kind for kind, _ in step[1]] == ["run", "diag", "run"]


def test_mixing_segment_splits_stretches():
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    assert _frozen_kinds(sv, _mixing_ops()) == ["stretch", "barrier", "stretch"]


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_stretch_matches_dense_reference(n_shards):
    ref, sv = _spread_pair(n_shards)
    ref.apply_ops(_stretch_ops())
    sv.apply_ops(_stretch_ops())
    np.testing.assert_allclose(ref.statevector(), sv.statevector(), atol=DEEP_ATOL)


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_mixing_barrier_matches_dense_reference(n_shards):
    ref, sv = _spread_pair(n_shards)
    ref.apply_ops(_mixing_ops() + _stretch_ops())
    sv.apply_ops(_mixing_ops() + _stretch_ops())
    np.testing.assert_allclose(ref.statevector(), sv.statevector(), atol=DEEP_ATOL)


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_controlled_gates_on_shard_axes_match_dense_reference(n_shards):
    # Shard-axis controls with local targets are "cc" kernel entries:
    # they stay inside the stretch instead of forcing an exchange.
    ref, sv = _spread_pair(n_shards)
    ops = [
        Op("cnot", (0, 2)),            # shard control, local target
        Op("cnot", (2, 3)),            # both local
        Op("toffoli", (0, 1, 3)),      # two shard controls, local target
        Op("crz", (0, 1), (0.4,)),     # diagonal, both on shard axes
    ]
    if n_shards == 4:
        assert _frozen_kinds(sv, ops) == ["stretch"]
    ref.apply_ops(ops)
    sv.apply_ops(ops)
    np.testing.assert_allclose(ref.statevector(), sv.statevector(), atol=DEEP_ATOL)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_planned_windows_match_dense_reference(n_shards):
    ref, sv = _spread_pair(n_shards)
    with lowering("planned"):
        lowered = lower_flush(_dense_ladder((2, 3)) + _dense_ladder((0, 1)), 6)
    assert any(isinstance(o, ContractionPlan) for o in lowered)
    ref.apply_ops(lowered)
    sv.apply_ops(lowered)
    np.testing.assert_allclose(ref.statevector(), sv.statevector(), atol=DEEP_ATOL)


# ----------------------------------------------------------------------
# property suite: order preservation across modes x ranks
# ----------------------------------------------------------------------
def _random_program(qc, seed):
    q = None
    for r in range(qc.size):
        if qc.rank == r:
            q = qc.alloc_qmem(3)
        qc.barrier()
    rng = np.random.default_rng(seed + qc.rank)
    for q_i in q:
        qc.h(q_i)
    for _ in range(40):
        roll = rng.random()
        a, b = (int(x) for x in rng.choice(3, size=2, replace=False))
        if roll < 0.2:
            qc.cnot(q[a], q[b])
        elif roll < 0.35:
            qc.swap(q[a], q[b])
        elif roll < 0.5:
            qc.crz(q[a], q[b], float(rng.random()))
        elif roll < 0.6:
            qc.cphase(q[a], q[b], float(rng.random()))
        elif roll < 0.7:
            qc.rz(q[a], float(rng.random()))
        elif roll < 0.8:
            qc.ry(q[a], float(rng.random()))
        elif roll < 0.9:
            qc.t(q[a])
        else:
            qc.toffoli(q[a], q[b], q[3 - a - b])
    qc.barrier()
    return list(q)


def _assert_same_up_to_phase(vec_a, vec_b, atol=DEEP_ATOL):
    pivot = int(np.argmax(np.abs(vec_a)))
    phase = vec_b[pivot] / vec_a[pivot]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(vec_a * phase, vec_b, atol=atol)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
@pytest.mark.parametrize("seed", [11, 29])
def test_schedule_preserves_program_order_all_modes(n_ranks, seed):
    # Per-qubit program order is an amplitude-observable property: if
    # the compiled schedule reordered any two non-commuting ops on a
    # shared qubit, some amplitude would differ from the eager shared
    # reference. Runs every lowering mode x shared/sharded x rank count.
    worlds = {}
    for bk in ("shared", "sharded"):
        for mode in MODES:
            with lowering(mode):
                worlds[(bk, mode)] = qmpi_run(
                    n_ranks, _random_program, args=(seed,), seed=5,
                    backend=bk, fusion=fusion_of(mode),
                )
    ref_world = worlds[("shared", "off")]
    order = [q for block in ref_world.results for q in block]
    ref = ref_world.backend.statevector(order)
    for w in worlds.values():
        _assert_same_up_to_phase(ref, w.backend.statevector(order))
