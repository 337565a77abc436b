"""Contraction plans: planner windows, engine routing, equivalence.

Four layers:

1. unit tests of ``plan_contractions`` window maintenance (break on a
   fourth distinct qubit, disjoint-window interleaving, bridging
   merges, barriers) and ``ContractionPlan.from_ops`` (the fused
   unitary equals the in-order product);
2. stream-level tests proving flushes emit ``ContractionPlan`` records
   under the ``"planned"`` lowering and never under ``"noplan"`` /
   ``"nodiag"`` or ``fusion="off"``;
3. sharded white-box tests of the per-plan shard-bit classification
   (all-local, block-diagonal high axes = communication-free,
   genuinely mixing high axes = one exchange for the whole plan);
4. flush-boundary programs (measure / EPR / p2p mid-plan) and
   amplitude-exact equivalence of two-qubit-dense programs across
   shared/sharded x planned/noplan/off x 1/2/4 ranks.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.qmpi import (
    ContractionPlan,
    DiagBatch,
    LocalityError,
    Op,
    OpStream,
    SharedBackend,
    ShardedBackend,
    qmpi_run,
)
from repro.sim import ShardedStateVector, StateVector, plan_contractions
from tests import _dense_oracle
from tests._lowering import compiled_records, fusion_of, lowering
from tests._precision import DEEP_ATOL, STATE_ATOL


# ----------------------------------------------------------------------
# planner unit tests
# ----------------------------------------------------------------------
def test_window_breaks_on_fourth_distinct_qubit():
    ops = [
        Op("cnot", (0, 1)),
        Op("cnot", (1, 2)),
        Op("swap", (0, 2)),
        Op("cnot", (2, 3)),  # fourth distinct qubit: closes the window
    ]
    out = plan_contractions(ops)
    assert len(out) == 2
    assert isinstance(out[0], ContractionPlan)
    assert out[0].qubits == (0, 1, 2)
    assert out[0].n_ops == 3
    # The overflowing op opened a fresh window; alone it passes through.
    assert isinstance(out[1], Op)
    assert out[1].gate == "cnot"


def test_sparse_windows_pass_through_per_op():
    # Two ops over three qubits: the dense 8x8 contraction cannot
    # amortize, so the run keeps its per-op specialized paths.
    ops = [Op("cnot", (1, 0)), Op("cnot", (2, 0))]
    assert plan_contractions(ops) == ops


def test_singletons_pass_through_untouched():
    ops = [Op("h", (0,)), Op("toffoli", (0, 1, 2)), Op("cnot", (3, 4))]
    out = plan_contractions(ops)
    assert out == ops


def test_disjoint_windows_fuse_interleaved_clusters():
    # A brickwork-style interleave: ops on (0,1) and (2,3) alternate but
    # each cluster fuses into its own plan.
    ops = [
        Op("cnot", (0, 1)),
        Op("cnot", (2, 3)),
        Op("crz", (0, 1), (0.3,)),
        Op("crz", (2, 3), (0.4,)),
    ]
    out = plan_contractions(ops)
    assert [type(o) for o in out] == [ContractionPlan, ContractionPlan]
    assert {o.qubits for o in out} == {(0, 1), (2, 3)}
    assert all(o.n_ops == 2 for o in out)


def test_bridging_op_merges_windows_that_fit():
    ops = [Op("ry", (0,), (0.4,)), Op("ry", (1,), (0.7,)), Op("cnot", (0, 1))]
    out = plan_contractions(ops)
    assert len(out) == 1
    assert isinstance(out[0], ContractionPlan)
    assert out[0].n_ops == 3
    assert set(out[0].qubits) == {0, 1}


def test_bridging_op_emits_windows_that_cannot_merge():
    ops = [
        Op("cnot", (0, 1)),
        Op("swap", (0, 1)),
        Op("cnot", (2, 3)),
        Op("swap", (2, 3)),
        Op("cnot", (1, 2)),  # bridges {0,1} and {2,3}: 4 qubits, no full merge
    ]
    out = plan_contractions(ops)
    # {0,1} still fits beside the bridge and rides along; only {2,3} is
    # emitted — two passes, where emitting both windows cost three.
    assert [type(o) for o in out] == [ContractionPlan, ContractionPlan]
    assert set(out[0].qubits) == {2, 3} and out[0].n_ops == 2
    assert set(out[1].qubits) == {0, 1, 2} and out[1].n_ops == 3
    assert out[1].sources[-1] is ops[-1]


def _assert_exact(ops, n, **planner_kw):
    """Planned records run on the shared engine == the dense oracle."""
    planned = plan_contractions(ops, **planner_kw)
    sv = StateVector(n, seed=0)
    sv.apply_ops(planned)
    expected = _dense_oracle.run(n, [(o.gate, o.qubits, o.params) for o in ops])
    np.testing.assert_allclose(sv.statevector(), expected, atol=DEEP_ATOL)
    return planned


def test_absorption_across_an_emitted_window_is_exact():
    ops = [
        Op("h", (0,)),
        Op("cnot", (0, 1)),
        Op("ry", (1,), (0.4,)),
        Op("cnot", (1, 2)),  # dense window {0,1,2}
        Op("rx", (3,), (0.9,)),  # lone, opened while {0,1,2} is live
        Op("cnot", (2, 3)),  # bridge overflows: rx(3) rides along, {0,1,2} goes
        Op("rz", (3,), (0.3,)),
        Op("cnot", (2, 3)),
        Op("rx", (2,), (-0.7,)),  # after the emitted window, on one of its qubits
    ]
    out = _assert_exact(ops, 4)
    assert [set(o.qubits) for o in out] == [{0, 1, 2}, {2, 3}]
    assert [s.gate for s in out[1].sources] == ["rx", "cnot", "rz", "cnot", "rx"]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("bounds", [(3, 3, 16), (4, 3, 16), (4, 4, 2), (3, 2, 1)])
def test_random_circuits_stay_exact_under_every_bound(seed, bounds):
    max_window, merge_window, max_open = bounds
    rng = np.random.default_rng(seed)
    n = 7
    ops = []
    for _ in range(60):
        roll = rng.random()
        a, b, c = (int(x) for x in rng.choice(n, size=3, replace=False))
        if roll < 0.4:
            ops.append(Op(("rx", "ry", "rz")[a % 3], (b,), (float(rng.random()),)))
        elif roll < 0.65:
            ops.append(Op("cnot", (a, b)))
        elif roll < 0.8:
            ops.append(Op("crz", (a, b), (float(rng.random()),)))
        elif roll < 0.95:
            ops.append(Op("swap", (a, b)))
        else:
            ops.append(Op("toffoli", (a, b, c)))  # barrier: forces a drain
    _assert_exact(
        ops, n, max_window=max_window, merge_window=merge_window, max_open=max_open
    )


@pytest.mark.parametrize("w", [3, 4])
def test_single_qubit_layer_between_barriers_packs_into_shared_windows(w):
    n = 20
    barrier = Op("toffoli", (0, 1, 2))
    layer = [Op("rx", (q,), (0.1 * (q + 1),)) for q in range(n)]
    out = plan_contractions([barrier, *layer, barrier], max_window=w)
    assert out[0] is barrier and out[-1] is barrier
    plans = out[1:-1]
    assert len(plans) == -(-n // w)
    assert all(isinstance(p, ContractionPlan) and len(p.qubits) <= w for p in plans)
    assert sorted(q for p in plans for q in p.qubits) == list(range(n))
    # Same packing, small enough for the oracle.
    _assert_exact([Op("h", (0,)), Op("toffoli", (0, 1, 2)), *layer[:7]], 7, max_window=w)


def test_max_open_overflow_never_emits_a_lone_single_qubit_op():
    lone = [Op("h", (q,)) for q in range(3)]
    pairs = [(3, 4), (5, 6), (7, 8)]
    dense = [op for a, b in pairs for op in (Op("cnot", (a, b)), Op("swap", (a, b)))]
    tail = [Op("cnot", (0, 1)), Op("cnot", (1, 2))]
    out = _assert_exact([*lone, *dense, *tail], 9, max_open=1)
    # Three lone ops never count toward max_open=1: the dense windows
    # are evicted oldest first instead, and every h rides in the tail.
    assert all(isinstance(o, ContractionPlan) for o in out)
    assert [set(o.qubits) for o in out] == [{3, 4}, {5, 6}, {7, 8}, {0, 1, 2}]
    assert [s.gate for s in out[-1].sources] == ["h", "h", "h", "cnot", "cnot"]


def test_density_rule_still_passes_lone_shard_target_cnots_through():
    # The chigh_cnot guard: CNOTs sharing only a (shard-axis) target are
    # faster through the per-op restricted exchange, lone single-qubit
    # ops packed around them or not.
    cnots = [Op("cnot", (q, 0)) for q in (1, 2, 3)]
    assert plan_contractions(cnots) == cnots
    assert plan_contractions(cnots[:1]) == cnots[:1]
    rxs = [Op("rx", (4,), (0.2,)), Op("rx", (5,), (0.3,))]
    out = plan_contractions([*rxs, *cnots], max_window=4)
    assert out[:3] == cnots
    assert isinstance(out[3], ContractionPlan) and out[3].sources == tuple(rxs)


def test_e2e_anneal_program_lowers_to_one_diagonal_and_five_windows_per_trotter_step(monkeypatch):
    # Pass-count guard for the Listing-1 / Fig. 7 workload (no timing):
    # the benchmark's own program at 20 spins, as the stream flushes it.
    e2e = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
    if not (e2e / "programs.py").is_file():
        pytest.skip("benchmarks/e2e is not in this checkout")
    monkeypatch.syspath_prepend(str(e2e))
    import programs

    from repro.sim import cache, lower_flush

    buffers, lowered = [], []

    def spy(ops, n_qubits):
        buffers.append(list(ops))
        lowered.append(lower_flush(ops, n_qubits))
        return lowered[-1]

    monkeypatch.setattr(cache, "lower_flush", spy)
    spins, steps = 20, 6
    couplings = [s / steps for s in range(steps)]
    world = qmpi_run(1, programs.anneal, args=(spins, couplings, 1.0), seed=0)
    assert world.backend.cache_info()["bypasses"] == 0
    # The stream folds every cnot . rz . cnot bond into one rzz ...
    assert Counter(op.gate for b in buffers for op in b) == {
        "rzz": spins * steps, "rx": spins * steps, "h": spins
    }
    # ... so a step's ZZ layer is one phase multiply holding 20 pair
    # tables, and every h/rx rides in a window of four lone ops,
    # whatever the stream's flush points ...
    records = [r for batch in lowered for r in batch]
    batches = [r for r in records if isinstance(r, DiagBatch)]
    assert len(batches) == steps
    assert all(len(b.phases2) == spins and not b.phases1 for b in batches)
    assert all(isinstance(r, (ContractionPlan, DiagBatch)) for r in records)
    assert len(records) <= 7 * steps
    # ... and the program as one buffer is six sweeps per step after
    # the five windows of the h layer: 41 records.
    whole = lower_flush([op for b in buffers for op in b], spins)
    assert len(whole) == 5 + 6 * steps


def test_diag_batch_and_wide_ops_are_barriers():
    batch = DiagBatch.from_ops([Op("cz", (0, 1)), Op("t", (0,))])
    ops = [Op("cnot", (0, 1)), batch, Op("cnot", (0, 1))]
    out = plan_contractions(ops)
    # The barrier splits what would otherwise fuse into one plan.
    assert out == ops
    ops = [Op("cnot", (0, 1)), Op("toffoli", (0, 1, 2)), Op("cnot", (0, 1))]
    assert plan_contractions(ops) == ops


def test_plan_matrix_equals_in_order_product():
    ops = [
        Op("h", (2,)),
        Op("cnot", (2, 0)),
        Op("crz", (0, 2), (0.37,)),
        Op("swap", (0, 2)),
        Op("ry", (0,), (1.1,)),
    ]
    plan = ContractionPlan.from_ops(ops)
    assert plan.qubits == (2, 0)
    assert plan.n_ops == 5
    ref = StateVector(3, seed=0)
    ref.h(0), ref.h(1), ref.h(2)
    got = ref.copy()
    got.apply(plan.u, *plan.qubits)
    ref.apply_ops(ops)
    np.testing.assert_allclose(ref.statevector(), got.statevector(), atol=STATE_ATOL)


def test_plan_quacks_like_an_op():
    plan = ContractionPlan.from_ops([Op("cnot", (4, 7)), Op("h", (7,))])
    assert plan.controls == ()
    assert plan.targets == plan.qubits == (4, 7)
    assert not plan.is_diagonal and not plan.is_single
    assert plan.spec is None
    np.testing.assert_allclose(plan.target_matrix(), plan.matrix())


# ----------------------------------------------------------------------
# stream-level: which modes emit plans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode,expect_plan", [
    ("planned", True),
    ("noplan", False),
    ("nodiag", False),
    ("off", False),
])
def test_stream_emits_plans_only_when_planning(mode, expect_plan):
    # "planned" forces planning on this tiny register; the default
    # size-aware bypass is covered by tests/qmpi/test_schedule.py.
    with lowering(mode):
        be = SharedBackend(seed=0)
        seen = compiled_records(be)
        qs = tuple(be.alloc(0, 3))
        stream = OpStream(be, 0, fusion=fusion_of(mode))
        stream.append(Op("cnot", (qs[0], qs[1])))
        stream.append(Op("ry", (qs[1],), (0.3,)))
        stream.append(Op("cnot", (qs[1], qs[2])))
        stream.flush()
    assert seen
    assert any(isinstance(o, ContractionPlan) for o in seen) == expect_plan


def test_stream_rejects_unknown_fusion_mode():
    with pytest.raises(ValueError):
        OpStream(SharedBackend(seed=0), 0, fusion="bogus")


# ----------------------------------------------------------------------
# sharded white-box: per-plan shard-bit classification
# ----------------------------------------------------------------------
def _count_fabric_sends(sv):
    sends = []
    orig = sv._fabric.send

    def spy(ctx, src, dst, tag, payload):
        sends.append((src, dst))
        return orig(ctx, src, dst, tag, payload)

    sv._fabric.send = spy
    return sends


def _spread(sv):
    for q in sv.qubit_ids:
        sv.h(q)


def test_all_local_plan_is_one_in_chunk_matmul():
    sv = ShardedStateVector(4, seed=0, n_shards=4)  # qubits 2,3 are local
    ref = sv.copy()
    _spread(sv), _spread(ref)
    sends = _count_fabric_sends(sv)
    ops = [Op("cnot", (2, 3)), Op("ry", (3,), (0.8,)), Op("swap", (2, 3))]
    sv.apply_ops(plan_contractions(ops))
    ref.apply_ops(ops)
    assert sends == []
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)


def test_block_diagonal_high_axis_plan_is_communication_free():
    # Qubit 0 sits on a shard axis; a CNOT controlled from it (plus a
    # local rotation) fuses to a unitary block-diagonal on that axis, so
    # each chunk contracts its signature's sub-block without exchange.
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    ref = sv.copy()
    _spread(sv), _spread(ref)
    sends = _count_fabric_sends(sv)
    ops = [Op("cnot", (0, 2)), Op("ry", (2,), (0.5,)), Op("cnot", (0, 2))]
    planned = plan_contractions(ops)
    assert [type(o) for o in planned] == [ContractionPlan]
    sv.apply_ops(planned)
    ref.apply_ops(ops)
    assert sends == []
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)


def test_identity_plan_sub_blocks_are_skipped_exactly():
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    _spread(sv)
    before = sv.statevector()
    sends = _count_fabric_sends(sv)
    planned = plan_contractions([Op("cnot", (0, 2)), Op("cnot", (0, 2))])
    assert [type(o) for o in planned] == [ContractionPlan]
    sv.apply_ops(planned)
    assert sends == []
    np.testing.assert_allclose(sv.statevector(), before, atol=STATE_ATOL)


def test_mixing_high_axis_plan_exchanges_once_for_the_whole_plan():
    # Qubit 0's shard axis is the *target* of a CNOT: the fused unitary
    # genuinely mixes the axis, so the plan needs chunk exchange — but
    # only one group exchange for the whole fused run.
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    ref = sv.copy()
    _spread(sv), _spread(ref)
    sends = _count_fabric_sends(sv)
    ops = [Op("cnot", (2, 0)), Op("h", (0,)), Op("cnot", (2, 0))]
    planned = plan_contractions(ops)
    assert [type(o) for o in planned] == [ContractionPlan]
    sv.apply_ops(planned)
    ref.apply_ops(ops)
    n_plan_sends = len(sends)
    assert 0 < n_plan_sends
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)
    # The per-op path pays at least one exchange per high-axis op; the
    # plan paid for the whole run at most what one such op pays.
    per_op = ShardedStateVector(4, seed=0, n_shards=4)
    _spread(per_op)
    op_sends = _count_fabric_sends(per_op)
    per_op.apply_ops(ops)
    assert n_plan_sends < len(op_sends)


def test_all_shard_window_reduces_to_per_chunk_scalars():
    # Two qubits on four shards: every window qubit is a shard axis and
    # a diagonal product collapses to one scalar per chunk signature.
    sv = ShardedStateVector(2, seed=0, n_shards=4)
    ref = StateVector(2, seed=0)
    _spread(sv)
    ref.h(0), ref.h(1)
    sends = _count_fabric_sends(sv)
    ops = [Op("cz", (0, 1)), Op("t", (0,)), Op("s", (1,))]
    plan = ContractionPlan.from_ops(ops)
    assert plan.is_diagonal
    sv.apply_ops([plan])
    ref.apply_ops(ops)
    assert sends == []
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)


# ----------------------------------------------------------------------
# flush boundaries mid-plan
# ----------------------------------------------------------------------
def _ordered_alloc(qc, n=1):
    out = None
    for r in range(qc.size):
        if qc.rank == r:
            out = qc.alloc_qmem(n)
        qc.barrier()
    return out


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_measure_mid_plan_flushes_first(backend):
    def prog(qc):
        q = qc.alloc_qmem(2)
        qc.h(q[0])
        qc.cnot(q[0], q[1])  # Bell pair pending in the stream
        bit = qc.measure(q[0])  # boundary: the pending plan must apply
        qc.cnot(q[0], q[1])  # disentangle: q[1] back to |0>
        return bit, qc.measure(q[0]), qc.measure(q[1])

    for fusion in ("auto", "off"):
        w = qmpi_run(1, prog, seed=3, backend=backend, fusion=fusion)
        bit, again, partner = w.results[0]
        assert again == bit  # the Bell correlation survived the flush
        assert partner == 0


@pytest.mark.parametrize("mode", ["planned", "noplan", "off"])
def test_epr_and_p2p_mid_plan(mode):
    # A two-qubit run is interrupted by a qubit send (EPR + p2p fixups):
    # the stream must flush before the channel touches the qubits.
    def prog(qc):
        if qc.rank == 0:
            q = qc.alloc_qmem(2)
            qc.h(q[0])
            qc.cnot(q[0], q[1])
            qc.ry(q[1], 0.6)
            qc.send_move(q[1], 1)  # boundary mid-run
            qc.h(q[0])
            return qc.prob_one(q[0])
        t = qc.alloc_qmem(1)
        qc.recv_move(t, 0)
        qc.ry(t[0], -0.6)
        return qc.prob_one(t[0])

    with lowering(mode):
        got = qmpi_run(2, prog, seed=0, backend="sharded", fusion=fusion_of(mode))
    ref = qmpi_run(2, prog, seed=0, backend="shared", fusion="off")
    np.testing.assert_allclose(got.results, ref.results, atol=DEEP_ATOL)


# ----------------------------------------------------------------------
# equivalence: two-qubit-dense programs across backends, modes, ranks
# ----------------------------------------------------------------------
def _dense_program(qc, seed):
    q = _ordered_alloc(qc, 3)
    rng = np.random.default_rng(seed + qc.rank)
    for q_i in q:
        qc.h(q_i)
    for _ in range(30):
        roll = rng.random()
        a, b = (int(x) for x in rng.choice(3, size=2, replace=False))
        if roll < 0.35:
            qc.cnot(q[a], q[b])
        elif roll < 0.55:
            qc.swap(q[a], q[b])
        elif roll < 0.75:
            qc.crz(q[a], q[b], float(rng.random()))
        elif roll < 0.9:
            qc.ry(q[a], float(rng.random()))
        else:
            qc.toffoli(q[a], q[b], q[3 - a - b])  # planner barrier
    qc.barrier()
    return list(q)


def _assert_same_up_to_phase(vec_a, vec_b, atol=DEEP_ATOL):
    pivot = int(np.argmax(np.abs(vec_a)))
    phase = vec_b[pivot] / vec_a[pivot]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(vec_a * phase, vec_b, atol=atol)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_dense_two_qubit_equivalence_across_modes(n_ranks):
    worlds = {}
    for bk in ("shared", "sharded"):
        for mode in ("planned", "noplan", "off"):
            with lowering(mode):
                worlds[(bk, mode)] = qmpi_run(
                    n_ranks, _dense_program, args=(13,), seed=2,
                    backend=bk, fusion=fusion_of(mode),
                )
    ref_world = worlds[("shared", "off")]
    order = [q for block in ref_world.results for q in block]
    ref = ref_world.backend.statevector(order)
    for w in worlds.values():
        _assert_same_up_to_phase(ref, w.backend.statevector(order))


def test_plans_respect_rank_ownership():
    # A plan's window qubits are ownership-checked like any other op's.
    be = ShardedBackend(seed=0, n_shards=2)
    be.alloc(0, 2)
    other = be.alloc(1, 1)
    plan = ContractionPlan.from_ops([Op("cnot", (0, other[0])), Op("h", (0,))])
    with pytest.raises(LocalityError):
        be.apply_ops(0, (plan,))
