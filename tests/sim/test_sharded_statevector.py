"""Sharded engine: chunk layout, kernels, and equivalence to StateVector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qmpi import Op
from repro.sim import (
    ContractionPlan,
    ShardedStateVector,
    SimulationError,
    StateVector,
    coalesce_diagonals,
    plan_contractions,
)
from repro.sim import gates as G
from tests._precision import PROB_ABS, STATE_ATOL

SHARDS = [1, 2, 4, 8]


def rand_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_pair(n, n_shards, seed=0):
    a = StateVector(n, seed=seed)
    b = ShardedStateVector(n, seed=seed, n_shards=n_shards)
    assert a.qubit_ids == b.qubit_ids
    return a, b


def assert_same_state(a, b, atol=STATE_ATOL):
    np.testing.assert_allclose(a.statevector(), b.statevector(), atol=atol)


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def test_bad_shard_count_rejected():
    for bad in (0, 3, 6, -4):
        with pytest.raises(SimulationError):
            ShardedStateVector(n_shards=bad)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_chunk_layout_tracks_allocation(n_shards):
    sv = ShardedStateVector(n_shards=n_shards)
    assert sv.num_chunks == 1 and sv.chunk_size == 1
    qubits = sv.alloc(5)
    # Fresh qubits are pending factors: the chunks grow when they merge.
    assert sv.num_chunks == 1 and sv.store_qubits == 0
    sv.x(qubits[3])  # merged first: the top bit
    assert sv.store_qubits == 1 and sv.num_chunks == min(n_shards, 2)
    sv.layout_key(qubits)  # the rest merge below it, ascending ids
    assert sv.num_chunks == min(n_shards, 32)
    assert sv.num_chunks * sv.chunk_size == 32
    assert sv.n_local == 5 - (sv.num_chunks.bit_length() - 1)
    # statevector in merge order is the plain chunk concatenation
    np.testing.assert_array_equal(
        sv.statevector([3, 0, 1, 2, 4]),
        np.concatenate([sv.chunk(i) for i in range(sv.num_chunks)]),
    )


def test_vacuum_statevector_is_scalar_one():
    sv = ShardedStateVector(n_shards=4)
    np.testing.assert_allclose(sv.statevector(), [1.0])
    assert sv.num_qubits == 0 and sv.norm() == pytest.approx(1.0, abs=PROB_ABS)


# ----------------------------------------------------------------------
# gate equivalence against the reference engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", SHARDS)
def test_single_qubit_gates_all_axes(n_shards):
    # Qubit 0 is the highest axis (pair exchange for n_shards > 1),
    # the last qubit the lowest (pure local kernel).
    a, b = make_pair(4, n_shards)
    for q in range(4):
        for f in ("h", "x", "y", "s", "t", "sdg", "tdg", "z"):
            getattr(a, f)(q)
            getattr(b, f)(q)
        a.rx(q, 0.3), b.rx(q, 0.3)
        a.ry(q, -0.8), b.ry(q, -0.8)
        a.rz(q, 1.7), b.rz(q, 1.7)
        assert_same_state(a, b)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_two_qubit_gates_mixed_axes(n_shards):
    a, b = make_pair(4, n_shards)
    for q in range(4):
        a.h(q), b.h(q)
    pairs = [(0, 1), (1, 0), (0, 3), (3, 0), (2, 3), (1, 2)]
    for c, t in pairs:
        a.cnot(c, t), b.cnot(c, t)
        a.cz(c, t), b.cz(c, t)
        a.swap(c, t), b.swap(c, t)
        assert_same_state(a, b)
    a.toffoli(0, 1, 3), b.toffoli(0, 1, 3)
    a.toffoli(3, 2, 0), b.toffoli(3, 2, 0)
    assert_same_state(a, b)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_random_circuit_equivalence(n_shards, rng):
    a, b = make_pair(5, n_shards, seed=11)
    ids = list(a.qubit_ids)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        qs = [int(q) for q in rng.choice(ids, size=k, replace=False)]
        u = rand_unitary(2**k, rng)
        a.apply(u, *qs)
        b.apply(u, *qs)
    assert_same_state(a, b)
    assert b.norm() == pytest.approx(1.0, abs=PROB_ABS)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_apply_controlled_matches_reference(n_shards, rng):
    a, b = make_pair(4, n_shards)
    for q in range(4):
        a.h(q), b.h(q)
    u = rand_unitary(2, rng)
    a.apply_controlled(u, [0], [3])
    b.apply_controlled(u, [0], [3])
    a.apply_controlled(u, [3, 1], [0])
    b.apply_controlled(u, [3, 1], [0])
    a.apply_controlled(u, [], [2])
    b.apply_controlled(u, [], [2])
    assert_same_state(a, b)


@settings(max_examples=10)
@given(theta=st.floats(-3.0, 3.0, allow_nan=False), q=st.integers(0, 2))
def test_rotation_angles_property(theta, q):
    a = StateVector(3, seed=0)
    b = ShardedStateVector(3, seed=0, n_shards=4)
    a.h(q), b.h(q)
    a.ry(q, theta), b.ry(q, theta)
    np.testing.assert_allclose(a.statevector(), b.statevector(), atol=STATE_ATOL)


# ----------------------------------------------------------------------
# allocation / release dynamics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", SHARDS)
def test_alloc_release_interleaved(n_shards):
    a, b = make_pair(2, n_shards)
    a.h(0), b.h(0)
    a.cnot(0, 1), b.cnot(0, 1)
    (x,) = a.alloc(1)
    assert b.alloc(1) == [x]
    a.h(x), b.h(x)
    a.h(x), b.h(x)  # uncompute
    a.release(x), b.release(x)
    assert_same_state(a, b)
    more_a, more_b = a.alloc(2), b.alloc(2)
    assert more_a == more_b
    a.x(more_a[0]), b.x(more_b[0])
    assert_same_state(a, b)
    assert a.qubit_ids == b.qubit_ids


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_release_high_axis_qubit_compacts_chunks(n_shards):
    sv = ShardedStateVector(3, seed=0, n_shards=n_shards)
    ref = StateVector(3, seed=0)
    sv.layout_key(range(3))  # merge: qubit 0 is the highest axis
    sv.h(2), ref.h(2)
    before = sv.num_chunks
    sv.release(0), ref.release(0)
    assert sv.num_chunks == before // 2
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)
    # the next merge rebalances back up
    sv.layout_key(sv.alloc(1)), ref.alloc(1)
    assert sv.num_chunks == min(n_shards, 8)
    np.testing.assert_allclose(sv.statevector(), ref.statevector(), atol=STATE_ATOL)


def test_release_nonzero_qubit_raises():
    sv = ShardedStateVector(2, seed=0, n_shards=2)
    sv.x(0)
    with pytest.raises(SimulationError):
        sv.release(0)  # high axis, |1>
    sv.x(1)
    with pytest.raises(SimulationError):
        sv.release(1)  # local axis, |1>


def test_release_entangled_qubit_raises():
    sv = ShardedStateVector(2, seed=0, n_shards=2)
    sv.h(0)
    sv.cnot(0, 1)
    with pytest.raises(SimulationError):
        sv.release(1)


def test_unknown_and_duplicate_qubits_raise():
    sv = ShardedStateVector(2, seed=0, n_shards=2)
    with pytest.raises(SimulationError):
        sv.h(42)
    with pytest.raises(SimulationError):
        sv.apply(G.SWAP, 0, 0)
    with pytest.raises(SimulationError):
        sv.apply(G.H, 0, 1)  # shape mismatch
    with pytest.raises(SimulationError):
        sv.alloc(0)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", SHARDS)
def test_measurement_parity_with_reference(n_shards):
    # Same seed + same draw discipline => identical outcomes and states.
    a, b = make_pair(4, n_shards, seed=123)
    for q in range(4):
        a.h(q), b.h(q)
    a.cnot(0, 3), b.cnot(0, 3)
    for q in (3, 0, 1):
        assert a.measure(q) == b.measure(q)
        assert_same_state(a, b)
    assert a.measure_many([2]) == b.measure_many([2])


@pytest.mark.parametrize("n_shards", [1, 4])
def test_prob_one_and_postselect_axes(n_shards):
    a, b = make_pair(3, n_shards)
    a.ry(0, 0.7), b.ry(0, 0.7)
    a.ry(2, 1.3), b.ry(2, 1.3)
    for q in range(3):
        assert b.prob_one(q) == pytest.approx(a.prob_one(q), abs=PROB_ABS)
    a.postselect(0, 1), b.postselect(0, 1)
    a.postselect(2, 0), b.postselect(2, 0)
    assert_same_state(a, b)
    assert b.norm() == pytest.approx(1.0, abs=PROB_ABS)


def test_postselect_zero_probability_raises():
    sv = ShardedStateVector(2, seed=0, n_shards=2)
    with pytest.raises(SimulationError):
        sv.postselect(0, 1)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_measure_and_release(n_shards):
    sv = ShardedStateVector(n_shards=n_shards, seed=0)
    q = sv.alloc(2)
    sv.x(q[0])
    assert sv.measure_and_release(q[0]) == 1
    assert sv.num_qubits == 1
    assert sv.measure_and_release(q[1]) == 0
    assert sv.num_qubits == 0


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 4])
def test_amplitude_statevector_probabilities(n_shards):
    a, b = make_pair(3, n_shards)
    a.h(0), b.h(0)
    a.cnot(0, 2), b.cnot(0, 2)
    for bits in ([0, 0, 0], [1, 0, 1], [1, 1, 0]):
        assert b.amplitude(bits) == pytest.approx(a.amplitude(bits), abs=PROB_ABS)
    # permuted qubit order
    order = [2, 0, 1]
    np.testing.assert_allclose(
        b.statevector(order), a.statevector(order), atol=STATE_ATOL
    )
    np.testing.assert_allclose(
        b.probabilities(order), a.probabilities(order), atol=STATE_ATOL
    )
    with pytest.raises(SimulationError):
        b.amplitude([0, 1])
    with pytest.raises(SimulationError):
        b.statevector([0, 1])


@pytest.mark.parametrize("n_shards", [1, 4])
def test_expectation_pauli(n_shards):
    a, b = make_pair(3, n_shards)
    a.h(0), b.h(0)
    a.cnot(0, 1), b.cnot(0, 1)
    a.ry(2, 0.9), b.ry(2, 0.9)
    for mapping in ({0: "Z"}, {0: "X", 1: "X"}, {2: "Y"}, {0: "Z", 1: "Z", 2: "Z"}):
        assert b.expectation_pauli(mapping) == pytest.approx(
            a.expectation_pauli(mapping), abs=PROB_ABS
        )
    # expectation must not perturb the state
    assert_same_state(a, b)


def test_copy_is_independent():
    sv = ShardedStateVector(3, seed=0, n_shards=4)
    sv.h(0)
    dup = sv.copy()
    dup.x(1)
    assert sv.prob_one(1) == pytest.approx(0.0)
    assert dup.prob_one(1) == pytest.approx(1.0, abs=PROB_ABS)


def _fabric_sends(sv, run):
    """The ``(source, dest)`` fabric sends ``run()`` makes, sorted."""
    sent = []
    original = sv._fabric.send

    def spy(context, source, dest, tag, payload):
        sent.append((source, dest))
        original(context, source, dest, tag, payload)

    sv._fabric.send = spy
    run()
    sv._fabric.send = original
    return sorted(sent)


def test_exchange_traffic_goes_through_fabric():
    # A high-axis H must move chunk pairs through the fabric mailboxes;
    # a diagonal high-axis Rz must not.
    sv = ShardedStateVector(3, seed=0, n_shards=4)
    sv.layout_key(range(3))  # merge: qubit 0 is the highest axis
    assert _fabric_sends(sv, lambda: sv.rz(0, 0.5)) == []  # diagonal
    # diagonal controlled, high-axis target, then high-axis control: none
    assert _fabric_sends(sv, lambda: (sv.cz(2, 0), sv.cz(0, 2))) == []
    # qubit 0 = highest axis = shard bit
    assert _fabric_sends(sv, lambda: sv.h(0)) == [(0, 2), (1, 3), (2, 0), (3, 1)]
    assert _fabric_sends(sv, lambda: sv.h(2)) == []  # lowest axis = local
    # A shard-axis cnot target exchanges only the chunks its shard
    # controls select, pairwise — never the dense matrix's all-to-all.
    for (c, t), n_sent in {(2, 0): 4, (0, 1): 2, (1, 0): 2}.items():
        assert len(_fabric_sends(sv, lambda: sv.cnot(c, t))) == n_sent


#: Operands on a 5-qubit ``sharded:4`` register (qubits 0 and 1 are the
#: shard axes, 2-4 local), by operand count, controls first.
PLACEMENTS = {
    "local/local": {1: (4,), 2: (3, 4), 3: (2, 3, 4)},
    "shard-control/local-target": {1: (4,), 2: (0, 4), 3: (0, 2, 4)},
    "local-control/shard-target": {1: (0,), 2: (3, 0), 3: (2, 3, 0)},
    "shard/shard": {1: (1,), 2: (0, 1), 3: (0, 2, 1)},
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("name", sorted(G.GATESET))
def test_named_gate_traffic_matches_its_batch(name, placement):
    # An eager named gate is the registry op as a one-op batch: the same
    # classification, so the same fabric messages and amplitudes.
    gd = G.GATESET[name]
    qubits = PLACEMENTS[placement][gd.n_qubits]
    params = tuple(0.3 + 0.2 * i for i in range(gd.n_params))
    eager, batch = (ShardedStateVector(5, seed=0, n_shards=4) for _ in range(2))
    for sv in (eager, batch):
        sv.apply_ops([Op("ry", (q,), (0.4 + 0.3 * q,)) for q in range(5)])
    sent = _fabric_sends(eager, lambda: getattr(eager, name)(*qubits, *params))
    op = Op(name, qubits, params)
    assert sent == _fabric_sends(batch, lambda: batch.apply_ops((op,)))
    np.testing.assert_array_equal(eager.statevector(), batch.statevector())


#: Eager entry points on a 4-qubit ``sharded:4`` register (qubits 0 and
#: 1 are the shard axes); most end in a mixing barrier.
EAGER_CALLS = {
    "h": lambda sv: sv.h(0),
    "cnot": lambda sv: sv.cnot(3, 0),
    "crz": lambda sv: sv.crz(0, 3, 0.7),
    "toffoli": lambda sv: sv.toffoli(0, 3, 1),
    "apply": lambda sv: sv.apply(G.SWAP, 0, 3),
    "apply_controlled": lambda sv: sv.apply_controlled(G.H, [3], [0]),
    "entangle_fresh": lambda sv: sv.entangle_fresh(2, 3),  # merged: h + cnot
}
#: Entry bookkeeping and amplitude moves: no gate program at all.
NO_PROGRAM_CALLS = {
    "entangle_fresh_pending": lambda sv: sv.entangle_fresh(*sv.alloc(2)),
    "apply_pauli_if": lambda sv: sv.apply_pauli_if(1, "X", 0),
}


def _spied(sv):
    calls = {}
    for name in ("apply_ops", "freeze_segments", "execute_frozen"):
        calls[name] = 0

        def spy(*args, _name=name, _method=getattr(sv, name)):
            calls[_name] += 1
            return _method(*args)

        setattr(sv, name, spy)
    return calls


@pytest.mark.parametrize("call", sorted(EAGER_CALLS))
def test_eager_api_runs_one_frozen_program(call):
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    sv.layout_key(range(4))  # merge: qubits 0 and 1 are the shard axes
    calls = _spied(sv)
    EAGER_CALLS[call](sv)
    # One batch, frozen and run once; a barrier's exchange never
    # re-enters apply_ops.
    assert calls == {"apply_ops": 1, "freeze_segments": 1, "execute_frozen": 1}


@pytest.mark.parametrize("call", sorted(NO_PROGRAM_CALLS))
def test_entries_and_pauli_moves_run_no_program(call):
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    sv.layout_key(range(4))
    calls = _spied(sv)
    NO_PROGRAM_CALLS[call](sv)
    assert calls == {"apply_ops": 0, "freeze_segments": 0, "execute_frozen": 0}


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_cz_high_axis_target_matches_reference(n_shards):
    # cz/controlled-phase with a shard-bit target takes the phase-only
    # path; check it against the reference on every control/target split.
    a, b = make_pair(3, n_shards)
    for q in range(3):
        a.h(q), b.h(q)
    for c, t in [(2, 0), (0, 2), (1, 0), (0, 1), (2, 1), (1, 2)]:
        a.cz(c, t), b.cz(c, t)
        a.apply_controlled(G.phase(0.7), [c], [t])
        b.apply_controlled(G.phase(0.7), [c], [t])
        assert_same_state(a, b)


# ----------------------------------------------------------------------
# the in-process chunk store: batched records, lifecycle, plans
# ----------------------------------------------------------------------
def _mixed_ops():
    return [
        Op("h", (0,)),
        Op("rx", (2,), (0.45,)),
        Op("ry", (3,), (0.8,)),
        Op("rz", (1,), (0.3,)),
        Op("cphase", (1, 2), (0.9,)),
        Op("z", (3,)),
        Op("cphase", (0, 3), (0.5,)),  # pair spanning shard + local axes
        Op("cnot", (2, 3)),
        Op("t", (0,)),
        Op("crz", (0, 1), (0.7,)),  # shard-axis control
    ]


@pytest.mark.parametrize("n_shards", SHARDS)
def test_coalesced_diagonals_match_eager_reference(n_shards):
    ref, eager = make_pair(4, n_shards)
    batched = ShardedStateVector(4, seed=0, n_shards=n_shards)
    ref.apply_ops(_mixed_ops())
    eager.apply_ops(_mixed_ops())
    batched.apply_ops(coalesce_diagonals(_mixed_ops()))
    assert_same_state(ref, eager)
    assert_same_state(ref, batched)


@pytest.mark.parametrize("n_shards", SHARDS)
def test_alloc_release_and_postselect_around_diagonal_batches(n_shards):
    ref, sv = make_pair(4, n_shards)
    for eng in (ref, sv):
        eng.apply_ops([Op("h", (0,)), Op("rx", (1,), (0.4,))])
        ids = eng.alloc(2)
        eng.apply_ops([Op("ry", (ids[0],), (0.6,))])
        eng.release(ids[1])  # still |0>
        eng.postselect(ids[0], 0)
        eng.apply_ops(coalesce_diagonals([Op("t", (q,)) for q in (0, 1, 2, 3)]))
    assert ref.qubit_ids == sv.qubit_ids
    assert_same_state(ref, sv)


@pytest.mark.parametrize(
    "run",
    [
        # all-local window: a "ct" entry
        [Op("cnot", (2, 3)), Op("ry", (3,), (0.8,)), Op("swap", (2, 3))],
        # block-diagonal window over a shard axis: a "csel" entry
        [Op("cnot", (0, 2)), Op("ry", (2,), (0.5,)), Op("cnot", (0, 2))],
    ],
    ids=["local", "blockdiag"],
)
def test_contraction_plans_apply_in_place(run):
    ref = ShardedStateVector(4, seed=0, n_shards=4)
    sv = ShardedStateVector(4, seed=0, n_shards=4)
    sv.layout_key(range(4))  # merge first: the plan then touches no new qubit
    spread = [Op("h", (0,)), Op("h", (2,)), Op("rx", (1,), (0.25,))]
    ref.apply_ops(spread + run)
    sv.apply_ops(spread)
    chunks = [id(c) for c in sv._chunks]
    planned = plan_contractions(run)
    assert [type(o) for o in planned] == [ContractionPlan]
    sv.apply_ops(planned)
    assert [id(c) for c in sv._chunks] == chunks  # no chunk reallocated
    assert_same_state(ref, sv)
