"""Op IR, stream fusion, flush boundaries, and batched dispatch.

Three layers:

1. unit tests of the typed Op records and the OpStream's peephole
   fusion rules (merge, annihilation, diagonal coalescing, commute
   blocking, eager ``fusion="off"`` mode);
2. a seeded random-circuit property suite asserting amplitude-identical
   final states across shared/sharded x fused/unfused x 1/2/4 ranks;
3. flush-boundary tests proving no stale buffered gates survive a
   measurement, EPR preparation, p2p call, or barrier mid-stream, and
   that the sharded backend executes everything through apply_ops
   batches.
"""

import math

import numpy as np
import pytest

from repro.qmpi import (
    GATESET,
    UNITARY,
    Op,
    OpStream,
    SharedBackend,
    qmpi_run,
)
from repro.sim import SimulationError
from repro.sim import gates as G
from tests._precision import DEEP_ATOL, PROB_ABS, STATE_ATOL


# ----------------------------------------------------------------------
# the typed Op IR
# ----------------------------------------------------------------------
def test_gateset_contains_the_full_surface():
    expected = {
        "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz",
        "phase", "swap", "cnot", "cz", "crz", "cphase", "rzz", "toffoli",
    }
    assert expected <= set(GATESET)


def test_op_validation():
    with pytest.raises(ValueError):
        Op("nope", (0,))
    with pytest.raises(ValueError):
        Op("h", (0, 1))  # arity
    with pytest.raises(ValueError):
        Op("rx", (0,))  # missing theta
    with pytest.raises(SimulationError):
        Op("cnot", (3, 3))  # duplicate qubits
    with pytest.raises(ValueError):
        Op(UNITARY, (0,))  # missing matrix
    with pytest.raises(SimulationError):
        Op(UNITARY, (0, 1), u=G.H)  # wrong shape


def test_op_structure_and_matrices():
    op = Op("crz", (2, 5), (0.3,))
    assert op.controls == (2,) and op.targets == (5,)
    assert op.is_diagonal
    np.testing.assert_allclose(op.target_matrix(), G.rz(0.3))
    np.testing.assert_allclose(op.matrix(), G.controlled(G.rz(0.3)))
    assert Op("h", (0,)).matrix() is G.H
    assert not Op("rx", (0,), (0.1,)).is_diagonal
    assert Op(UNITARY, (0,), u=np.diag([1, 1j])).is_diagonal
    assert not Op(UNITARY, (0,), u=G.H).is_diagonal


# ----------------------------------------------------------------------
# OpStream fusion rules
# ----------------------------------------------------------------------
def _stream(n_qubits=3, fusion="auto", **kw):
    be = SharedBackend(seed=0)
    q = be.alloc(0, n_qubits)
    return OpStream(be, 0, fusion=fusion, **kw), be, list(q)


def test_same_qubit_rotations_fuse():
    st, be, q = _stream()
    st.append(Op("rz", (q[0],), (0.2,)))
    st.append(Op("rz", (q[0],), (0.3,)))
    st.append(Op("rx", (q[0],), (0.1,)))
    assert st.pending == 1  # one fused 2x2
    st.flush()
    np.testing.assert_allclose(
        be.statevector(q), _dense([G.rx(0.1) @ G.rz(0.5)], q, 3), atol=STATE_ATOL
    )


def test_inverse_pair_annihilates():
    st, _, q = _stream()
    st.append(Op("h", (q[0],)))
    st.append(Op("h", (q[0],)))
    assert st.pending == 0
    st.append(Op("t", (q[1],)))
    st.append(Op("tdg", (q[1],)))
    assert st.pending == 0


def test_fusion_commutes_over_disjoint_and_diagonal_ops():
    st, _, q = _stream()
    st.append(Op("rx", (q[0],), (0.4,)))
    st.append(Op("h", (q[1],)))  # disjoint: transparent
    st.append(Op("rx", (q[0],), (-0.4,)))  # annihilates with the first
    assert st.pending == 1
    st.append(Op("rz", (q[2],), (0.1,)))
    st.append(Op("cz", (q[1], q[2])))  # diagonal, shares q2
    st.append(Op("rz", (q[2],), (0.2,)))  # coalesces through the cz
    assert st.pending == 3  # h, rz(0.3), cz


def test_fusion_blocked_by_entangling_overlap():
    st, _, q = _stream()
    st.append(Op("h", (q[0],)))
    st.append(Op("cnot", (q[0], q[1])))
    st.append(Op("h", (q[0],)))  # must NOT merge back over the cnot
    assert st.pending == 3


# -- ZZ folding: cnot(c, t) . rz(t, theta) . cnot(c, t) -> rzz(c, t, theta)
def _sandwich(st, c, t, theta):
    st.append(Op("cnot", (c, t)))
    st.append(Op("rz", (t,), (theta,)))
    st.append(Op("cnot", (c, t)))


def test_zz_sandwich_folds_over_disjoint_ops():
    st, _, q = _stream(4)
    st.append(Op("cnot", (q[0], q[1])))
    st.append(Op("h", (q[2],)))  # disjoint: transparent
    st.append(Op("rz", (q[1],), (0.3,)))
    st.append(Op("cnot", (q[2], q[3])))  # disjoint: transparent
    st.append(Op("cnot", (q[0], q[1])))
    assert st._buf == [
        Op("rzz", (q[0], q[1]), (0.3,)),
        Op("h", (q[2],)),
        Op("cnot", (q[2], q[3])),
    ]
    # a ring of bonds sharing qubits folds bond by bond
    st, _, q = _stream(3)
    for c, t in ((0, 1), (1, 2), (2, 0)):
        _sandwich(st, q[c], q[t], 0.1 * (c + 1))
    assert [op.gate for op in st._buf] == ["rzz"] * 3
    assert [op.params for op in st._buf] == [(0.1,), (0.2,), (0.30000000000000004,)]


@pytest.mark.parametrize(
    "between, closing",
    [
        ([("rz", (1,), (0.3,)), ("z", (0,), ())], (0, 1)),  # an op on c
        ([("rz", (1,), (0.3,)), ("cz", (0, 2), ())], (0, 1)),  # ... even a diagonal one
        ([("rx", (1,), (0.3,))], (0, 1)),  # a non-rz op on t
        ([("rz", (1,), (0.3,)), ("rz", (1,), (0.2,))], (0, 1)),  # fused single: not an rz record
        ([("rz", (1,), (0.3,)), ("cz", (1, 2), ())], (0, 1)),  # something else on t after the rz
        ([("rz", (0,), (0.3,))], (0, 1)),  # rz on the control
        ([("rz", (1,), (0.3,))], (1, 0)),  # reversed operands
        ([], (0, 1)),  # no rz at all
    ],
)
def test_zz_sandwich_does_not_fold_otherwise(between, closing):
    st, be, q = _stream(3)
    st.append(Op("h", (q[0],)))
    st.append(Op("cnot", (q[0], q[1])))
    for gate, qubits, params in between:
        st.append(Op(gate, tuple(q[i] for i in qubits), params))
    pending = st.pending
    st.append(Op("cnot", tuple(q[i] for i in closing)))
    assert st.pending == pending + 1
    assert "rzz" not in [op.gate for op in st._buf]


def test_zz_sandwich_does_not_fold_across_a_flush():
    st, _, q = _stream(2)
    st.append(Op("cnot", (q[0], q[1])))
    st.append(Op("rz", (q[1],), (0.3,)))
    st.flush()
    st.append(Op("cnot", (q[0], q[1])))
    assert st._buf == [Op("cnot", (q[0], q[1]))]
    # the max_pending auto-flush is a flush like any other
    st, _, q = _stream(3, max_pending=3)
    st.append(Op("h", (q[2],)))
    st.append(Op("cnot", (q[0], q[1])))
    st.append(Op("rz", (q[1],), (0.3,)))  # third pending op: auto-flush
    assert st.pending == 0
    st.append(Op("cnot", (q[0], q[1])))
    assert st._buf == [Op("cnot", (q[0], q[1]))]


def test_zz_sandwich_does_not_fold_across_program_flush_points_or_eagerly():
    def prog(qc, boundary):
        q = qc.alloc_qmem(3)
        qc.h(q[0])
        qc.cnot(q[0], q[1])
        qc.rz(q[1], 0.3)
        if boundary == "flush_ops":
            qc.flush_ops()
        elif boundary == "measure":
            qc.measure(q[2])
        qc.cnot(q[0], q[1])
        return [op.gate for op in qc.stream._buf]

    assert qmpi_run(1, prog, args=(None,)).results[0] == ["h", "rzz"]
    assert qmpi_run(1, prog, args=("flush_ops",)).results[0] == ["cnot"]
    assert qmpi_run(1, prog, args=("measure",)).results[0] == ["cnot"]
    assert qmpi_run(1, prog, args=(None,), fusion="off").results[0] == []


def _zz_program(qc, n):
    """Bonds on shard axes (the first-allocated qubits) and local ones,
    disjoint ops interleaved; returns the literal gate list."""
    q = qc.alloc_qmem(n)
    gates = [("h", (i,), ()) for i in range(n)]
    for c, t, theta in ((0, 1, 0.3), (1, 2, -0.7), (n - 1, 0, 1.1), (2, n - 2, 0.45)):
        other = next(i for i in range(n) if i not in (c, t))
        gates += [
            ("cnot", (c, t), ()),
            ("ry", (other,), (0.2 + theta,)),
            ("rz", (t,), (theta,)),
            ("cnot", (c, t), ()),
        ]
    gates += [("rx", (i,), (0.15 * (i + 1),)) for i in range(n)]
    for gate, qubits, params in gates:
        getattr(qc, gate)(*(q[i] for i in qubits), *params)
    folded = [op.gate for op in qc.stream._buf].count("rzz")
    qc.barrier()
    return list(q), gates, folded


@pytest.mark.parametrize("backend", ["shared", "sharded:2", "sharded:4"])
def test_folded_and_unfolded_sandwiches_match_the_dense_oracle(backend):
    from tests._dense_oracle import run

    n = 5
    states = {}
    for fusion in ("auto", "nodiag", "off"):
        world = qmpi_run(1, _zz_program, args=(n,), backend=backend, fusion=fusion)
        q, gates, folded = world.results[0]
        assert folded == (0 if fusion == "off" else 4)
        states[fusion] = world.backend.statevector(q)
    want = run(n, gates)
    for fusion, got in states.items():
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=fusion)


@pytest.mark.parametrize("fusion", ["auto", "nodiag"])
def test_lone_rzz_flush_never_exchanges_on_the_sharded_engine(monkeypatch, fusion):
    from repro.qmpi import ShardedBackend
    from repro.sim import ShardedStateVector

    be = ShardedBackend(seed=0, n_shards=4)
    q = be.alloc(0, 4)  # q[0], q[1] are the shard axes
    st = OpStream(be, 0, fusion=fusion)
    for x in q:
        st.append(Op("h", (x,)))
    st.flush()
    before = be.statevector(q)
    calls = []

    def spy(name):
        def called(self, *args):
            calls.append(name)
            raise AssertionError(f"{name} called for a diagonal flush")

        return called

    for name in ("_pair_exchange", "_group_exchange"):
        monkeypatch.setattr(ShardedStateVector, name, spy(name))
    phase = np.ones(16, dtype=complex)
    for (a, b), theta in (((0, 1), 0.3), ((1, 3), 0.5), ((2, 0), -0.9), ((2, 3), 0.2)):
        st.append(Op("rzz", (q[a], q[b]), (theta,)))
        st.flush()
        idx = np.arange(16)
        parity = ((idx >> (3 - a)) ^ (idx >> (3 - b))) & 1
        phase *= np.exp(-0.5j * theta * (1 - 2 * parity))
    assert calls == []
    np.testing.assert_allclose(be.statevector(q), phase * before, rtol=0, atol=1e-12)


@pytest.mark.parametrize("backend", ["shared", "sharded:4"])
def test_trotter_step_parameter_sweep_replays_one_cached_schedule(backend):
    n, sweeps = 6, 5

    def prog(qc, angles):
        q = qc.alloc_qmem(n)
        for x in q:
            qc.h(x)
        qc.flush_ops()
        for zz, xx in angles:
            for i in range(n):
                c, t = q[i], q[(i + 1) % n]
                qc.cnot(c, t)
                qc.rz(t, zz)
                qc.cnot(c, t)
            for x in q:
                qc.rx(x, xx)
            qc.flush_ops()
        return list(q)

    angles = np.random.default_rng(5).uniform(0.1, 3.0, (sweeps, 2)).tolist()
    on = qmpi_run(1, prog, args=(angles,), backend=backend, cache="on")
    off = qmpi_run(1, prog, args=(angles,), backend=backend, cache="off")
    info = on.backend.cache_info()
    # one miss for the h layer, one for the first step; every later
    # step rebinds the same frozen schedule with its own angles
    assert (info["hits"], info["misses"], info["bypasses"]) == (sweeps - 1, 2, 0)
    assert np.array_equal(
        on.backend.statevector(on.results[0]), off.backend.statevector(off.results[0])
    )


def test_fusion_off_is_eager():
    st, be, q = _stream(fusion="off")
    st.append(Op("h", (q[0],)))
    assert st.pending == 0
    assert not st.fusion
    # the gate already hit the backend
    assert abs(be.statevector(q)[0]) == pytest.approx(2**-0.5)


def test_max_pending_autoflushes():
    st, be, q = _stream(max_pending=4)
    for i in range(4):
        st.append(Op("h", (q[i % 3],)))
    assert st.pending < 4


def test_bad_fusion_mode_rejected():
    be = SharedBackend(seed=0)
    with pytest.raises(ValueError):
        OpStream(be, 0, fusion="sometimes")


def _dense(mats_on_q0, qubits, n):
    """Reference state: mats applied to qubit 0 of |0...0>."""
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    for m in mats_on_q0:
        full = np.kron(m, np.eye(2 ** (n - 1)))
        vec = full @ vec
    return vec


# ----------------------------------------------------------------------
# seeded random-circuit property suite
# ----------------------------------------------------------------------
SINGLE = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
SINGLE_P = ["rx", "ry", "rz", "phase"]
DOUBLE = ["cnot", "cz", "swap"]
DOUBLE_P = ["crz", "cphase"]


def _random_local_circuit(qc, qubits, seed, depth=40):
    """Apply a deterministic pseudo-random gate sequence to this rank's
    register (same seed => same sequence, regardless of backend/fusion)."""
    rng = np.random.default_rng(seed)
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.45 or len(qubits) == 1:
            name = SINGLE[rng.integers(len(SINGLE))]
            getattr(qc, name)(qubits[rng.integers(len(qubits))])
        elif roll < 0.7:
            name = SINGLE_P[rng.integers(len(SINGLE_P))]
            getattr(qc, name)(
                qubits[rng.integers(len(qubits))], float(rng.random() * 2 * math.pi)
            )
        elif roll < 0.9 or len(qubits) < 3:
            a, b = rng.choice(len(qubits), size=2, replace=False)
            if rng.random() < 0.6:
                name = DOUBLE[rng.integers(len(DOUBLE))]
                getattr(qc, name)(qubits[a], qubits[b])
            else:
                name = DOUBLE_P[rng.integers(len(DOUBLE_P))]
                getattr(qc, name)(qubits[a], qubits[b], float(rng.random()))
        else:
            a, b, c = rng.choice(len(qubits), size=3, replace=False)
            qc.toffoli(qubits[a], qubits[b], qubits[c])


def _ordered_alloc(qc, n=1):
    out = None
    for r in range(qc.size):
        if qc.rank == r:
            out = qc.alloc_qmem(n)
        qc.barrier()
    return out


def _assert_same_up_to_phase(vec_a, vec_b, atol=DEEP_ATOL):
    pivot = int(np.argmax(np.abs(vec_a)))
    assert abs(vec_a[pivot]) > 1e-6
    phase = vec_b[pivot] / vec_a[pivot]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(vec_a * phase, vec_b, atol=atol)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_random_circuits_equivalent_across_backends_and_fusion(n_ranks, seed):
    spins = 2

    def prog(qc):
        q = _ordered_alloc(qc, spins)
        _random_local_circuit(qc, q, seed * 101 + qc.rank)
        qc.barrier()
        return list(q)

    worlds = {
        (bk, fu): qmpi_run(n_ranks, prog, seed=seed, backend=bk, fusion=fu)
        for bk in ("shared", "sharded")
        for fu in ("auto", "off")
    }
    ref_world = worlds[("shared", "off")]
    order = [q for block in ref_world.results for q in block]
    ref = ref_world.backend.statevector(order)
    for key, w in worlds.items():
        assert w.results == ref_world.results, key
        _assert_same_up_to_phase(ref, w.backend.statevector(order))


def test_random_circuit_with_communication_equivalent():
    # interleave local random gates with a teleport + a fanned-out copy
    def prog(qc):
        q = _ordered_alloc(qc, 2)
        _random_local_circuit(qc, q, 7 + qc.rank, depth=15)
        if qc.rank == 0:
            qc.send(q[0], 1)
            qc.unsend(q[0], 1)
        elif qc.rank == 1:
            t = qc.alloc_qmem(1)
            qc.recv(t, 0)
            qc.crz(t[0], q[1], 0.37)
            qc.unrecv(t, 0)
        _random_local_circuit(qc, q, 70 + qc.rank, depth=15)
        qc.barrier()
        return list(q)

    worlds = {
        (bk, fu): qmpi_run(2, prog, seed=3, backend=bk, fusion=fu)
        for bk in ("shared", "sharded")
        for fu in ("auto", "off")
    }
    ref_world = worlds[("shared", "off")]
    order = [q for block in ref_world.results for q in block]
    ref = ref_world.backend.statevector(order)
    for key, w in worlds.items():
        _assert_same_up_to_phase(ref, w.backend.statevector(order))


# ----------------------------------------------------------------------
# flush boundaries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_measurement_mid_stream_flushes(backend):
    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.x(q[0])  # buffered
        assert qc.stream.pending == 1
        bit = qc.measure(q[0])  # boundary: must see the X
        assert qc.stream.pending == 0
        return bit

    w = qmpi_run(1, prog, seed=0, backend=backend)
    assert w.results == [1]


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_prob_one_mid_stream_flushes(backend):
    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.ry(q[0], 1.0)
        return qc.prob_one(q[0])

    w = qmpi_run(1, prog, seed=0, backend=backend)
    assert w.results[0] == pytest.approx(math.sin(0.5) ** 2, abs=PROB_ABS)


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_epr_prepare_mid_stream_flushes(backend):
    # Rank 0 buffers an X on its data qubit, then prepares an EPR pair:
    # the buffered gate must not leak past the rendezvous.
    def prog(qc):
        data = qc.alloc_qmem(1)
        peer = 1 - qc.rank
        if qc.rank == 0:
            qc.x(data[0])
        qc.prepare_epr(data[0], peer, 5)
        assert qc.stream.pending == 0
        return qc.measure(data[0])

    w = qmpi_run(2, prog, seed=0, backend=backend)
    # The EPR preparation overwrote the |1> with a fresh Bell pair on
    # both ends (entangle_pair acts on the halves as handed over), so
    # both ranks must agree — the buffered X must have been applied
    # BEFORE the entangling, not after (which would anti-correlate them).
    assert w.results[0] == w.results[1]


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_p2p_send_mid_stream_flushes(backend):
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 0:
            qc.x(q[0])  # buffered; send must fan out |1>, not |0>
            qc.send(q, 1)
            return None
        t = qc.alloc_qmem(1)
        qc.recv(t, 0)
        return qc.measure(t[0])

    w = qmpi_run(2, prog, seed=0, backend=backend)
    assert w.results[1] == 1


def test_barrier_and_program_exit_flush():
    seen = []

    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.h(q[0])
        qc.barrier()
        seen.append(qc.stream.pending)
        qc.t(q[0])  # left buffered at return: exit must flush
        return q[0]

    w = qmpi_run(1, prog, seed=0)
    assert seen == [0]
    vec = w.backend.statevector([w.results[0]])
    expected = (G.T @ G.H) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(vec, expected, atol=STATE_ATOL)


def test_statevector_mid_stream_flushes():
    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.x(q[0])  # buffered
        vec = qc.statevector(list(q))  # boundary: must reflect the X
        assert qc.stream.pending == 0
        return float(abs(vec[1]) ** 2)

    assert qmpi_run(1, prog, seed=0).results == [pytest.approx(1.0)]


def test_register_gate_rejects_shadowing_and_bad_names():
    from repro.qmpi import GateDef, register_gate

    with pytest.raises(ValueError):
        register_gate(GateDef("measure", ("q",), const=G.X))
    assert "measure" not in GATESET  # rolled back, not half-registered
    with pytest.raises(ValueError):
        register_gate(GateDef("h", ("q",), const=G.H))  # duplicate
    with pytest.raises(ValueError):
        register_gate(GateDef("not an identifier", ("q",), const=G.X))


def test_free_qmem_flushes():
    def prog(qc):
        q = qc.alloc_qmem(2)
        qc.x(q[0])
        qc.x(q[0])  # annihilates; q[0] back to |0>
        qc.free_qmem(q[0])  # must not trip the |0> check on stale ops
        return True

    assert qmpi_run(1, prog, seed=0).results == [True]


# ----------------------------------------------------------------------
# everything goes through apply_ops batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_all_gates_execute_through_apply_ops(backend):
    batches = []

    def prog(qc):
        orig = qc.backend.apply_flush
        if not batches:  # wrap once; the backend is shared by all ranks
            def spy(rank, ops, **kw):
                ops = tuple(ops)
                # The flush entry point receives the raw buffered batch
                # (lowering happens behind it, cached); count its ops.
                batches.append(sum(getattr(op, "n_ops", 1) for op in ops))
                return orig(rank, ops, **kw)

            qc.backend.apply_flush = spy
        q = _ordered_alloc(qc, 2)
        _random_local_circuit(qc, q, 11 + qc.rank, depth=20)
        qc.barrier()
        return qc.measure(q[0])

    batches.clear()
    qmpi_run(2, prog, seed=0, backend=backend)
    assert sum(batches) > 0
    assert max(batches) > 1  # genuine multi-op batches, not one-op RPC


# ----------------------------------------------------------------------
# ledger: classical bits recorded once, attributed on both rows
# ----------------------------------------------------------------------
def test_classical_bits_counted_once_but_attributed_to_receivers():
    def prog(qc):
        if qc.rank == 0:
            q = qc.alloc_qmem(1)
            qc.ry(q[0], 0.9)
            qc.send_move(q, 1)
            return None
        t = qc.alloc_qmem(1)
        qc.recv_move(t, 0)
        return qc.prob_one(t[0])

    w = qmpi_run(2, prog, seed=0)
    snap = w.ledger.snapshot()
    # Table 1: one teleport = 1 EPR pair + 2 classical bits, counted once.
    assert (snap.epr_pairs, snap.classical_bits) == (1, 2)
    # ... but BOTH endpoints' rows show the protocol's classical cost.
    assert w.ledger.row("send_move").classical_bits == 2
    assert w.ledger.row("recv_move").classical_bits == 2
