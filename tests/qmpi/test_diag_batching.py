"""Diagonal phase-vector batching: DiagBatch records and their dispatch.

Four layers:

1. unit tests of ``DiagBatch.from_ops`` (table merging, reversed pair
   keys, ``terms()`` round-trip) and ``coalesce_diagonals`` (run
   splitting, singleton passthrough);
2. stream-level tests proving flushes emit ``DiagBatch`` records in
   ``fusion="auto"`` and never under the ``"nodiag"`` lowering or
   ``fusion="off"``, with non-diagonal ops splitting batches;
3. flush-boundary tests (measurement / p2p mid-batch);
4. amplitude-exact equivalence of diagonal-heavy programs across
   shared/sharded x auto/nodiag/off x 1/2/4 ranks, including the QFT.
"""

import math

import numpy as np
import pytest

from repro.apps.qft import qft
from repro.qmpi import (
    DiagBatch,
    Op,
    OpStream,
    SharedBackend,
    qmpi_run,
)
from repro.sim import StateVector, coalesce_diagonals
from repro.sim import gates as G
from tests._lowering import compiled_records, fusion_of, lowering
from tests._precision import DEEP_ATOL, STATE_ATOL


# ----------------------------------------------------------------------
# DiagBatch unit tests
# ----------------------------------------------------------------------
def test_from_ops_merges_repeated_operands():
    ops = [
        Op("rz", (3,), (0.2,)),
        Op("rz", (3,), (0.5,)),
        Op("crz", (1, 2), (0.3,)),
        Op("crz", (1, 2), (0.4,)),
    ]
    batch = DiagBatch.from_ops(ops)
    assert set(batch.phases1) == {3}
    assert set(batch.phases2) == {(1, 2)}
    assert batch.n_ops == 2
    np.testing.assert_allclose(
        batch.phases1[3], np.diagonal(G.rz(0.7)), atol=STATE_ATOL
    )
    np.testing.assert_allclose(
        batch.phases2[(1, 2)],
        np.diagonal(G.controlled(G.rz(0.7))),
        atol=STATE_ATOL,
    )


def test_from_ops_permutes_reversed_pair_key():
    # cphase(2, 5) then cphase(5, 2): one table, in (2, 5) orientation.
    batch = DiagBatch.from_ops(
        [Op("cphase", (2, 5), (0.3,)), Op("cphase", (5, 2), (0.8,))]
    )
    assert set(batch.phases2) == {(2, 5)}
    # cphase is symmetric in control/target, so the tables just multiply.
    expected = np.diagonal(G.controlled(G.phase(0.3)) @ G.controlled(G.phase(0.8)))
    np.testing.assert_allclose(batch.phases2[(2, 5)], expected, atol=STATE_ATOL)


def test_from_ops_permutes_asymmetric_pair():
    # crz is NOT symmetric: crz(a, b) has the phase on b, conditioned on a.
    batch = DiagBatch.from_ops(
        [Op("crz", (0, 1), (0.4,)), Op("crz", (1, 0), (1.1,))]
    )
    assert set(batch.phases2) == {(0, 1)}
    fwd = np.diag(np.diagonal(G.controlled(G.rz(0.4))))
    # reversed op, expressed on (qubit0, qubit1) axes via the swap matrix
    rev = G.SWAP @ G.controlled(G.rz(1.1)) @ G.SWAP
    np.testing.assert_allclose(
        batch.phases2[(0, 1)], np.diagonal(fwd @ rev), atol=STATE_ATOL
    )


def test_from_ops_rejects_non_diagonal():
    with pytest.raises(ValueError):
        DiagBatch.from_ops([Op("h", (0,))])


def test_terms_roundtrip_matches_sequential_application():
    ops = [
        Op("t", (0,)),
        Op("cz", (0, 1)),
        Op("rz", (2,), (0.9,)),
        Op("cphase", (1, 2), (0.5,)),
    ]
    batch = DiagBatch.from_ops(ops)
    assert sorted(batch.qubits) == [0, 1, 2]

    ref = StateVector(3, seed=0)
    for q in range(3):
        ref.h(q)  # spread amplitude so phases are observable
    got = ref.copy()
    for op in ops:
        if op.controls:
            ref.apply_controlled(op.target_matrix(), list(op.controls), list(op.targets))
        else:
            ref.apply(op.target_matrix(), *op.targets)
    for qs, table in batch.terms():
        got.apply(np.diag(table), *qs)
    np.testing.assert_allclose(ref.statevector(), got.statevector(), atol=STATE_ATOL)


def test_coalesce_splits_on_non_diagonal_and_keeps_singletons():
    ops = [
        Op("z", (0,)),
        Op("cz", (0, 1)),
        Op("h", (0,)),  # splits
        Op("t", (1,)),  # lone diagonal: stays a plain op
        Op("cnot", (0, 1)),  # splits
        Op("rz", (0,), (0.1,)),
        Op("rz", (1,), (0.2,)),
    ]
    out = coalesce_diagonals(ops)
    kinds = [type(o).__name__ for o in out]
    assert kinds == ["DiagBatch", "Op", "Op", "Op", "DiagBatch"]
    assert out[1].gate == "h" and out[2].gate == "t" and out[3].gate == "cnot"


def test_coalesce_leaves_wide_diagonal_unitaries_alone():
    wide = Op("unitary", (0, 1, 2), u=np.diag(np.exp(1j * np.arange(8))))
    assert wide.is_diagonal
    out = coalesce_diagonals([Op("z", (0,)), Op("t", (1,)), wide])
    assert [type(o).__name__ for o in out] == ["DiagBatch", "Op"]
    assert out[1] is wide


# ----------------------------------------------------------------------
# stream dispatch: what the backend actually receives
# ----------------------------------------------------------------------
def _spy_backend():
    be = SharedBackend(seed=0)
    return be, compiled_records(be)


def _diag_heavy(stream, q):
    stream.append(Op("rz", (q[0],), (0.3,)))
    stream.append(Op("cphase", (q[0], q[1]), (0.7,)))
    stream.append(Op("t", (q[1],)))
    stream.append(Op("h", (q[2],)))  # splits the run
    stream.append(Op("cz", (q[1], q[2])))
    stream.append(Op("crz", (q[2], q[0]), (0.4,)))
    stream.flush()


def test_stream_flush_emits_diag_batches():
    be, seen = _spy_backend()
    q = list(be.alloc(0, 3))
    st = OpStream(be, 0, fusion="auto")
    _diag_heavy(st, q)
    kinds = [type(o).__name__ for o in seen]
    assert kinds == ["DiagBatch", "Op", "DiagBatch"]


@pytest.mark.parametrize("mode", ["nodiag", "off"])
def test_nodiag_and_off_bypass_diag_batching(mode):
    with lowering(mode):
        be, seen = _spy_backend()
        q = list(be.alloc(0, 3))
        _diag_heavy(OpStream(be, 0, fusion=fusion_of(mode)), q)
    assert seen and not any(isinstance(o, DiagBatch) for o in seen)
    # same physics as the batched path
    ref = SharedBackend(seed=0)
    qr = list(ref.alloc(0, 3))
    _diag_heavy(OpStream(ref, 0, fusion="auto"), qr)
    np.testing.assert_allclose(
        be.statevector(q), ref.statevector(qr), atol=STATE_ATOL
    )


# ----------------------------------------------------------------------
# flush boundaries mid-batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_measurement_mid_diag_run_flushes(backend):
    def prog(qc):
        q = qc.alloc_qmem(2)
        qc.x(q[0])
        qc.z(q[0])  # buffered diagonal run on a |1> qubit
        qc.cz(q[0], q[1])
        bit = qc.measure(q[0])  # boundary: the batch must have applied
        assert qc.stream.pending == 0
        return bit

    w = qmpi_run(1, prog, seed=0, backend=backend)
    assert w.results == [1]


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_p2p_mid_diag_run_flushes(backend):
    # Rank 0 buffers diagonal phases, then sends: the receiver must see
    # the phased state, not the pre-batch one.
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 0:
            qc.h(q[0])
            qc.rz(q[0], math.pi / 2)  # buffered diagonal
            qc.send_move(q, 1)  # move: the state teleports intact
            return None
        t = qc.alloc_qmem(1)
        qc.recv_move(t, 0)
        # undo the phases and interfere back: H Rz(-pi/2) Rz(pi/2) H = I
        qc.rz(t[0], -math.pi / 2)
        qc.h(t[0])
        return qc.measure(t[0])

    w = qmpi_run(2, prog, seed=0, backend=backend)
    assert w.results[1] == 0


# ----------------------------------------------------------------------
# equivalence: diagonal-heavy programs across backends, modes and ranks
# ----------------------------------------------------------------------
def _ordered_alloc(qc, n=1):
    out = None
    for r in range(qc.size):
        if qc.rank == r:
            out = qc.alloc_qmem(n)
        qc.barrier()
    return out


def _diag_heavy_program(qc, seed):
    q = _ordered_alloc(qc, 3)
    rng = np.random.default_rng(seed + qc.rank)
    for q_i in q:
        qc.h(q_i)
    for _ in range(25):
        roll = rng.random()
        a, b = rng.choice(3, size=2, replace=False)
        if roll < 0.5:
            qc.cphase(q[a], q[b], float(rng.random()))
        elif roll < 0.7:
            qc.crz(q[a], q[b], float(rng.random()))
        elif roll < 0.8:
            qc.rz(q[a], float(rng.random()))
        elif roll < 0.9:
            qc.t(q[a])
        else:
            qc.h(q[a])  # occasional splitter
    qc.barrier()
    return list(q)


def _assert_same_up_to_phase(vec_a, vec_b, atol=DEEP_ATOL):
    pivot = int(np.argmax(np.abs(vec_a)))
    phase = vec_b[pivot] / vec_a[pivot]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(vec_a * phase, vec_b, atol=atol)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_diag_heavy_equivalence_across_modes(n_ranks):
    worlds = {}
    for bk in ("shared", "sharded"):
        for mode in ("auto", "nodiag", "off"):
            with lowering(mode):
                worlds[(bk, mode)] = qmpi_run(
                    n_ranks, _diag_heavy_program, args=(7,), seed=1,
                    backend=bk, fusion=fusion_of(mode),
                )
    ref_world = worlds[("shared", "off")]
    order = [q for block in ref_world.results for q in block]
    ref = ref_world.backend.statevector(order)
    for key, w in worlds.items():
        _assert_same_up_to_phase(ref, w.backend.statevector(order))


@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_qft_batched_matches_unbatched(backend):
    def prog(qc):
        q = qc.alloc_qmem(5)
        qc.x(q[1])
        qc.x(q[4])
        qft(qc, q)
        return list(q)

    batched = qmpi_run(1, prog, seed=0, backend=backend, fusion="auto")
    plain = qmpi_run(1, prog, seed=0, backend=backend, fusion="off")
    order = plain.results[0]
    np.testing.assert_allclose(
        batched.backend.statevector(order),
        plain.backend.statevector(order),
        rtol=0,
        atol=DEEP_ATOL,
    )


# ----------------------------------------------------------------------
# the doubling/DP materializer vs a naive pair-table reference
# ----------------------------------------------------------------------
def _naive_phase(singles, pairs, n_axes, ci=0):
    """Reference materializer: one full-size pass per table, no doubling."""
    out = np.ones((2,) * n_axes, dtype=np.complex128) if n_axes else np.ones(())
    idx = np.indices((2,) * n_axes) if n_axes else None

    def bitval(b):
        if b >= n_axes:
            return (ci >> (b - n_axes)) & 1
        return idx[n_axes - 1 - b]

    for b, t in singles:
        out = out * np.asarray(t)[bitval(b)]
    for (ba, bb), t in pairs:
        out = out * np.asarray(t).reshape(2, 2)[bitval(ba), bitval(bb)]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_axes", [1, 3, 6])
def test_dp_materializer_matches_naive_reference(seed, n_axes):
    from repro.sim.diag import chunk_phase

    rng = np.random.default_rng(seed)
    n_bits = n_axes + 2  # two shard-axis bits on top
    singles = [
        (int(b), np.exp(1j * rng.normal(size=2)))
        for b in rng.choice(n_bits, size=min(3, n_bits), replace=False)
    ]
    pairs = []
    for _ in range(4):
        a, b = (int(x) for x in rng.choice(n_bits, size=2, replace=False))
        pairs.append(((a, b), np.exp(1j * rng.normal(size=4))))
    for ci in range(4):
        got = chunk_phase(singles, pairs, n_axes, ci)
        want = _naive_phase(singles, pairs, n_axes, ci)
        np.testing.assert_allclose(
            np.broadcast_to(got, (2,) * n_axes), want, atol=STATE_ATOL
        )


def test_dp_materializer_all_distinct_pair_ladder():
    # The qft_ladder shape: every pair distinct, forced through the
    # wide-batch angle-accumulation path (>= 24 live parts).
    from repro.sim.diag import chunk_phase

    n_axes = 8
    rng = np.random.default_rng(7)
    pairs = [
        ((a, b), np.exp(1j * rng.normal(size=4)))
        for a in range(n_axes)
        for b in range(a + 1, n_axes)
    ]
    assert len(pairs) >= 24
    got = chunk_phase([], pairs, n_axes)
    want = _naive_phase([], pairs, n_axes)
    np.testing.assert_allclose(np.broadcast_to(got, (2,) * n_axes), want, atol=STATE_ATOL)


def test_dp_materializer_non_unit_tables_fall_back_exactly():
    # Non-unit-modulus entries (a non-unitary explicit diagonal) must
    # not ride the angle accumulator.
    from repro.sim.diag import chunk_phase

    rng = np.random.default_rng(3)
    n_axes = 8  # 28 unit pairs: the angle path runs, with one deferral
    singles = [(0, np.array([1.0, 0.5]))]  # non-unit
    pairs = [
        ((a, b), np.exp(1j * rng.normal(size=4)))
        for a in range(n_axes)
        for b in range(a + 1, n_axes)
    ]
    assert len(pairs) + len(singles) >= 24
    got = chunk_phase(singles, pairs, n_axes)
    want = _naive_phase(singles, pairs, n_axes)
    np.testing.assert_allclose(np.broadcast_to(got, (2,) * n_axes), want, atol=STATE_ATOL)
