"""Sharded ``DiagBatch`` execution vs the dense oracle.

On the sharded engine a diagonal batch becomes one ``base`` phase table
over a slab's axes, built once, plus a small factor per group of slabs
with equal values of the higher bits (:func:`repro.sim.diag.slab_factors`);
each slab multiplies both in place.  These tests pin that path against
``tests/_dense_oracle.py`` (which imports nothing from ``repro``): ZZ
bonds straddling the local/shard boundary, shard-only tables, and a
shard-controlled phase whose extra collapses to identity on the chunks
with the control at 0 — on 2/4/8 shards, both dtypes, with and without
shot-branch rows — plus a ``tracemalloc`` check that a prepared batch
holds one slab-sized table however many signatures it has.
"""

import tracemalloc

import numpy as np
import pytest

from repro.qmpi import Op
from repro.sim import ShardedStateVector, StateVector, coalesce_diagonals, kernels
from repro.sim.diag import DiagBatch, slab_factors
from tests import _dense_oracle

N = 6
#: Named gates only, so the oracle replays them: every qubit entangled.
PREP = (
    [("ry", (q,), (0.3 + 0.4 * q,)) for q in range(N)]
    + [("cnot", (q, (q + 1) % N), ()) for q in range(N)]
    + [("rx", (q,), (1.1 - 0.2 * q,)) for q in range(N)]
)
ATOL = {"complex128": 1e-12, "complex64": 2e-6}
SHARDS = [2, 4, 8]


def _bonds(n_high):
    """A ZZ ring (bond ``n_high-1 -- n_high`` and the wrap bond straddle
    the boundary; qubits ``0..n_high-1`` sit on shard axes), single-qubit
    phases everywhere, and a shard-only pair when two shard axes exist."""
    ops = [("rzz", (q, (q + 1) % N), (0.3 + 0.2 * q,)) for q in range(N)]
    ops += [("rz", (q,), (0.1 + 0.15 * q,)) for q in range(N)]
    if n_high >= 2:
        ops.append(("cphase", (0, 1), (0.9,)))
    return ops


def _controlled(n_high):
    """Local phases plus one phase controlled from shard qubit 0: on the
    chunks where that bit is 0 the batch's extra is the identity."""
    return [
        ("rzz", (N - 2, N - 1), (0.4,)),
        ("rz", (N - 1,), (1.2,)),
        ("cphase", (0, N - 2), (1.3,)),
    ]


def _ladder(n_high):
    """A QFT-like phase ladder from the top qubit to every other one,
    plus one from every qubit to the last: on a slab of two bits every
    high bit keys a table on the slab bits."""
    ops = [("cphase", (0, q), (0.3 * q,)) for q in range(1, N)]
    ops += [("cphase", (q, N - 1), (0.2 + 0.1 * q,)) for q in range(1, N - 1)]
    return ops + [("rz", (1,), (0.7,))]


BATCHES = {"bonds": _bonds, "controlled": _controlled, "ladder": _ladder}


def _apply_gates(psi, gates):
    for name, qubits, params in gates:
        psi = _dense_oracle.embed(_dense_oracle.GATES[name](*params), qubits, N) @ psi
    return psi


def _batch(gates):
    ops = coalesce_diagonals([Op(*g) for g in gates])
    assert len(ops) == 1 and isinstance(ops[0], DiagBatch)
    return ops


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("n_shards", SHARDS)
def test_diag_batch_matches_dense_oracle(n_shards, batch, dtype):
    gates = BATCHES[batch](n_shards.bit_length() - 1)
    sv = ShardedStateVector(N, seed=0, n_shards=n_shards, dtype=dtype)
    sv.apply_ops([Op(*g) for g in PREP])
    sv.apply_ops(_batch(gates))
    want = _dense_oracle.run(N, PREP + gates)
    np.testing.assert_allclose(sv.statevector(), want, atol=ATOL[dtype])


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("n_shards", SHARDS)
def test_shot_branch_rows_ride_through_a_diag_batch(n_shards, batch, dtype):
    gates = BATCHES[batch](n_shards.bit_length() - 1)
    sv = ShardedStateVector(N, seed=3, n_shards=n_shards, dtype=dtype)
    sv.begin_shots(64)
    sv.apply_ops([Op(*g) for g in PREP])
    anc = N - 1
    bits = sv.measure(anc)  # forks: branch 0 <-> outcome 0, branch 1 <-> 1
    assert sv.n_branches == 2 and set(bits.values.tolist()) == {0, 1}
    sv.apply_ops(_batch(gates))
    psi0 = _dense_oracle.run(N, PREP)
    rows = np.concatenate(
        [sv.chunk(c).reshape(2, -1) for c in range(sv.num_chunks)], axis=1
    )
    keep = (np.arange(1 << N) >> (N - 1 - anc)) & 1
    for outcome in (0, 1):
        projected = np.where(keep == outcome, psi0, 0.0)
        projected /= np.linalg.norm(projected)
        np.testing.assert_allclose(
            rows[outcome], _apply_gates(projected, gates), atol=ATOL[dtype]
        )


@pytest.mark.parametrize("rows", [1, 2], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("engine", ["shared", "sharded:2", "sharded:4"])
def test_diag_batch_walks_many_slabs(monkeypatch, engine, batch, rows):
    # Slabs of 4 amplitudes: the high local bits join the shard bits in
    # the slab signatures, on both engines, with and without branch rows.
    monkeypatch.setattr(kernels, "TILE_AMPS", 4)
    n_shards = int(engine.partition(":")[2] or 1)
    gates = BATCHES[batch](n_shards.bit_length() - 1)
    if engine == "shared":
        sv = StateVector(N, seed=3, dtype="complex128")
    else:
        sv = ShardedStateVector(N, seed=3, n_shards=n_shards, dtype="complex128")
    if rows > 1:
        sv.begin_shots(64)
    sv.apply_ops([Op(*g) for g in PREP])
    psi0 = _dense_oracle.run(N, PREP)
    if rows > 1:
        anc = N - 1
        sv.measure(anc)  # forks: branch 0 <-> outcome 0, branch 1 <-> 1
        keep = (np.arange(1 << N) >> (N - 1 - anc)) & 1
        starts = [np.where(keep == o, psi0, 0.0) for o in (0, 1)]
        starts = [p / np.linalg.norm(p) for p in starts]
    else:
        starts = [psi0]
    sv.apply_ops(_batch(gates))
    if engine == "shared":
        got = [sv.statevector()] if rows == 1 else [
            np.moveaxis(sv._psi, [N - sv._bit_of[q] for q in range(N)], range(1, N + 1))[o].reshape(-1)
            for o in (0, 1)
        ]
    else:
        got = np.concatenate(
            [sv.chunk(c).reshape(rows, -1) for c in range(sv.num_chunks)], axis=1
        )
    for start, row in zip(starts, got):
        np.testing.assert_allclose(row, _apply_gates(start, gates), atol=ATOL["complex128"])


def _tables(sv, batch):
    """The batch's phase tables keyed by bit position (chunk layout)."""
    bit = sv._bit_of
    singles = [(bit[q], t) for q, t in batch.phases1.items()]
    pairs = [((bit[a], bit[b]), t) for (a, b), t in batch.phases2.items()]
    return singles, pairs


@pytest.mark.parametrize("n_shards", SHARDS)
def test_control_fixed_to_zero_leaves_no_extra(n_shards):
    sv = ShardedStateVector(N, seed=0, n_shards=n_shards)
    sv.layout_key(sv.qubit_ids)  # merge the pending qubits, qubit 0 on top
    (batch,) = _batch(_controlled(n_shards.bit_length() - 1))
    groups = list(slab_factors(*_tables(sv, batch), sv.n_local, n_shards))
    base = groups[0][0][0]
    assert base.size == 4  # rzz + rz over two local axes
    # Qubit 0 is the top shard bit: the chunks with it at 0 take the base
    # alone, the others the base and the cphase's target column.
    top = n_shards.bit_length() - 2
    for factors, members in groups:
        (control,) = {(ci >> top) & 1 for ci in members}
        assert factors[0] is base
        assert [f.size for f in factors[1:]] == ([] if control == 0 else [2])
    assert sorted(ci for _, members in groups for ci in members) == list(range(n_shards))


def test_prepared_batch_holds_one_local_table_for_every_signature():
    n, n_shards = 14, 8
    sv = ShardedStateVector(n, seed=0, n_shards=n_shards)
    sv.layout_key(sv.qubit_ids)  # merge the pending qubits
    nl = sv.n_local
    # Every qubit phased and bonded to its ring neighbours: the bonds
    # touch all three shard bits, so each chunk has its own signature.
    gates = [Op("rzz", (q, (q + 1) % n), (0.2 + 0.05 * q,)) for q in range(n)]
    gates += [Op("rz", (q,), (0.3 + 0.1 * q,)) for q in range(n)]
    (batch,) = coalesce_diagonals(gates)
    table = (1 << nl) * np.dtype(np.complex128).itemsize
    tables = _tables(sv, batch)
    list(slab_factors(*tables, nl, n_shards))  # warm lazily built state outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        groups = list(slab_factors(*tables, nl, n_shards))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    base = groups[0][0][0]
    assert base.size == 1 << nl  # one slab: the chunk is smaller than TILE_AMPS
    assert all(f[0] is base for f, _ in groups)
    assert sorted(ci for _, members in groups for ci in members) == list(range(n_shards))
    assert len({id(f[1]) for f, _ in groups}) == n_shards  # one extra per signature
    assert all(x.size <= 4 for f, _ in groups for x in f[1:])
    assert held < 1.5 * table  # one 2^nl table, not one per signature
