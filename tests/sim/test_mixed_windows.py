"""Own-slice ``ShardedStateVector._apply_mixed`` vs the dense oracle.

A window that mixes h shard axes makes the 2^h chunks of each group
exchange all-to-all; every member then computes only its own slice,
``sum_src U[own, src] . chunk[src]`` over the window's local qubits,
staged slab by slab.  These tests pin that path against
``tests/_dense_oracle.py`` (which imports nothing from ``repro``): 3-
and 4-qubit windows with one and two shard qubits in every window
position, on 2/4/8 shards, both dtypes, with and without shot-branch
rows, chunks updated in place — plus a ``tracemalloc`` bound on the
transient footprint.  The pair exchange (with and without controls) is
pinned the same way over many small slabs, and the last section bounds
every engine step that once built a chunk- or state-sized temporary.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.qmpi import Op
from repro.sim.ops import controlled_unitary
from repro.sim import ShardedStateVector, StateVector, coalesce_diagonals, kernels, sharded
from repro.sim.diag import DiagBatch
from tests import _dense_oracle
from tests._precision import PROB_ABS

N = 6
#: Named gates only, so the oracle replays them: every qubit entangled.
PREP = (
    [("ry", (q,), (0.3 + 0.4 * q,)) for q in range(N)]
    + [("cnot", (q, (q + 1) % N), ()) for q in range(N)]
    + [("rx", (q,), (1.1 - 0.2 * q,)) for q in range(N)]
)
ATOL = {"complex128": 1e-12, "complex64": 2e-6}


def _random_unitary(k, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    return np.linalg.qr(m)[0]


def _prepared(n_shards, dtype):
    sv = ShardedStateVector(N, seed=0, n_shards=n_shards, dtype=dtype)
    sv.apply_ops([Op(*g) for g in PREP])
    return sv


def _windows(n_shards):
    """3-/4-qubit windows with h = 1, 2 shard qubits in every window position."""
    n_high = n_shards.bit_length() - 1  # qubits 0..n_high-1 are the shard axes
    out = []
    for k, h in itertools.product((3, 4), (1, 2)):
        if h > n_high:
            continue
        # The *last* shard qubits, so with n_high > h some shard bits
        # stay outside the window (several groups); local qubits fill
        # the remaining slots out of bit order.
        high = list(range(n_high - h, n_high))
        local = [n_high, N - 1, n_high + 1][: k - h]
        for slots in itertools.permutations(range(k), h):
            window = [None] * k
            for slot, q in zip(slots, high):
                window[slot] = q
            rest = iter(local)
            out.append(tuple(q if q is not None else next(rest) for q in window))
    return out


@pytest.mark.parametrize("n_shards,n_windows", [(2, 3 + 4), (4, 25), (8, 25)])
def test_every_window_position_matches_the_oracle(n_shards, n_windows):
    psi0 = _dense_oracle.run(N, PREP)
    windows = _windows(n_shards)
    assert len(windows) == n_windows
    for seed, window in enumerate(windows):
        u = _random_unitary(len(window), seed)
        expected = _dense_oracle.embed(u, window, N) @ psi0
        for dtype, atol in ATOL.items():
            sv = _prepared(n_shards, dtype)
            sv.apply(u, *window)
            np.testing.assert_allclose(
                sv.statevector(), expected, atol=atol,
                err_msg=f"sharded:{n_shards} {dtype} window {window}",
            )


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("n_shards,window", [
    (4, (1, 3, 0)),  # h = 2, one local qubit
    (4, (4, 0, 2, 1)),  # h = 2, two local qubits
    (8, (2, 5, 3, 1)),  # h = 2 of three shard bits: two groups
    (2, (3, 0, 4)),  # h = 1
])
def test_shot_branch_rows_ride_through_a_mixed_window(dtype, n_shards, window):
    sv = ShardedStateVector(N, seed=3, n_shards=n_shards, dtype=dtype)
    sv.begin_shots(64)
    sv.apply_ops([Op(*g) for g in PREP])
    anc = N - 1 if N - 1 not in window else N - 2
    assert anc not in window
    bits = sv.measure(anc)  # forks: branch 0 <-> outcome 0, branch 1 <-> 1
    assert sv.n_branches == 2 and set(bits.values.tolist()) == {0, 1}
    u = _random_unitary(len(window), 11)
    sv.apply(u, *window)
    psi0 = _dense_oracle.run(N, PREP)
    full = _dense_oracle.embed(u, window, N)
    rows = np.concatenate(
        [sv.chunk(c).reshape(2, -1) for c in range(sv.num_chunks)], axis=1
    )
    keep = (np.arange(1 << N) >> (N - 1 - anc)) & 1
    for outcome in (0, 1):
        projected = np.where(keep == outcome, psi0, 0.0)
        projected /= np.linalg.norm(projected)
        np.testing.assert_allclose(rows[outcome], full @ projected, atol=ATOL[dtype])


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
def test_mixed_windows_update_chunks_in_place(dtype):
    sv = _prepared(4, dtype)
    backing = [sv.chunk(c) for c in range(4)]
    psi = _dense_oracle.run(N, PREP)
    for seed, window in enumerate([(0, 3, 1), (5, 1, 2, 0), (2, 1, 4)]):
        u = _random_unitary(len(window), seed)
        sv.apply(u, *window)
        psi = _dense_oracle.embed(u, window, N) @ psi
    np.testing.assert_allclose(sv.statevector(), psi, atol=ATOL[dtype])
    assert all(sv.chunk(c) is backing[c] for c in range(4))


def test_transient_peak_of_a_two_shard_axis_window_stays_under_one_register():
    n = 16
    sv = ShardedStateVector(n, seed=0, n_shards=4)
    sv.apply_ops([Op("h", (q,)) for q in range(n)])
    register = sum(sv.chunk(c).nbytes for c in range(4))
    u = _random_unitary(4, 5)
    window = (7, 0, 12, 1)  # both shard axes + two local qubits
    sv.apply(u, *window)  # warm any lazily built state outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sv.apply(u, *window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # One chunk of staged copies plus one product — never a group tensor.
    assert peak < register / 2
    assert abs(sv.norm() - 1.0) < PROB_ABS


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_mixed_windows_walk_many_slabs(monkeypatch, n_shards):
    # A tile of 4 amplitudes fixes every free local bit it can: each
    # slab's stage is a few amplitudes per member.
    monkeypatch.setattr(sharded, "TILE_AMPS", 4)
    for seed, window in enumerate(_windows(n_shards)):
        sv = _prepared(n_shards, "complex128")
        u = _random_unitary(len(window), seed)
        sv.apply(u, *window)
        expected = _dense_oracle.embed(u, window, N) @ _dense_oracle.run(N, PREP)
        np.testing.assert_allclose(
            sv.statevector(), expected, atol=ATOL["complex128"], err_msg=f"window {window}"
        )


def test_transient_of_a_mixed_window_is_tile_bounded_not_chunk_sized():
    n = 18
    sv = ShardedStateVector(n, seed=0, n_shards=4)
    sv.apply_ops([Op("h", (q,)) for q in range(n)])
    chunk = sv.chunk(0).nbytes
    assert sharded.TILE_AMPS * sv.chunk(0).itemsize < chunk
    u = _random_unitary(4, 5)
    window = (7, 0, 12, 1)  # both shard axes + two local qubits
    sv.apply(u, *window)  # warm any lazily built state outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sv.apply(u, *window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # A TILE_AMPS stage plus its product (a quarter of it here): under
    # one chunk, where a chunk-sized stage alone would reach it.
    assert peak < chunk
    assert abs(sv.norm() - 1.0) < PROB_ABS


@pytest.mark.parametrize("rows", [1, 2], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_pair_exchanges_walk_many_slabs(monkeypatch, n_shards, rows):
    # Slabs of 4 amplitudes: the pair exchange, with and without local
    # and shard-axis controls, combines each pair slab by slab.
    monkeypatch.setattr(kernels, "TILE_AMPS", 4)
    top = n_shards.bit_length() - 2  # qubits 0..top are the shard axes
    gates = [("h", (q,), ()) for q in range(top + 1)]
    gates += [("cnot", (N - 1, top), ()), ("toffoli", (2, N - 2, 0), ())]
    if top:
        gates += [("cnot", (0, top), ()), ("toffoli", (top, N - 1, 0), ())]
    gates += [("ry", (top,), (0.7,)), ("x", (0,), ())]
    sv = ShardedStateVector(N, seed=3, n_shards=n_shards, dtype="complex128")
    psi0 = _dense_oracle.run(N, PREP)
    starts = [psi0]
    if rows > 1:
        sv.begin_shots(64)
    sv.apply_ops([Op(*g) for g in PREP])
    if rows > 1:
        anc = 3
        sv.measure(anc)  # forks: branch 0 <-> outcome 0, branch 1 <-> 1
        keep = (np.arange(1 << N) >> (N - 1 - anc)) & 1
        starts = [np.where(keep == o, psi0, 0.0) for o in (0, 1)]
        starts = [p / np.linalg.norm(p) for p in starts]
    sv.apply_ops([Op(*g) for g in gates])
    got = np.concatenate([sv.chunk(c).reshape(rows, -1) for c in range(sv.num_chunks)], axis=1)
    for start, row in zip(starts, got):
        want = start
        for name, qubits, params in gates:
            want = _dense_oracle.embed(_dense_oracle.GATES[name](*params), qubits, N) @ want
        np.testing.assert_allclose(row, want, atol=ATOL["complex128"])


# ----------------------------------------------------------------------
# Every engine step runs in slab-sized scratch: tracemalloc bounds on the
# steps that once built a chunk- or state-sized temporary, each checked
# against tests/_dense_oracle.py.  At 19 qubits on 2 shards a chunk
# (2^18 amplitudes) spans eight TILE_AMPS slabs, so a step that stays
# under half a chunk holds at most a few slabs.
# ----------------------------------------------------------------------
BIG_N, BIG_SHARDS = 19, 2
#: Distinct ry angles: a product state every tested gate changes.
BIG_PREP = [("ry", (q,), (0.2 + 0.13 * q,)) for q in range(BIG_N)]
#: A ring of rzz bonds over every qubit: it touches every slab bit, every
#: high local bit and the shard bit.
RING = [("rzz", (q, (q + 1) % BIG_N), (0.3 + 0.07 * q,)) for q in range(BIG_N)]


def _oracle(gates, n=BIG_N):
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for name, qubits, params in gates:
        psi = _dense_oracle.apply(psi, _dense_oracle.GATES[name](*params), qubits, n)
    return psi


def _big(engine="sharded"):
    if engine == "sharded":
        sv = ShardedStateVector(BIG_N, seed=0, n_shards=BIG_SHARDS, dtype="complex128")
    else:
        sv = StateVector(BIG_N, seed=0, dtype="complex128")
    sv.apply_ops([Op(*g) for g in BIG_PREP])  # merges every qubit, qubit 0 on top
    assert engine == "shared" or sv.chunk(0).size > sharded.TILE_AMPS
    return sv


def _traced_peak(step):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("gates", [
    [("rx", (0,), (0.4,)), ("h", (0,), ())],  # one-qubit gate on the shard axis
    [("cnot", (5, 0), ()), ("cnot", (9, 0), ())],  # cnot targeting the shard axis
    [("cnot", (2, 11), ()), ("cnot", (3, 7), ())],  # locally controlled cc (numpy only)
], ids=["shard_axis_h", "shard_target_cnot", "local_cc"])
def test_sharded_step_transient_stays_under_half_a_chunk(gates):
    sv = _big()
    chunk = sv.chunk(0).nbytes
    (warm, gate) = [Op(*g) for g in gates]
    sv.apply_ops([warm])  # warm any lazily built state outside the trace
    peak = _traced_peak(lambda: sv.apply_ops([gate]))
    np.testing.assert_allclose(
        sv.statevector(), _oracle(BIG_PREP + gates), atol=ATOL["complex128"]
    )
    assert peak < chunk / 2


_XX = np.kron(*[_dense_oracle.GATES["x"]()] * 2)
#: Monomial windows, each a warm-up and a traced step: their slices
#: move through one slab of scratch (high bits) or one slab of rows
#: (low bits), never a chunk-sized temporary.
MONOMIAL_STEPS = {
    "swap_slices": [("swap", (4, 12)), ("swap", (3, 11))],
    "swap_rows": [("swap", (15, 18)), ("swap", (14, 17))],
    # Two targets under a control: a "ct" window on the sharded engine.
    "controlled_x_slices": [("cxx", (2, 9, 16)), ("cxx", (5, 10, 13))],
    "controlled_x_rows": [("cxx", (17, 15, 18)), ("cxx", (18, 14, 16))],
}


@pytest.mark.parametrize("engine", ["shared", "sharded"])
@pytest.mark.parametrize("case", sorted(MONOMIAL_STEPS))
def test_monomial_window_transient_stays_under_half_a_chunk(engine, case):
    sv = _big(engine)
    chunk = ((1 << BIG_N) // BIG_SHARDS) * np.dtype(np.complex128).itemsize
    ops, psi = [], _oracle(BIG_PREP)
    for name, qubits in MONOMIAL_STEPS[case]:
        if name == "cxx":
            ops.append(controlled_unitary(_XX, qubits[:1], qubits[1:]))
            u = _dense_oracle._controlled(_XX)
        else:
            ops.append(Op(name, qubits))
            u = _dense_oracle.GATES[name]()
        psi = _dense_oracle.apply(psi, u, qubits, BIG_N)
    hits = sv._kernels.counters["monomial_hits"]
    sv.apply_ops(ops[:1])  # warm any lazily built state outside the trace
    peak = _traced_peak(lambda: sv.apply_ops(ops[1:]))
    np.testing.assert_array_equal(sv.statevector(), psi)
    assert sv._kernels.counters["monomial_hits"] > hits
    assert peak < chunk / 2


@pytest.mark.parametrize("engine", ["shared", "sharded"])
def test_wide_diag_batch_transient_stays_slab_sized(engine):
    sv = _big(engine)
    (warm,) = coalesce_diagonals([Op("rzz", (q, q + 1), (0.1,)) for q in range(BIG_N - 1)])
    (ring,) = coalesce_diagonals([Op(*g) for g in RING])
    assert isinstance(ring, DiagBatch)
    sv.apply_ops([warm])  # warm any lazily built state outside the trace
    peak = _traced_peak(lambda: sv.apply_ops([ring]))
    warm_gates = [("rzz", (q, q + 1), (0.1,)) for q in range(BIG_N - 1)]
    np.testing.assert_allclose(
        sv.statevector(), _oracle(BIG_PREP + warm_gates + RING), atol=ATOL["complex128"]
    )
    if engine == "shared":
        assert peak < 2 * sharded.TILE_AMPS * np.dtype(np.complex128).itemsize
    else:
        assert peak < sv.chunk(0).nbytes / 2


def test_merging_a_fresh_register_peaks_at_the_register():
    register = (1 << BIG_N) * np.dtype(np.complex128).itemsize
    sv = ShardedStateVector(BIG_N, n_shards=4, dtype="complex128")
    peak = _traced_peak(lambda: sv.layout_key(sv.qubit_ids))
    assert sv.num_chunks == 4 and peak < 1.1 * register


@pytest.mark.parametrize("n_shards", [1, 4])
def test_alloc_on_a_live_register_peaks_below_new_plus_old(n_shards):
    n, k = 14, 3
    sv = ShardedStateVector(n, seed=0, n_shards=n_shards, dtype="complex128")
    prep = [("ry", (q,), (0.2 + 0.13 * q,)) for q in range(n)]
    sv.apply_ops([Op(*g) for g in prep])
    old = sum(sv.chunk(c).nbytes for c in range(sv.num_chunks))
    peak = _traced_peak(lambda: sv.layout_key(sv.alloc(k)))  # alloc, then merge
    # The fresh qubits are |0> below the old ones.
    np.testing.assert_allclose(
        sv.statevector(), _oracle(prep, n + k), atol=ATOL["complex128"]
    )
    assert peak < (old << k) + old
