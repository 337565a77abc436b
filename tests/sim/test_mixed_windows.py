"""Own-slice ``ShardedStateVector._apply_mixed`` vs the dense oracle.

A window that mixes h shard axes makes the 2^h chunks of each group
exchange all-to-all; every member then computes only its own slice,
``sum_src U[own, src] . chunk[src]`` over the window's local qubits,
staged slab by slab.  These tests pin that path against
``tests/_dense_oracle.py`` (which imports nothing from ``repro``): 3-
and 4-qubit windows with one and two shard qubits in every window
position, on 2/4/8 shards, both dtypes, with and without shot-branch
rows, chunks updated in place — plus a ``tracemalloc`` bound on the
transient footprint.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.qmpi import Op
from repro.sim import ShardedStateVector, sharded
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
