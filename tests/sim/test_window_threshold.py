"""The window threshold: which kernel a chunk-local single-target entry runs.

The store freezes a chunk-local ``"sq"`` / ``"cc"`` entry as one
``contract`` window (step tag ``"k"``) on chunks under
``repro.sim.sharded._WINDOW_BELOW_AMPS`` amplitudes, and as the strided
pass from there on, deciding from ``2^n_local`` alone.  These tests run
registers just below and at the threshold, on one chunk and on two:
against ``tests/_dense_oracle.py``, across the numpy and native kernel
arms (bit for bit), and with 1 024 shot-branch rows (the same kernel per
step as without rows).
"""

import numpy as np
import pytest

from repro.sim import ShardedStateVector, StateVector, sharded
from repro.sim.kernels import provider_name
from repro.sim.ops import Op
from tests import _dense_oracle as oracle
from tests._kernels import dispatch
from tests._precision import STATE_ATOL

#: ``n_local`` of a chunk at the threshold.
AT = sharded._WINDOW_BELOW_AMPS.bit_length() - 1
SIDES = {"below": AT - 1, "at": AT}
ENGINES = {"one-chunk": 1, "two-chunks": 2}


def _gates(n):
    """A layer of every single-target kind, dense and monomial, controlled or not."""
    return (
        [("h", (q,), ()) for q in range(n)]
        + [("ry", (q,), (0.2 + 0.1 * q,)) for q in range(0, n, 3)]
        + [("rz", (n - 1,), (0.7,)), ("t", (1,), ())]
        + [("cnot", (q, q + 1), ()) for q in range(0, n - 1, 4)]
        + [("crz", (n - 1, 2), (1.1,)), ("toffoli", (2, n - 1, 4), ())]
        + [("swap", (1, n - 2), ())]
    )


def _engine(side, chunks, shots=None):
    n_local = SIDES[side]
    n = n_local + chunks.bit_length() - 1
    if chunks == 1:
        sv = StateVector(n, seed=0)
    else:
        sv = ShardedStateVector(n, seed=0, n_shards=chunks)
    if shots:
        sv.begin_shots(shots)
    sv.layout_key(range(n))  # qubit 0 on top, every chunk at full size
    assert sv.n_local == n_local
    return sv, n


def _tags(sv, ops):
    """Chunk 0's step tags of the frozen program, in order."""
    program = sv.freeze_segments(sv.compile_batch(ops))
    return [
        step[0]
        for kind, *rest in program
        if kind == "stretch"
        for fold, payload in rest[0]
        if fold == "run"
        for step in payload[0]
    ]


@pytest.mark.parametrize("chunks", ENGINES.values(), ids=ENGINES)
@pytest.mark.parametrize("side", SIDES)
def test_each_side_matches_the_oracle(side, chunks):
    sv, n = _engine(side, chunks)
    gates = _gates(n)
    ops = [Op(*g) for g in gates]
    tags = _tags(sv, ops)
    if side == "below":
        assert tags and set(tags) == {"k"}
    else:  # the swap stays a window
        assert set(tags) == {"sq", "cc", "k"} and tags.count("k") == 1
    sv.apply_ops(ops)
    want = np.zeros(1 << n, dtype=complex)
    want[0] = 1
    for name, qs, params in gates:  # block by block: 2^n x 2^n would not fit
        want = oracle.apply(want, oracle.GATES[name](*params), qs, n)
    np.testing.assert_allclose(sv.statevector(list(range(n))), want, rtol=0, atol=STATE_ATOL)


@pytest.mark.parametrize("chunks", ENGINES.values(), ids=ENGINES)
@pytest.mark.parametrize("side", SIDES)
def test_numpy_and_native_arms_agree_bitwise(side, chunks):
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    states = []
    for arm in ("numpy", "native"):
        with dispatch(arm):
            sv, n = _engine(side, chunks)
        sv.apply_ops([Op(*g) for g in _gates(n)])
        states.append((sv.statevector(list(range(n))), sv._kernels.counters["jit_hits"]))
    (numpy_psi, numpy_hits), (native_psi, native_hits) = states
    assert numpy_hits == 0
    # Below the threshold no step is a strided pass, so nothing goes native.
    assert (native_hits > 0) == (side == "at")
    assert np.array_equal(numpy_psi.view(np.float64), native_psi.view(np.float64))


@pytest.mark.parametrize("chunks", ENGINES.values(), ids=ENGINES)
@pytest.mark.parametrize("side", SIDES)
def test_shot_rows_freeze_the_same_kernels(side, chunks):
    plain, n = _engine(side, chunks)
    rows, _ = _engine(side, chunks, shots=1024)
    rows._shot_of = np.arange(1024)
    rows._rebuild([np.zeros((1024, c.size), dtype=c.dtype) for c in rows._arrays()])
    assert rows.n_branches == 1024 and rows.chunk(0).size == 1024 << SIDES[side]
    ops = [Op(*g) for g in _gates(n)]
    assert _tags(rows, ops) == _tags(plain, ops)
