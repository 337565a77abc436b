"""The shared engine's dense steps through ``KernelDispatch.contract``.

Every dense step of :class:`~repro.sim.statevector.StateVector` — a
kernel-run op (a controlled one on the all-ones slice of its controls),
a contraction-plan window — is one in-place ``contract`` on the whole
state.  These tests
check the results against ``tests/_dense_oracle.py`` on windows of every
walk path, with and without shot-branch rows, in both dtypes; that a
window holds no state-sized scratch; and that every place that replaces
the state array leaves it C-contiguous, which the in-place kernels need.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import ShardedStateVector, StateVector, plan_contractions
from repro.sim import kernels as K
from repro.sim.gates import UNITARY
from repro.sim.ops import Op, controlled_unitary
from tests import _dense_oracle as oracle
from tests._precision import STATE_ATOL

N = 13

#: Window bit positions (first = most significant matrix bit): the
#: lowest bits in and out of order, adjacent runs from bit 8 up, and
#: scattered windows.
WINDOWS = (
    (0,), (1, 0), (0, 1), (3, 2, 1, 0), (2, 0, 3, 1),
    (9, 8), (11, 10, 9, 8), (8, 12),
    (5,), (12, 7, 3, 1), (1, 12, 3, 7), (6, 4),
)


def _unitary(rng, k):
    z = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _qubit(b):
    """The qubit on bit ``b``: ids merge in ascending order, so id = axis."""
    return N - 1 - b


def _ops(rng):
    """``(op, oracle matrix, oracle qubits)`` for one of each step kind."""
    out = []
    for bits in WINDOWS:
        u = _unitary(rng, len(bits))
        qs = tuple(_qubit(b) for b in bits)
        out.append((Op(UNITARY, qs, u=u), u, qs))
    # Controlled ops act on the all-ones slice of their controls.
    for name, qs, params in (
        ("cnot", (0, 12), ()),
        ("cnot", (7, 3), ()),
        ("toffoli", (12, 1, 6), ()),
        ("crz", (4, 9), (0.37,)),
        ("cz", (2, 11), ()),
    ):
        out.append((Op(name, qs, params), oracle.GATES[name](*params), qs))
    u = _unitary(rng, 1)
    op = controlled_unitary(u, (10, 2), (5,))
    out.append((op, oracle._controlled(oracle._controlled(u)), op.qubits))
    return out


def _engine(rows, dtype, rng):
    """An ``N``-qubit engine holding random rows (``rows=0``: no shot axis)."""
    sv = StateVector(N, seed=0, dtype=dtype)
    if rows:
        sv.begin_shots(8)
        sv._shot_of = np.arange(8) % rows
    sv.layout_key(range(N))
    assert all(sv._bit_of[q] == N - 1 - q for q in range(N))
    psi = rng.standard_normal((max(rows, 1), 1 << N)) + 1j * rng.standard_normal(
        (max(rows, 1), 1 << N)
    )
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    sv._psi = psi.astype(dtype).reshape((rows,) * (rows > 0) + (2,) * N)
    return sv, psi


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("rows", [0, 3], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("tile", [None, 64], ids=["one-slab", "tile64"])
def test_dense_steps_match_the_oracle(monkeypatch, dtype, rows, tile):
    if tile is not None:
        # Windows are frozen after this, so every path walks many slabs.
        monkeypatch.setattr(K, "TILE_AMPS", tile)
    rng = np.random.default_rng((38, rows))
    sv, psi = _engine(rows, dtype, rng)
    steps = _ops(rng)
    kd = sv._kernels
    calls = kd.counters["csel_hits"]
    sv.apply_ops([op for op, _, _ in steps])
    assert kd.counters["csel_hits"] - calls == len(steps)
    want = psi
    for _, u, qs in steps:
        want = np.stack([oracle.apply(row, u, qs, N) for row in want])
    got = sv._psi.reshape(len(want), -1)
    assert sv._psi.flags.c_contiguous
    tol = 1e-12 if dtype == "complex128" else 2e-5
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


@pytest.mark.parametrize("rows", [0, 3], ids=["flat", "shot-rows"])
def test_plan_windows_match_the_oracle(rows):
    rng = np.random.default_rng((39, rows))
    sv, psi = _engine(rows, "complex128", rng)
    ops = [Op("ry", (q,), (0.1 * q,)) for q in range(N)]
    ops += [Op("cnot", (q, q + 1)) for q in range(0, N - 1, 2)]
    ops += [Op("rx", (q,), (0.2 + q,)) for q in (12, 7, 3, 1)]
    lowered = plan_contractions(ops, max_window=4)
    assert any(type(rec).__name__ == "ContractionPlan" for rec in lowered)
    sv.apply_ops(lowered)
    want = psi
    for op in ops:
        m = oracle.GATES[op.gate](*op.params)
        want = np.stack([oracle.apply(row, m, op.qubits, N) for row in want])
    np.testing.assert_allclose(sv._psi.reshape(len(want), -1), want, rtol=0, atol=1e-12)


def test_one_window_holds_no_state_sized_scratch():
    n = 18
    sv = StateVector(n, seed=0)
    sv.layout_key(range(n))
    state = sv._psi.nbytes
    u = _unitary(np.random.default_rng(40), 4)
    # A scattered window: the staged path, the one that copies.
    op = Op(UNITARY, tuple(n - 1 - b for b in (12, 7, 3, 1)), u=u)
    sv.apply_ops([op])  # warm: first-call allocations are not the window's
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sv.apply_ops([op])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < state
    assert peak - before <= 3 * K.TILE_AMPS * sv._psi.itemsize


@pytest.mark.parametrize("engine", [StateVector, ShardedStateVector])
def test_many_controls_run_on_the_slice(engine):
    """``apply_controlled`` never builds the ``2^(c+t)`` controlled matrix.

    Ten controls on one target of a 12-qubit register: a dense
    controlled matrix would be 64 MiB, the state is 64 KiB.
    """
    n, controls, target = 12, (0, 1, 2, 3, 4, 6, 7, 8, 9, 11), 5
    rng = np.random.default_rng(41)
    sv = engine(n, seed=0)
    for q in range(n):
        sv.ry(q, float(rng.uniform(0.3, 2.8)))
    psi = sv.statevector(list(range(n)))
    u = _unitary(rng, 1)
    sv.apply_controlled(u, controls, (target,))  # warm: first-call allocations
    sv.apply_controlled(u.conj().T, controls, (target,))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sv.apply_controlled(u, controls, (target,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < psi.nbytes
    idx = np.arange(1 << n)
    on = np.all([(idx >> (n - 1 - q)) & 1 for q in controls], axis=0)
    want = np.where(on, oracle.apply(psi, u, (target,), n), psi)
    np.testing.assert_allclose(sv.statevector(list(range(n))), want, rtol=0, atol=STATE_ATOL)


def _contiguous(sv):
    return sv._psi.flags.c_contiguous


@pytest.mark.parametrize("shots", [None, 16], ids=["single", "shots"])
def test_state_stays_c_contiguous(shots):
    for ax_q in range(4):
        sv = StateVector(4, seed=ax_q)
        if shots:
            sv.begin_shots(shots)
            assert _contiguous(sv)
        for q in range(4):
            sv.h(q)
        assert _contiguous(sv)  # _merge
        sv.ry(ax_q, 0.4)
        sv.measure(ax_q)  # a fork in shots mode
        assert _contiguous(sv)
        a, b = sv.alloc(2)
        sv.entangle_fresh(a, b)
        sv.measure_and_release(a, "Z", control=(ax_q + 1) % 4)  # _fan_out
        assert _contiguous(sv)
        sv.measure_and_release((ax_q + 2) % 4, "X")  # h, then _drop
        assert _contiguous(sv)
        sv.measure_and_release(ax_q)  # _drop
        assert _contiguous(sv)
        (c,) = sv.alloc(1)
        sv.x(c)
        sv.x(c)
        sv.release(c)  # merged |0>: _drop
        assert _contiguous(sv)
        sv.h(b)  # gates still run in place on every such state
