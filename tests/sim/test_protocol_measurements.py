"""``measure_and_release(qubit, basis=, control=)``: the protocols' measurement.

The call is *defined* as ``cnot(control, qubit)`` if ``control`` is
given, ``h(qubit)`` if ``basis == "X"``, then the Z measure-and-release.
Both engines (their shared register layer) skip the gate on two operand
patterns (fan-out onto a pending Bell half; X-basis drop of the copy
entry a fan-out leaves) and compose existing methods on every other
one; each case below is checked against a twin engine running the
two-call spelling (outcome and RNG stream bit for bit, amplitudes to
rounding) and against ``tests/_dense_oracle.py`` projected on the
reported outcome — both precisions, with and without the shots branch
axis.  No timing: the guards at the bottom count store bits and traced
bytes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import SimulationError, StateVector
from repro.sim.sharded import ShardedStateVector
from tests import _dense_oracle
from tests._engines import ENGINES

DTYPES = ["complex128", "complex64"]
SHOTS = [None, 8]
ATOL = {"complex128": 1e-12, "complex64": 1e-5}
N = 4  # register qubits 0..3, entangled; fresh qubits get ids 4, 5, ...


@pytest.fixture(params=[(d, s) for d in DTYPES for s in SHOTS], ids=lambda p: f"{p[0]}-shots={p[1]}")
def mode(request):
    return request.param


def prepared(mode, seed, make=StateVector):
    """An engine in a seed-dependent entangled state, and the oracle gate list."""
    dtype, shots = mode
    sv = make(N, seed=seed, dtype=dtype)
    if shots is not None:
        sv.begin_shots(shots)
    angles = np.random.default_rng(seed).uniform(0.2, 2.9, size=N)
    gates = [("ry", [q], [float(t)]) for q, t in enumerate(angles)]
    gates += [("cnot", [q, q + 1], []) for q in range(N - 1)]
    gates += [("rx", [2], [0.3])]
    for name, qubits, params in gates:
        getattr(sv, name)(*qubits, *params)
    return sv, gates


def bell(sv, gates):
    a, b = sv.alloc(2)
    sv.entangle_fresh(a, b)
    gates += [("h", [a], []), ("cnot", [a, b], [])]
    return a, b


# Each case: (sv, gates, seed) -> (qubit, basis, control), extending
# ``gates`` by what it did to the engine.
def fan_out(sv, gates, seed):
    e, _ = bell(sv, gates)
    return e, "Z", seed % N


def x_drop(sv, gates, seed):
    return seed % N, "X", None


def fresh_target(sv, gates, seed):
    (e,) = sv.alloc(1)
    return e, "Z", seed % N


def merged_target(sv, gates, seed):
    return seed % N, "Z", (seed + 1) % N


def control_is_partner(sv, gates, seed):
    e, f = bell(sv, gates)
    return e, "Z", f


def control_is_pending(sv, gates, seed):
    e, _ = bell(sv, gates)
    g, _ = bell(sv, gates)  # the cat-state merge: both halves still factors
    return e, "Z", g


def x_on_fresh(sv, gates, seed):
    (e,) = sv.alloc(1)
    return e, "X", None


def x_on_bell_half(sv, gates, seed):
    e, _ = bell(sv, gates)
    return e, "X", None


def x_with_control(sv, gates, seed):
    return seed % N, "X", (seed + 2) % N


CASES = [
    fan_out, x_drop, fresh_target, merged_target, control_is_partner,
    control_is_pending, x_on_fresh, x_on_bell_half, x_with_control,
]  # fmt: skip


def two_call(sv, gates, qubit, basis, control):
    """The spelling the one call replaces; extends the oracle's gate list by it."""
    if control is not None:
        sv.cnot(control, qubit)
        gates.append(("cnot", [control, qubit], []))
    if basis == "X":
        sv.h(qubit)
        gates.append(("h", [qubit], []))
    return sv.measure_and_release(qubit)


def branch_rows(sv):
    """``(B, 2^n)`` amplitudes, qubits in ascending-id order, one row per branch."""
    ids = sv.qubit_ids
    sv.layout_key(ids)  # merges what is still pending
    B, n = sv.n_branches, len(ids)
    flat = np.concatenate([a.reshape(B, -1) for a in sv._arrays()], axis=1)
    axes = [n - sv._bit_of[q] for q in ids]  # bit b is axis n - b after the rows
    return np.moveaxis(flat.reshape((B,) + (2,) * n), axes, range(1, n + 1)).reshape(B, -1)


def projected(gates, n, index):
    """The oracle's state after ``gates`` with qubit ``index`` measured and
    removed: one normalised row per outcome."""
    psi = np.moveaxis(_dense_oracle.run(n, gates).reshape((2,) * n), index, 0).reshape(2, -1)
    return psi / np.maximum(np.linalg.norm(psi, axis=1, keepdims=True), 1e-300)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_equals_the_two_call_spelling_and_the_oracle(mode, case, engine):
    make = ENGINES[engine]
    for seed in range(200 if engine == "shared" else 24):
        one, gates = prepared(mode, seed, make)
        two, _ = prepared(mode, seed, make)
        qubit, basis, control = case(one, gates, seed)
        assert case(two, [], seed) == (qubit, basis, control)
        n = one.num_qubits

        got = one.measure_and_release(qubit, basis=basis, control=control)
        want = two_call(two, gates, qubit, basis, control)

        assert np.array_equal(np.asarray(got), np.asarray(want))
        assert one.rng.random() == two.rng.random()
        assert one.qubit_ids == two.qubit_ids and qubit not in one.qubit_ids
        assert {a.dtype for a in one._arrays() + two._arrays()} == {np.dtype(mode[0])}
        rows = branch_rows(one)
        assert np.allclose(rows, branch_rows(two), atol=ATOL[mode[0]])
        if seed < 6:  # the kron-built oracle is the slow part
            bits = np.broadcast_to(np.asarray(got), (mode[1] or 1,))
            shot_of = one._shot_of if mode[1] else np.zeros(1, dtype=int)
            want_rows = projected(gates, n, qubit)[bits]  # one per shot
            assert np.allclose(rows[shot_of], want_rows, atol=ATOL[mode[0]])


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_send_then_uncopy_round_matches_step_by_step(mode, engine):
    """Fig. 3(a) then Fig. 1(b) on one engine: fan-out, X fix, X-basis uncopy, Z fix."""
    make = ENGINES[engine]
    for seed in range(50 if engine == "shared" else 12):
        one, _ = prepared(mode, seed, make)
        two, _ = prepared(mode, seed, make)
        q = seed % N
        e, f = bell(one, [])
        assert bell(two, []) == (e, f)
        m1 = one.measure_and_release(e, control=q)
        m2 = two_call(two, [], e, "Z", q)
        assert np.array_equal(np.asarray(m1), np.asarray(m2))
        for sv, m in ((one, m1), (two, m2)):
            sv.apply_pauli_if(m, "X", f)
        x1 = one.measure_and_release(f, basis="X")
        x2 = two_call(two, [], f, "X", None)
        assert np.array_equal(np.asarray(x1), np.asarray(x2))
        for sv, x in ((one, x1), (two, x2)):
            sv.apply_pauli_if(x, "Z", q)
        assert np.allclose(branch_rows(one), branch_rows(two), atol=ATOL[mode[0]])
        assert one.rng.random() == two.rng.random()


@pytest.mark.parametrize("make", [StateVector, ShardedStateVector])
def test_operands_are_validated(make):
    sv = make(2, seed=0)
    with pytest.raises(ValueError, match="basis"):
        sv.measure_and_release(0, basis="Y")
    with pytest.raises(SimulationError, match="overlap"):
        sv.measure_and_release(0, control=0)
    with pytest.raises(SimulationError, match="unknown qubit"):
        sv.measure_and_release(0, control=7)
    with pytest.raises(SimulationError, match="unknown qubit"):
        sv.measure_and_release(7, basis="X")
    assert sv.qubit_ids == (0, 1)


def test_x_measurement_of_an_impossible_outcome_raises():
    class Zero:
        def random(self):
            return 0.0  # below any p1 > 0: forces outcome 1

    sv = StateVector(1, dtype="complex128")
    sv.h(0)
    sv.ry(0, 1e-13)  # P(X = 1) ~ 2.5e-27: positive, below the norm floor squared
    sv.rng = Zero()
    with pytest.raises(SimulationError, match="zero probability"):
        sv.measure_and_release(0, basis="X")


# ----------------------------------------------------------------------
# deterministic guards (counts, not clocks)
# ----------------------------------------------------------------------
def test_fan_out_never_materialises_the_measured_half():
    """alloc, alloc, entangle, measure_and_release(e, control=q) at 16 qubits.

    Neither half becomes an axis: the measured one is gone and the copy
    is a copy entry, so the fan-out allocates nothing state-sized (the
    two-call spelling's 4x merge and controlled pass read 8 registers).
    The X-basis drop of the copy stays under one register (``h`` made a
    second full one).
    """
    tracemalloc.start()
    try:
        sv = StateVector(16, seed=5, dtype="complex128")
        for q in range(16):
            sv.h(q)
        register = sv.chunk(0).nbytes
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        e, f = sv.alloc(2)
        sv.entangle_fresh(e, f)
        m = sv.measure_and_release(e, control=3)
        fan_out_peak = tracemalloc.get_traced_memory()[1]
        assert sv.store_qubits == 16 and e not in sv._bit_of and f not in sv._bit_of
        assert sv._copies == {f: (3, m)} and sv.num_qubits == 17
        sv.apply_pauli_if(m, "X", f)
        before_drop = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sv.measure_and_release(f, basis="X")
        drop_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sv.store_qubits == 16
    assert (fan_out_peak - start) / register <= 0.01
    assert (drop_peak - before_drop) / register <= 1.1
