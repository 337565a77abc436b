"""Fresh qubits as pending product factors, on both engines.

``alloc`` records a |0> (``entangle_fresh`` a Bell factor) without
touching the store; the factor is merged by the first call that couples
it to the register, and ``measure_and_release`` keeps the chosen half.
Expected states come from ``tests/_dense_oracle.py`` (no ``repro``
import); every case runs in both precisions, with and without the shots
branch axis, on the shared store and on the sharded store with one and
four chunks.  No timing anywhere: the guards at the bottom count array
identity and traced bytes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import SimulationError
from tests import _dense_oracle
from tests._engines import ENGINES, same_store, store

DTYPES = ["complex128", "complex64"]
SHOTS = [None, 8]
ATOL = {"complex128": 1e-12, "complex64": 1e-5}


@pytest.fixture(
    params=[(d, s, e) for d in DTYPES for s in SHOTS for e in sorted(ENGINES)],
    ids=lambda p: f"{p[0]}-shots={p[1]}-{p[2]}",
)
def mode(request):
    return request.param


@pytest.fixture(params=sorted(ENGINES))
def make(request):
    return ENGINES[request.param]


def engine(mode, n_qubits=0, seed=0):
    dtype, shots, name = mode
    sv = ENGINES[name](n_qubits, seed=seed, dtype=dtype)
    if shots is not None:
        sv.begin_shots(shots)
    return sv


def assert_state(sv, mode, gates):
    """The engine's state, ids ascending, equals the oracle's after ``gates``."""
    want = _dense_oracle.run(sv.num_qubits, gates)
    assert np.allclose(sv.statevector(), want, atol=ATOL[mode[0]])


def test_alloc_release_untouched(mode):
    sv = engine(mode, 2)
    sv.ry(0, 0.4)
    sv.cnot(0, 1)
    psi = store(sv)
    ids = sv.alloc(3)
    assert (sv.num_qubits, sv.qubit_ids) == (5, (0, 1, 2, 3, 4))
    for q in ids:
        sv.release(q)
    assert same_store(sv, psi)
    assert (sv.num_qubits, sv.qubit_ids) == (2, (0, 1))
    with pytest.raises(SimulationError, match="unknown qubit"):
        sv.release(ids[0])


def test_measuring_a_fresh_qubit_returns_zero_and_draws_once(mode):
    sv = engine(mode, 1, seed=11)
    sv.h(0)
    psi = store(sv)
    (q,) = sv.alloc(1)
    assert int(sv.measure(q)) == 0
    (r,) = sv.alloc(1)
    assert int(sv.measure_and_release(r)) == 0
    assert same_store(sv, psi) and sv.qubit_ids == (0, q)
    twin = np.random.default_rng(11)
    for _ in range(2):
        twin.random(mode[1])  # one draw (one per shot) per measurement
    assert sv.rng.random() == twin.random()


def test_bell_factor_then_gate_on_one_half(mode):
    sv = engine(mode, 2)
    sv.ry(0, 0.3)
    sv.cnot(0, 1)
    psi = store(sv)
    a, b = sv.alloc(2)
    sv.entangle_fresh(a, b)
    assert same_store(sv, psi)
    sv.ry(b, 0.7)  # couples the factor: both halves become axes
    gates = [("ry", [0], [0.3]), ("cnot", [0, 1], []), ("h", [2], []), ("cnot", [2, 3], [])]
    assert_state(sv, mode, gates + [("ry", [3], [0.7])])


@pytest.mark.parametrize("touched", ["first", "second"])
def test_entangle_fresh_falls_back_on_a_touched_qubit(mode, touched):
    sv = engine(mode, 1)
    sv.h(0)
    a, b = sv.alloc(2)
    hit = a if touched == "first" else b
    sv.x(hit)
    sv.entangle_fresh(a, b)
    gates = [("h", [0], []), ("x", [hit], []), ("h", [a], []), ("cnot", [a, b], [])]
    assert_state(sv, mode, gates)


def test_releasing_a_pending_bell_half_raises(mode):
    sv = engine(mode)
    a, b = sv.alloc(2)
    sv.entangle_fresh(a, b)
    with pytest.raises(SimulationError, match="entangled"):
        sv.release(a)
    assert sv.qubit_ids == (a, b)
    assert_state(sv, mode, [("h", [0], []), ("cnot", [0, 1], [])])


def test_statevector_default_order_is_allocation_order(mode):
    sv = engine(mode, 5)
    sv.x(3)  # merged first: axis order is 3, 1, then the rest
    sv.ry(1, 0.9)
    assert sv.qubit_ids == (0, 1, 2, 3, 4)
    gates = [("x", [3], []), ("ry", [1], [0.9])]
    assert_state(sv, mode, gates)
    want = _dense_oracle.run(5, gates).reshape((2,) * 5).transpose(4, 0, 3, 1, 2).reshape(-1)
    assert np.allclose(sv.statevector([4, 0, 3, 1, 2]), want, atol=ATOL[mode[0]])
    assert abs(sv.amplitude([0, 1, 0, 1, 0]) - want.reshape((2,) * 5)[0, 0, 1, 1, 0]) < 1e-6


def test_layout_key_merges_touched_qubits_and_rejects_unknown_ids(mode):
    sv = engine(mode, 3)
    with pytest.raises(SimulationError, match="unknown qubit"):
        sv.layout_key([7, 0])
    key = sv.layout_key([2, 0])
    assert key[1] == (0, 1) and sv.store_qubits == 2  # 1 still pending
    assert sv.layout_key([2, 0]) == key


def test_prob_one_postselect_and_expectation_see_pending_qubits(mode):
    sv = engine(mode)
    a, b, c = sv.alloc(3)
    sv.entangle_fresh(a, b)
    assert float(sv.prob_one(c)) == 0.0
    assert float(sv.prob_one(a)) == pytest.approx(0.5, abs=1e-6)
    assert sv.expectation_pauli({a: "Z", b: "Z"}) == pytest.approx(1.0, abs=1e-6)
    sv.postselect(b, 1)
    assert float(sv.prob_one(a)) == pytest.approx(1.0, abs=1e-6)
    assert sv.norm() == pytest.approx(1.0, abs=1e-6)


def test_copy_and_begin_shots_keep_pending_factors(make):
    sv = make(1, seed=3, dtype="complex128")
    sv.h(0)
    a, b, c = sv.alloc(3)
    sv.entangle_fresh(a, b)
    twin = sv.copy()
    sv.release(c)
    assert twin.qubit_ids == (0, a, b, c) and sv.qubit_ids == (0, a, b)
    twin.begin_shots(4)  # pending qubits gain the branch axis when merged
    twin.cnot(0, c)
    gates = [("h", [0], []), ("h", [1], []), ("cnot", [1, 2], []), ("cnot", [0, 3], [])]
    assert_state(twin, ("complex128",), gates)
    assert_state(sv, ("complex128",), gates[:3])


@pytest.mark.parametrize("pauli", ["x", "y", "z"])
def test_conditional_pauli_is_the_gate(mode, pauli):
    sv = engine(mode, 2)
    prep = [("ry", [0], [0.5]), ("cnot", [0, 1], []), ("rx", [1], [0.8])]
    sv.ry(0, 0.5)
    sv.cnot(0, 1)
    sv.rx(1, 0.8)
    sv.apply_pauli_if(0, pauli, 1)
    assert_state(sv, mode, prep)
    sv.apply_pauli_if(1, pauli, 1)
    assert_state(sv, mode, prep + [(pauli, [1], [])])
    lone = engine(mode, 1)  # a one-axis register: the halves are scalars
    lone.apply_pauli_if(1, pauli, 0)
    assert_state(lone, mode, [(pauli, [0], [])])


def random_register(mode, seed):
    """Two engines in the same entangled 4-qubit state, same RNG seed."""
    angles = np.random.default_rng(seed).uniform(0.2, 2.9, size=4)
    pair = []
    for _ in range(2):
        sv = engine(mode, 4, seed=seed)
        for q, t in enumerate(angles):
            sv.ry(q, float(t))
        for q in range(3):
            sv.cnot(q, q + 1)
        pair.append(sv)
    return pair


def test_fused_measure_and_release_equals_measure_x_release(mode):
    for seed in range(200):
        fused, stepwise = random_register(mode, seed)
        q = seed % 4
        before = {id(sv): store(sv) for sv in (fused, stepwise)}
        got = fused.measure_and_release(q)
        want = stepwise.measure(q)
        stepwise.apply_pauli_if(want, "X", q)
        stepwise.release(q)
        assert np.array_equal(np.asarray(got), np.asarray(want))
        assert fused.qubit_ids == stepwise.qubit_ids
        assert fused._bit_of == stepwise._bit_of
        for a, b in zip(store(fused), store(stepwise), strict=True):
            assert a.shape == b.shape and np.allclose(a, b, atol=ATOL[mode[0]])
        # Both drops hand back arrays of their own, not views that keep
        # the doubled buffers alive.
        for sv in (fused, stepwise):
            for a in store(sv):
                assert not any(np.shares_memory(a, old) for old in before[id(sv)])
                owner = a if a.base is None else a.base
                assert owner.size == a.size
        assert fused.rng.random() == stepwise.rng.random()


def test_measure_and_release_of_an_impossible_outcome_raises(make):
    class Zero:
        def random(self):
            return 0.0  # below any p1 > 0: forces outcome 1

    sv = make(1, dtype="complex128")
    sv.ry(0, 1e-13)  # p1 ~ 2.5e-27: positive, but below the norm floor squared
    sv.rng = Zero()
    with pytest.raises(SimulationError, match="zero probability"):
        sv.measure_and_release(0)


# ----------------------------------------------------------------------
# deterministic guards (counts, not clocks)
# ----------------------------------------------------------------------
def test_bookkeeping_only_calls_leave_the_array_alone(make):
    sv = make(3, seed=0)
    sv.h(0)
    sv.cnot(0, 1)
    sv.x(2)
    psi = store(sv)
    a, b = sv.alloc(2)
    (c,) = sv.alloc(1)
    sv.entangle_fresh(a, b)
    sv.release(c)
    assert same_store(sv, psi)
    assert sv.num_qubits == 5


def test_epr_round_peak_memory_is_bounded(make):
    """alloc, alloc, entangle, cnot(q, e), measure e out, fix the other half.

    On a 16-qubit register the round peaks at 7 registers above the
    starting state (the 4x allocation beside the old array, then one
    controlled pass inside it); eager allocation with an h + cnot pass
    and a measure/X/release chain peaked at 11.
    """
    tracemalloc.start()
    try:
        sv = make(16, seed=5, dtype="complex128")
        for q in range(16):
            sv.h(q)
        register = sum(a.nbytes for a in store(sv))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        e, f = sv.alloc(2)
        sv.entangle_fresh(e, f)
        sv.cnot(3, e)
        m = sv.measure_and_release(e)
        sv.apply_pauli_if(m, "X", f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sv.num_qubits == 17
    assert sv.prob_one(f) == pytest.approx(0.5)
    assert (peak - start) / register <= 8.5


def test_merging_many_fresh_qubits_allocates_one_register(make):
    """``alloc(16)`` merged by one call costs the new array and nothing else.

    The factors' product is kept as its nonzero entries, so sixteen |0>
    qubits are one zero-filled register with one amplitude written — no
    dense 2^16 factor tensor beside it (that read 1.5 registers here).
    """
    tracemalloc.start()
    try:
        sv = make(0, seed=0, dtype="complex128")
        qubits = sv.alloc(16)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sv.layout_key(qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    register = sum(a.nbytes for a in store(sv))
    assert sv.store_qubits == 16 and sv.amplitude([0] * 16) == 1.0
    assert register == 16 << 16 and (peak - start) / register <= 1.05
