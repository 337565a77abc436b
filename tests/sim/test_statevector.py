"""Core state-vector engine tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import StateVector, SimulationError
from repro.sim import gates as G
from tests._precision import PROB_ABS


def test_bell_state():
    sv = StateVector(2, seed=0)
    sv.h(0)
    sv.cnot(0, 1)
    v = sv.statevector()
    assert np.allclose(v, [2**-0.5, 0, 0, 2**-0.5])


def test_measure_correlated():
    for seed in range(8):
        sv = StateVector(2, seed=seed)
        sv.h(0)
        sv.cnot(0, 1)
        assert sv.measure(0) == sv.measure(1)


def test_measurement_statistics():
    ones = 0
    n = 400
    sv = StateVector(0, seed=42)
    for _ in range(n):
        (q,) = sv.alloc(1)
        sv.h(q)
        ones += sv.measure_and_release(q)
    assert 140 < ones < 260  # ~Binomial(400, 0.5)


def test_apply_matches_dense_kron(rng):
    sv = StateVector(3, seed=1)
    sv.h(0)
    sv.ry(1, 0.3)
    sv.rz(2, -0.8)
    ref = sv.statevector()
    u = G.rx(0.77)
    sv.apply(u, 1)
    dense = G.kron_all(G.I2, u, G.I2) @ ref
    assert np.allclose(sv.statevector(), dense)


def test_two_qubit_apply_ordering():
    # apply(CX, a, b): a is control (most significant index of the matrix)
    sv = StateVector(2, seed=0)
    sv.x(0)
    sv.apply(G.CX, 0, 1)
    assert np.allclose(sv.statevector(), [0, 0, 0, 1])
    sv2 = StateVector(2, seed=0)
    sv2.x(1)
    sv2.apply(G.CX, 1, 0)  # control qubit 1
    assert np.allclose(sv2.statevector(), [0, 0, 0, 1])


def test_apply_controlled_slices():
    sv = StateVector(3, seed=0)
    sv.x(0)
    sv.x(1)
    sv.apply_controlled(G.X, [0, 1], [2])  # toffoli
    assert np.allclose(sv.statevector(), np.eye(8)[7])


def test_controlled_rejects_overlap():
    sv = StateVector(2)
    with pytest.raises(SimulationError):
        sv.apply_controlled(G.X, [0], [0])


def test_apply_rejects_bad_shapes():
    sv = StateVector(2)
    with pytest.raises(SimulationError):
        sv.apply(np.eye(2), 0, 1)
    with pytest.raises(SimulationError):
        sv.apply(np.eye(4), 0, 0)


def test_alloc_release_midstream():
    sv = StateVector(2, seed=3)
    sv.h(0)
    (q,) = sv.alloc(1)
    sv.cnot(0, q)
    sv.cnot(0, q)  # uncompute
    sv.release(q)
    assert sv.num_qubits == 2
    assert np.allclose(abs(sv.statevector()[0]) ** 2, 0.5)


def test_release_entangled_raises():
    sv = StateVector(2, seed=0)
    sv.h(0)
    sv.cnot(0, 1)
    with pytest.raises(SimulationError):
        sv.release(1)


def test_release_nonzero_raises():
    sv = StateVector(1, seed=0)
    sv.x(0)
    with pytest.raises(SimulationError):
        sv.release(0)


def test_unknown_qubit():
    sv = StateVector(1)
    with pytest.raises(SimulationError):
        sv.h(7)


def test_postselect_zero_probability():
    sv = StateVector(1, seed=0)
    with pytest.raises(SimulationError):
        sv.postselect(0, 1)


def test_measure_and_release():
    sv = StateVector(1, seed=0)
    sv.x(0)
    assert sv.measure_and_release(0) == 1
    assert sv.num_qubits == 0


def test_statevector_order_permutation():
    sv = StateVector(2, seed=0)
    sv.x(0)
    assert np.allclose(sv.statevector([0, 1]), [0, 0, 1, 0])
    assert np.allclose(sv.statevector([1, 0]), [0, 1, 0, 0])
    with pytest.raises(SimulationError):
        sv.statevector([0])


def test_amplitude_and_probabilities():
    sv = StateVector(2, seed=0)
    sv.h(0)
    assert abs(sv.amplitude([0, 0])) ** 2 == pytest.approx(0.5)
    assert sv.probabilities().sum() == pytest.approx(1.0)


def test_expectation_pauli():
    sv = StateVector(2, seed=0)
    sv.h(0)
    assert sv.expectation_pauli({0: "X"}) == pytest.approx(1.0)
    assert sv.expectation_pauli({0: "Z"}) == pytest.approx(0.0, abs=PROB_ABS)
    sv.cnot(0, 1)
    assert sv.expectation_pauli({0: "Z", 1: "Z"}) == pytest.approx(1.0)


def test_copy_is_independent():
    sv = StateVector(1, seed=0)
    c = sv.copy()
    sv.x(0)
    assert c.prob_one(0) == pytest.approx(0.0)
    assert sv.prob_one(0) == pytest.approx(1.0)


@given(st.integers(0, 255))
def test_alloc_encodes_any_basis_state(bits):
    sv = StateVector(0, seed=0)
    ids = sv.alloc(8)
    for i, q in enumerate(ids):
        if (bits >> i) & 1:
            sv.x(q)
    out = 0
    for i, q in enumerate(ids):
        out |= sv.measure(q) << i
    assert out == bits


def test_norm_preserved_under_gates(rng):
    sv = StateVector(4, seed=5)
    for _ in range(30):
        q = int(rng.integers(4))
        rot = (G.rx, G.ry, G.rz)[int(rng.integers(3))]
        sv.apply(rot(float(rng.normal())), q)
    assert sv.norm() == pytest.approx(1.0)
