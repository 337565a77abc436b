"""Gate-matrix library unit tests, incl. the paper's Fig. 1(a) identity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import gates as G


ALL_FIXED = [G.I2, G.X, G.Y, G.Z, G.H, G.S, G.SDG, G.T, G.TDG, G.SX, G.CX, G.CY, G.CZ, G.SWAP]


@pytest.mark.parametrize("u", ALL_FIXED, ids=lambda u: f"shape{u.shape}")
def test_fixed_gates_unitary(u):
    assert G.is_unitary(u)


@given(st.floats(-10, 10))
def test_rotations_unitary(theta):
    for rot in (G.rx, G.ry, G.rz):
        assert G.is_unitary(rot(theta))


def test_pauli_algebra():
    assert np.allclose(G.X @ G.Y, 1j * G.Z)
    assert np.allclose(G.Y @ G.Z, 1j * G.X)
    assert np.allclose(G.Z @ G.X, 1j * G.Y)
    for p in (G.X, G.Y, G.Z):
        assert np.allclose(p @ p, G.I2)


def test_hadamard_conjugation():
    # H X H = Z and H Z H = X
    assert np.allclose(G.H @ G.X @ G.H, G.Z)
    assert np.allclose(G.H @ G.Z @ G.H, G.X)


def test_fig1a_cnot_from_cz():
    """Fig. 1(a): CNOT = (I (x) H) CZ (I (x) H)."""
    ih = np.kron(G.I2, G.H)
    assert np.allclose(ih @ G.CZ @ ih, G.CX)


def test_s_and_t_powers():
    assert np.allclose(G.T @ G.T, G.S)
    assert np.allclose(G.S @ G.S, G.Z)
    assert np.allclose(G.SX @ G.SX, G.X)


def test_controlled_builder():
    assert np.allclose(G.controlled(G.X), G.CX)
    ccx = G.controlled(G.X, 2)
    assert ccx.shape == (8, 8)
    assert np.allclose(ccx[:6, :6], np.eye(6))
    assert np.allclose(ccx[6:, 6:], G.X)
    with pytest.raises(ValueError):
        G.controlled(G.X, 0)


def test_rz_is_exponential():
    from scipy.linalg import expm

    theta = 0.731
    assert np.allclose(G.rz(theta), expm(-0.5j * theta * G.Z))
    assert np.allclose(G.rx(theta), expm(-0.5j * theta * G.X))
    assert np.allclose(G.ry(theta), expm(-0.5j * theta * G.Y))


def test_kron_all():
    assert np.allclose(G.kron_all(G.X, G.I2), np.kron(G.X, G.I2))
    assert G.kron_all().shape == (1, 1)


def test_is_unitary_rejects_junk():
    assert not G.is_unitary(np.ones((2, 2)))
    assert not G.is_unitary(np.ones((2, 3)))
    assert not G.is_unitary(np.ones(4))


# ----------------------------------------------------------------------
# the gate table: one registry, methods generated on every engine
# ----------------------------------------------------------------------
def _engines():
    from repro.sim import ShardedStateVector, StateVector
    from tests._kernels import dispatch

    def native(build):
        with dispatch("native"):  # kernels built in the block go native at every size
            return build()

    return {
        "shared": lambda: StateVector(4, seed=0),
        # two chunks: qubit 0 (first allocated, MSB) is the shard axis
        "sharded": lambda: ShardedStateVector(4, seed=0, n_shards=2),
        # four chunks: qubits 0 and 1 are the two shard axes
        "sharded4": lambda: ShardedStateVector(4, seed=0, n_shards=4),
        # the native kernel arm (numpy when no provider resolves)
        "sharded_native": lambda: native(lambda: ShardedStateVector(4, seed=0, n_shards=2)),
    }


@pytest.mark.parametrize(
    "operands", [(0, 2, 3), (3, 1, 0), (1, 0, 3)], ids=["hi-first", "hi-last", "hi-pair"]
)
@pytest.mark.parametrize("engine", ["shared", "sharded", "sharded4", "sharded_native"])
@pytest.mark.parametrize("name", sorted(G.GATESET))
def test_every_registered_gate_is_an_engine_method(name, engine, operands):
    from repro.qmpi.ops import Op
    from tests._dense_oracle import GATES, embed
    from tests._precision import STATE_ATOL

    gd = G.GATESET[name]
    qubits = operands[: gd.n_qubits]
    params = tuple(0.37 * (i + 1) for i in range(gd.n_params))
    sv = _engines()[engine]()
    for q in range(4):  # a generic product state, so every gate is visible
        sv.apply(np.array(GATES["rz"](0.4 + q)) @ np.array(GATES["ry"](0.7 * (q + 1))), q)
    before = sv.statevector()
    getattr(sv, name)(*qubits, *params)
    full = Op(name, qubits, params).matrix()
    # the registry's matrix against the oracle's literal one ...
    np.testing.assert_allclose(full, np.array(GATES[name](*params)), atol=1e-15)
    # ... and the generated method against that matrix applied densely
    np.testing.assert_allclose(
        sv.statevector(), embed(full, qubits, 4) @ before, atol=STATE_ATOL
    )


def test_register_gate_installs_on_comm_backends_and_all_engines():
    from repro.qmpi import GateDef, QmpiComm, QuantumBackend, register_gate
    from repro.qmpi import ops
    from repro.sim import ShardedStateVector, StateVector

    assert ops.GATESET is G.GATESET and ops.GateDef is G.GateDef
    if "t_sx" not in G.GATESET:
        register_gate(GateDef("t_sx", ("q",), const=G.SX))
    for cls in (QmpiComm, QuantumBackend, StateVector, ShardedStateVector):
        assert "t_sx" in vars(cls), cls
    sv = StateVector(1, seed=0)
    sv.t_sx(0)
    sv.t_sx(0)  # sqrt(X) twice is X
    assert abs(sv.amplitude([1])) == pytest.approx(1.0)
