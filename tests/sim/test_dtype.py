"""Mixed precision (``dtype="complex64"``).

Construction/validation/env plumbing, the live-chunk ``dtype``
property, and shared-vs-sharded equivalence with the tolerance bar
scaled to float32 eps.  Within complex64 the two engines agree to
~1e-5; against a complex128 reference the bar is the accumulated
rounding of the circuit (~1e-4 for these depths).
"""

import numpy as np
import pytest

from repro.qmpi import qmpi_run
from repro.sim import ShardedStateVector, SimulationError, StateVector
from tests._lowering import fusion_of, lowering

# float32 has ~7 decimal digits; a few dozen gates of accumulated
# rounding lands well under these bars.
C64_PAIR_ATOL = 1e-5   # complex64 engine vs complex64 engine
C64_REF_ATOL = 1e-4    # complex64 engine vs complex128 reference


def rand_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_circuit(engines, rng, n_gates=30):
    ids = list(engines[0].qubit_ids)
    for _ in range(n_gates):
        k = int(rng.integers(1, 3))
        qs = [int(q) for q in rng.choice(ids, size=k, replace=False)]
        u = rand_unitary(2**k, rng)
        for e in engines:
            e.apply(u, *qs)


# ----------------------------------------------------------------------
# dtype plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector])
def test_bad_dtype_rejected(cls):
    for bad in ("float64", "complex32", "c64", ""):
        with pytest.raises(SimulationError):
            cls(dtype=bad)


@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector])
def test_dtype_property_tracks_live_buffer(cls):
    for name in ("complex128", "complex64"):
        sv = cls(dtype=name)
        assert sv.dtype == name
        sv.alloc(3)
        assert sv.dtype == name
        assert sv.statevector().dtype == np.dtype(name)


@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector])
def test_dtype_env_default_and_override(cls, monkeypatch):
    monkeypatch.setenv("REPRO_QMPI_DTYPE", "complex64")
    assert cls().dtype == "complex64"
    # An explicit dtype= beats the environment.
    assert cls(dtype="complex128").dtype == "complex128"
    monkeypatch.setenv("REPRO_QMPI_DTYPE", "bogus")
    with pytest.raises(SimulationError):
        cls()


@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector])
def test_copy_carries_dtype(cls):
    sv = cls(2, dtype="complex64")
    sv.h(0)
    dup = sv.copy()
    assert dup.dtype == "complex64"
    np.testing.assert_array_equal(dup.statevector(), sv.statevector())


# ----------------------------------------------------------------------
# complex64 equivalence: shared vs sharded, and vs complex128 reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_c64_shared_vs_sharded_equivalence(n_shards, rng):
    ref = StateVector(5, seed=3, dtype="complex128")
    a = StateVector(5, seed=3, dtype="complex64")
    b = ShardedStateVector(5, seed=3, n_shards=n_shards, dtype="complex64")
    _random_circuit((ref, a, b), rng)
    np.testing.assert_allclose(
        a.statevector(), b.statevector(), atol=C64_PAIR_ATOL
    )
    np.testing.assert_allclose(
        ref.statevector(), b.statevector(), atol=C64_REF_ATOL
    )
    assert b.norm() == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_c64_measurement_parity(n_shards):
    a = StateVector(4, seed=123, dtype="complex64")
    b = ShardedStateVector(4, seed=123, n_shards=n_shards, dtype="complex64")
    for q in range(4):
        a.h(q), b.h(q)
    a.cnot(0, 3), b.cnot(0, 3)
    for q in (3, 0, 1):
        assert a.measure(q) == b.measure(q)
    np.testing.assert_allclose(
        a.statevector(), b.statevector(), atol=C64_PAIR_ATOL
    )


def _c64_prog(qc, fusion_probe):
    if qc.rank != 0:
        return None
    q = qc.alloc_qmem(4)
    for layer in range(3):
        for i in range(4):
            qc.ry(q[i], 0.3 * (layer + 1) + 0.1 * i)
        for i in range(3):
            qc.cnot(q[i], q[i + 1])
        qc.crz(q[0], q[3], 0.7 * (layer + 1))
    qc.flush_ops()
    return [qc.measure(q[i]) for i in range(2)]


@pytest.mark.parametrize("backend", ["shared", "sharded"])
@pytest.mark.parametrize("mode", ["planned", "noplan", "nodiag", "off"])
@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_c64_qmpi_run_matrix(backend, mode, n_ranks):
    """Full lowering × backend × rank matrix under dtype="complex64".

    Every configuration must land within the float32 bar of the same
    circuit run in complex128, and the amplitudes must actually be
    complex64 (no silent upcast anywhere in the buffered pipeline).
    """
    kw = dict(
        args=(mode,), seed=7, backend=backend, fusion=fusion_of(mode)
    )
    with lowering(mode):
        w64 = qmpi_run(n_ranks, _c64_prog, dtype="complex64", **kw)
        w128 = qmpi_run(n_ranks, _c64_prog, dtype="complex128", **kw)
    order = sorted(w64.backend.qubit_ids())
    sv64 = w64.backend.statevector(order)
    sv128 = w128.backend.statevector(order)
    assert sv64.dtype == np.complex64
    assert sv128.dtype == np.complex128
    np.testing.assert_allclose(sv64, sv128, atol=C64_REF_ATOL)
