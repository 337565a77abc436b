"""Mixed precision (``dtype="complex64"``) and the out-of-core spill tier.

Two families:

* **dtype** — construction/validation/env plumbing, the live-chunk
  ``dtype`` property, and shared-vs-sharded equivalence with the
  tolerance bar scaled to float32 eps.  Within complex64 the two
  engines agree to ~1e-5; against a complex128 reference the bar is
  the accumulated rounding of the circuit (~1e-4 for these depths).
* **spill** — a tiny ``spill_budget`` forces the sharded chunks onto
  ``np.memmap`` files; amplitudes must match the in-RAM engine
  bit-for-bit, ``release`` must re-enter the RAM tier when the
  register shrinks under budget, and ``close()`` must remove every
  spill file and the spill directory.
"""

import os

import numpy as np
import pytest

from repro.qmpi import qmpi_run
from repro.sim import ShardedStateVector, SimulationError, StateVector

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
@pytest.mark.parametrize("fusion", ["auto", "noplan", "nodiag", "off"])
@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_c64_qmpi_run_matrix(backend, fusion, n_ranks):
    """Full fusion × backend × rank matrix under dtype="complex64".

    Every configuration must land within the float32 bar of the same
    circuit run in complex128, and the amplitudes must actually be
    complex64 (no silent upcast anywhere in the buffered pipeline).
    """
    kw = dict(
        args=(fusion,), seed=7, backend=backend, fusion=fusion
    )
    w64 = qmpi_run(n_ranks, _c64_prog, dtype="complex64", **kw)
    w128 = qmpi_run(n_ranks, _c64_prog, dtype="complex128", **kw)
    order = sorted(w64.backend.qubit_ids())
    sv64 = w64.backend.statevector(order)
    sv128 = w128.backend.statevector(order)
    assert sv64.dtype == np.complex64
    assert sv128.dtype == np.complex128
    np.testing.assert_allclose(sv64, sv128, atol=C64_REF_ATOL)


# ----------------------------------------------------------------------
# out-of-core spill tier
# ----------------------------------------------------------------------
def test_spill_over_budget_mmaps_and_matches_ram(rng):
    ram = ShardedStateVector(8, seed=5, n_shards=4)
    ooc = ShardedStateVector(
        8, seed=5, n_shards=4, spill="auto", spill_budget=1024
    )
    assert ooc._mmapped, "8 qubits x 16B >> 1KiB budget must spill"
    assert ooc._spill_dir is not None and os.path.isdir(ooc._spill_dir)
    assert len(ooc._spill_files) == ooc.num_chunks
    assert all(os.path.exists(p) for p in ooc._spill_files)
    _random_circuit((ram, ooc), rng, n_gates=20)
    # Same dtype, same op order, chunk files or not: bit-identical.
    np.testing.assert_array_equal(ram.statevector(), ooc.statevector())
    ooc.close()
    ram.close()


def test_spill_reenters_ram_tier_on_release():
    ooc = ShardedStateVector(
        n_shards=2, spill="auto", spill_budget=4096, dtype="complex128"
    )
    q = ooc.alloc(9)  # 512 amps x 16B = 8KiB > budget
    assert ooc._mmapped
    for qb in q[:2]:  # down to 128 amps x 16B = 2KiB <= budget
        ooc.release(qb)
    assert not ooc._mmapped
    assert not ooc._spill_files
    ooc.close()


def test_spill_close_removes_files_and_dir():
    ooc = ShardedStateVector(6, n_shards=4, spill="auto", spill_budget=64)
    files, d = list(ooc._spill_files), ooc._spill_dir
    assert files and d
    ooc.close()
    assert not any(os.path.exists(p) for p in files)
    assert not os.path.exists(d)
    # close() is idempotent and the engine stays usable read-only.
    ooc.close()


def test_spill_explicit_path(tmp_path):
    ooc = ShardedStateVector(
        6, n_shards=2, spill=str(tmp_path), spill_budget=64
    )
    assert ooc._mmapped
    assert all(p.startswith(str(tmp_path)) for p in ooc._spill_files)
    ooc.h(0)
    ooc.close()
    # The caller's directory survives; only our spill subdir is removed.
    assert tmp_path.exists()
    assert not any(tmp_path.iterdir())


def test_spill_dtype_c64_halves_file_bytes():
    kw = dict(n_shards=4, spill="auto", spill_budget=64)
    big = ShardedStateVector(6, dtype="complex128", **kw)
    small = ShardedStateVector(6, dtype="complex64", **kw)
    nbytes = lambda e: sum(os.path.getsize(p) for p in e._spill_files)
    assert nbytes(small) * 2 == nbytes(big)
    big.close()
    small.close()


def test_spill_through_qmpi_run():
    w = qmpi_run(
        2,
        _c64_prog,
        args=("auto",),
        seed=7,
        backend="sharded",
        spill="auto",
        spill_budget=128,
    )
    ref = qmpi_run(2, _c64_prog, args=("auto",), seed=7, backend="sharded")
    order = sorted(w.backend.qubit_ids())
    np.testing.assert_array_equal(
        w.backend.statevector(order), ref.backend.statevector(order)
    )
