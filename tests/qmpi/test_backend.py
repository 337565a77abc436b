"""Shared backend: rank-0 semantics, ownership, locality enforcement."""

import inspect

import numpy as np
import pytest

from repro.mpi.errors import RankFailure
from repro.qmpi import (
    LocalityError,
    QuantumBackend,
    ShardedBackend,
    SharedBackend,
    make_backend,
    qmpi_run,
)
from repro.sim import ShardedStateVector, SimulationError, StateVector
from repro.sim.kernels import KernelDispatch


def test_alloc_and_ownership():
    be = SharedBackend(seed=0)
    a = be.alloc(0, 2)
    b = be.alloc(1, 1)
    assert [be.owner(q) for q in a] == [0, 0]
    assert be.owner(b[0]) == 1
    assert list(be.owned_by(0)) == list(a)


def test_locality_enforced():
    be = SharedBackend(seed=0)
    (qa,) = be.alloc(0, 1)
    (qb,) = be.alloc(1, 1)
    with pytest.raises(LocalityError):
        be.h(1, qa)
    with pytest.raises(LocalityError):
        be.cnot(0, qa, qb)  # cross-node gate must use QMPI protocols
    with pytest.raises(LocalityError):
        be.measure(1, qa)


@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector, KernelDispatch,
                                 QuantumBackend, SharedBackend, ShardedBackend])
def test_no_kernel_mode_or_locality_switch(cls):
    params = inspect.signature(cls).parameters
    assert not {"kernels", "enforce_locality", "spill", "spill_budget"} & set(params)


# the classes that had ``close()`` only to remove spill files
@pytest.mark.parametrize("cls", [ShardedStateVector, QuantumBackend, ShardedBackend])
def test_engines_and_backends_hold_nothing_to_close(cls):
    assert not hasattr(cls, "close")


@pytest.mark.parametrize("kw", [{"kernels": "jit"}, {"enforce_locality": False},
                                {"spill": "auto"}, {"spill_budget": 1}])
@pytest.mark.parametrize("backend", ["shared", "sharded"])
def test_removed_backend_keywords_raise(kw, backend):
    def prog(qc):
        return None

    with pytest.raises(TypeError, match=next(iter(kw))):
        qmpi_run(1, prog, backend=backend, **kw)


def test_ownership_transfer():
    be = SharedBackend(seed=0)
    (q,) = be.alloc(0, 1)
    be.transfer(q, 3)
    assert be.owner(q) == 3
    with pytest.raises(LocalityError):
        be.x(0, q)
    be.x(3, q)
    assert be.measure(3, q) == 1


def test_free_checks_state_and_owner():
    be = SharedBackend(seed=0)
    (q,) = be.alloc(0, 1)
    be.x(0, q)
    with pytest.raises(SimulationError):
        be.free(0, q)  # not |0>
    be.x(0, q)
    with pytest.raises(LocalityError):
        be.free(1, q)
    be.free(0, q)
    assert be.num_qubits == 0


def test_entangle_pair_is_bell():
    be = SharedBackend(seed=0)
    (qa,) = be.alloc(0, 1)
    (qb,) = be.alloc(1, 1)
    be.entangle_pair(qa, qb)
    vec = be.statevector([qa, qb])
    assert np.allclose(vec, [2**-0.5, 0, 0, 2**-0.5])


def test_measure_and_release_removes_ownership():
    be = SharedBackend(seed=0)
    (q,) = be.alloc(2, 1)
    be.measure_and_release(2, q)
    with pytest.raises(SimulationError):
        be.owner(q)


@pytest.mark.parametrize("spec", [SharedBackend, ShardedBackend])
def test_measure_and_release_checks_the_owner_of_both_operands(spec):
    be = spec(seed=0)
    (q0,) = be.alloc(0, 1)
    (e,) = be.alloc(0, 1)
    (q1,) = be.alloc(1, 1)
    with pytest.raises(LocalityError):
        be.measure_and_release(0, e, control=q1)  # another rank's control
    with pytest.raises(LocalityError):
        be.measure_and_release(1, e, control=q1)  # another rank's target
    with pytest.raises(ValueError, match="basis"):
        be.measure_and_release(0, e, basis="Y")
    assert be.owner(e) == 0 and be.num_qubits == 3  # nothing was consumed
    be.x(0, q0)
    assert be.measure_and_release(0, e, control=q0) == 1
    assert be.measure_and_release(0, q0, basis="X") in (0, 1)
    assert list(be.qubit_ids()) == [q1]


def test_send_uncopy_round_grows_the_register_by_the_copy_only():
    """2-rank ``send`` -> ``unrecv``/``unsend`` on an n-qubit register: the
    store never holds more than n + 1 qubits — the EPR half the sender
    measures is never one (the two-call spelling merged both: n + 2)."""

    class Watched(StateVector):
        peak = 0
        _chunks = property(lambda self: self._state)

        @_chunks.setter
        def _chunks(self, value):
            self._state = value
            self.peak = max(self.peak, sum(c.size for c in value).bit_length() - 1)

    def prog(qc):
        data = qc.alloc_qmem(3)
        for q in data:
            qc.ry(q, 0.3 + q)
        qc.flush_ops()
        qc.barrier()  # all n = 6 data qubits are axes now
        if qc.rank == 0:
            qc.send([data[1]], dest=1, tag=1)
            qc.unsend([data[1]], dest=1, tag=1)
        else:
            (copy,) = qc.recv(qc.alloc_qmem(1), source=0, tag=1)
            qc.cnot(copy, data[0])
            qc.unrecv([copy], source=0, tag=1)
        return True

    for seed in range(8):
        engine = Watched(seed=seed)
        world = qmpi_run(2, prog, backend=QuantumBackend(engine))
        assert world.backend.num_qubits == 6
        assert engine.peak == 7 and engine.chunk_size == 1 << 6


def test_unknown_qubit_raises():
    be = SharedBackend(seed=0)
    with pytest.raises(SimulationError):
        be.h(0, 42)


# ----------------------------------------------------------------------
# make_backend construction surface
# ----------------------------------------------------------------------
class TestMakeBackend:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("warp-core")

    def test_colon_arg_on_non_sharded_raises(self):
        with pytest.raises(ValueError, match="':' argument"):
            make_backend("shared:2")

    def test_class_spec_with_bad_opts_raises(self):
        with pytest.raises(TypeError):
            make_backend(SharedBackend, n_shards=2)

    def test_prebuilt_instance_with_seed_warns(self):
        be = make_backend("shared")
        with pytest.warns(UserWarning, match="prebuilt backend instance"):
            out = make_backend(be, seed=3)
        assert out is be

    def test_prebuilt_instance_without_opts_is_silent(self):
        be = make_backend("shared")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_backend(be) is be

    def test_reseed_reproduces_measurements(self):
        be = make_backend("shared", seed=1)
        assert isinstance(be, QuantumBackend)

        def sample():
            be.reseed(99)
            q = be.alloc(0, 1)[0]
            be.h(0, q)
            return be.measure_and_release(0, q)

        bits_a = [sample() for _ in range(20)]
        bits_b = [sample() for _ in range(20)]
        assert bits_a == bits_b

    def test_sharded_colon_arg_sets_shard_count(self):
        be = make_backend("sharded:8")
        assert be._sv.n_shards == 8


# ----------------------------------------------------------------------
# the sweep idiom: one prebuilt backend, reseed + qmpi_run per point
# ----------------------------------------------------------------------
def _sweep_point(qc, theta):
    q = None
    for r in range(qc.size):  # rank-ordered allocation: stable ids
        if qc.rank == r:
            q = qc.alloc_qmem(2)
        qc.barrier()
    qc.ry(q[0], theta)
    qc.cnot(q[0], q[1])
    qc.rz(q[1], theta / 2)
    bits = None
    for r in range(qc.size):  # rank-ordered draws: a reproducible stream
        if qc.rank == r:
            bits = [qc.measure(x) for x in q]
        qc.barrier()
    for x, m in zip(q, bits):
        qc.backend.apply_pauli_if(qc.rank, m, "X", x)
    qc.free_qmem(q)  # an empty engine can start the next shot batch


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_prebuilt_backend_sweep_reuses_schedules_and_reseeds(spec):
    be = make_backend(spec, n_ranks=2)
    runs = []
    for theta in (0.7, 0.7, 1.9):
        be.reseed(5)
        before = be.cache_info()["misses"]
        world = qmpi_run(2, _sweep_point, args=(theta,), backend=be, shots=256)
        assert sum(world.counts.values()) == 256
        runs.append((world.counts, be.cache_info()["misses"] - before))
    assert runs[0][1] > 0  # the first call compiles
    assert runs[1][1] == 0 and runs[2][1] == 0  # later calls replay
    assert runs[1][0] == runs[0][0]  # same seed, same point: same counts
    assert runs[2][0] != runs[0][0]  # a new angle rebinds the schedule


def _teleport_one(qc):
    if qc.rank == 0:
        q = qc.alloc_qmem(1)
        qc.x(q[0])
        qc.send_move(q, 1)
        return None
    t = qc.alloc_qmem(1)
    qc.recv_move(t, 0)
    m = qc.measure(t[0])  # recorded in counts, unlike protocol measurements
    qc.backend.apply_pauli_if(qc.rank, m, "X", t[0])
    qc.free_qmem(t)
    return m


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_prebuilt_backend_reruns_a_protocol(spec):
    be = make_backend(spec, n_ranks=2)
    for _ in range(2):
        world = qmpi_run(2, _teleport_one, backend=be, shots=16)
        assert world.counts == {"1": 16}
        assert be._sv.num_qubits == 0  # nothing left behind for the next run


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_run_failure_leaves_prebuilt_backend_usable(spec):
    def boom(qc):
        raise ValueError("kaboom")

    be = make_backend(spec, n_ranks=1)
    with pytest.raises(RankFailure, match="kaboom"):
        qmpi_run(1, boom, backend=be, shots=8)
    world = qmpi_run(1, _sweep_point, args=(0.3,), backend=be, shots=8)
    assert sum(world.counts.values()) == 8


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_counts_without_shots_raises(spec):
    def prog(qc):
        q = qc.alloc_qmem(2)
        qc.h(q[0])
        qc.cnot(q[0], q[1])
        return [qc.measure(x) for x in q]

    world = qmpi_run(1, prog, backend=spec)
    bits = world.results[0]
    assert bits in ([0, 0], [1, 1])
    with pytest.raises(RuntimeError, match="shots"):
        world.counts
    with pytest.raises(SimulationError, match="shot-batched"):
        world.backend.counts()


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_unreleased_qubits_block_the_next_shot_batch(spec):
    def leaky(qc):
        q = qc.alloc_qmem(1)
        qc.h(q[0])
        return qc.measure(q[0])  # the qubit stays allocated

    be = make_backend(spec, n_ranks=1)
    qmpi_run(1, leaky, backend=be, shots=4)
    with pytest.raises(SimulationError, match="non-empty engine"):
        qmpi_run(1, leaky, backend=be, shots=4)


@pytest.mark.parametrize("spec", ["shared", "sharded:4"])
def test_cached_schedules_replay_exactly_across_shot_counts(spec):
    # The schedule cache survives across calls on a prebuilt backend, so
    # a change of shot count between calls must not replay a schedule
    # bound to the old layout: every call matches a cold backend.
    be = make_backend(spec, n_ranks=2)
    for shots in (100, 200, 100):
        be.reseed(shots)
        warm = qmpi_run(2, _sweep_point, args=(1.1,), backend=be, shots=shots)
        cold_be = make_backend(spec, n_ranks=2, cache="off")
        cold_be.reseed(shots)
        cold = qmpi_run(2, _sweep_point, args=(1.1,), backend=cold_be, shots=shots)
        assert sum(warm.counts.values()) == shots
        assert warm.counts == cold.counts
    assert be.cache_info()["hits"] > 0
