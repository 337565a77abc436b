"""Shared backend: rank-0 semantics, ownership, locality enforcement."""

import numpy as np
import pytest

from repro.qmpi import LocalityError, QuantumBackend, ShardedBackend, SharedBackend, qmpi_run
from repro.sim import SimulationError, StateVector


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


def test_locality_can_be_disabled_for_whitebox_tests():
    be = SharedBackend(seed=0, enforce_locality=False)
    (qa,) = be.alloc(0, 1)
    be.h(1, qa)  # no error


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
    array never has more than n + 1 axes — the EPR half the sender
    measures is never one (the two-call spelling merged both: n + 2)."""

    class Watched(StateVector):
        peak = 0
        _psi = property(lambda self: self._state)

        @_psi.setter
        def _psi(self, value):
            self._state = value
            self.peak = max(self.peak, value.ndim)

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
        assert engine.peak == 7 and engine._psi.ndim == 6


def test_unknown_qubit_raises():
    be = SharedBackend(seed=0)
    with pytest.raises(SimulationError):
        be.h(0, 42)
