"""The process-parallel chunk executor: workers=N vs the serial engine.

The pool is forced on tiny chunks with ``parallel_min_chunk=1`` so the
shared-memory dispatch paths (single-qubit runs and diagonal
phase-vector multiplies) are exercised for real; every test asserts
amplitude-exact agreement with the serial engine. Pools are spawned
processes — keep the number of engines with ``workers>0`` small.
"""

import numpy as np
import pytest

from repro.qmpi import Op, qmpi_run
from repro.sim import ShardedStateVector, SimulationError, coalesce_diagonals
from tests._precision import STATE_ATOL


@pytest.fixture
def pooled():
    """A 4-chunk engine with a forced 2-worker pool (closed on teardown)."""
    sv = ShardedStateVector(4, seed=0, n_shards=4, workers=2, parallel_min_chunk=1)
    yield sv
    sv.close()


def _mixed_ops():
    ops = [
        Op("h", (0,)),
        Op("rx", (2,), (0.45,)),
        Op("ry", (3,), (0.8,)),
        Op("rz", (1,), (0.3,)),
        Op("cphase", (1, 2), (0.9,)),
        Op("z", (3,)),
        Op("cphase", (0, 3), (0.5,)),  # pair spanning shard + local axes
        Op("cnot", (2, 3)),
        Op("t", (0,)),
        Op("crz", (0, 1), (0.7,)),  # shard-axis control
    ]
    return ops


def test_workers_match_serial_amplitudes(pooled):
    serial = ShardedStateVector(4, seed=0, n_shards=4)
    serial.apply_ops(_mixed_ops())
    pooled.apply_ops(coalesce_diagonals(_mixed_ops()))
    np.testing.assert_allclose(
        serial.statevector(), pooled.statevector(), atol=STATE_ATOL
    )


def test_workers_survive_alloc_release_and_measure(pooled):
    serial = ShardedStateVector(4, seed=0, n_shards=4)
    for sv in (serial, pooled):
        sv.apply_ops([Op("h", (0,)), Op("rx", (1,), (0.4,))])
        ids = sv.alloc(2)
        sv.apply_ops([Op("ry", (ids[0],), (0.6,))])
        sv.release(ids[1])  # still |0>
        sv.postselect(ids[0], 0)
        sv.apply_ops(coalesce_diagonals([Op("t", (q,)) for q in (0, 1, 2, 3)]))
    np.testing.assert_allclose(
        serial.statevector(), pooled.statevector(), atol=STATE_ATOL
    )


def test_close_is_idempotent_and_engine_stays_usable(pooled):
    pooled.apply_ops([Op("h", (0,))])
    before = pooled.statevector()
    pooled.close()
    pooled.close()  # idempotent
    assert pooled.workers == 0
    np.testing.assert_allclose(before, pooled.statevector(), atol=1e-15)
    pooled.apply_ops([Op("h", (0,))])  # serial fallback still works
    assert abs(pooled.amplitude([0, 0, 0, 0]) - 1.0) < STATE_ATOL


def test_copy_is_serial_and_independent(pooled):
    pooled.apply_ops([Op("h", (0,)), Op("cnot", (0, 1))])
    dup = pooled.copy()
    assert dup.workers == 0
    pooled.apply_ops([Op("x", (2,))])
    np.testing.assert_allclose(
        abs(dup.amplitude([1, 1, 0, 0])) ** 2, 0.5, atol=STATE_ATOL
    )


def test_workers_validation():
    with pytest.raises(SimulationError):
        ShardedStateVector(1, workers=-1)


def test_small_chunks_stay_serial():
    # Below parallel_min_chunk no pool is ever spawned.
    sv = ShardedStateVector(4, seed=0, n_shards=4, workers=2)
    sv.apply_ops([Op("h", (2,)), Op("rx", (3,), (0.3,))])
    assert sv._pool is None
    sv.close()


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_qmpi_run_with_workers_matches_serial(n_ranks):
    def prog(qc):
        q = None
        for r in range(qc.size):
            if qc.rank == r:
                q = qc.alloc_qmem(2)
            qc.barrier()
        qc.h(q[0])
        qc.rz(q[0], 0.3)
        qc.cphase(q[0], q[1], 0.8)
        qc.rx(q[1], 0.2)
        qc.barrier()
        return list(q)

    base = qmpi_run(n_ranks, prog, seed=0, backend="sharded")
    pooled = qmpi_run(
        n_ranks, prog, seed=0, backend="sharded",
        workers=2, parallel_min_chunk=1,
    )
    try:
        order = [q for block in base.results for q in block]
        np.testing.assert_allclose(
            base.backend.statevector(order),
            pooled.backend.statevector(order),
            atol=STATE_ATOL,
        )
    finally:
        pooled.backend.close()


def test_workers_apply_contraction_plans_in_place(pooled):
    # Plans ride the same run dispatch as single-qubit kernels: an
    # all-local window (a "ct" entry) and a block-diagonal shard-axis
    # window (a "csel" entry) both mutate the shared-memory chunks in
    # place and match the serial engine exactly.
    from repro.sim import ContractionPlan, plan_contractions

    serial = ShardedStateVector(4, seed=0, n_shards=4)
    spread = [Op("h", (0,)), Op("h", (2,)), Op("rx", (1,), (0.25,))]
    local_run = [Op("cnot", (2, 3)), Op("ry", (3,), (0.8,)), Op("swap", (2, 3))]
    high_run = [Op("cnot", (0, 2)), Op("ry", (2,), (0.5,)), Op("cnot", (0, 2))]
    serial.apply_ops(spread + local_run + high_run)
    pooled.apply_ops(spread)
    for run in (local_run, high_run):
        planned = plan_contractions(run)
        assert [type(o) for o in planned] == [ContractionPlan]
        pooled.apply_ops(planned)
    np.testing.assert_allclose(
        serial.statevector(), pooled.statevector(), atol=STATE_ATOL
    )
