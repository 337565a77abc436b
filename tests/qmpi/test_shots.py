"""Shot-batched execution: ShotBits, single-pass evolution, distributions.

The contract under test (ISSUE 6 tentpole): ``qmpi_run(..., shots=N)``
executes the program *once* through the normal segment interpreters and
yields the same measurement distribution as N independent single-shot
runs.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from repro.qmpi import ShotBits, ShotDivergenceError, qmpi_run
from repro.sim.shots import branch_mask, fork_outcomes


# ----------------------------------------------------------------------
# ShotBits semantics
# ----------------------------------------------------------------------
class TestShotBits:
    def test_elementwise_integer_arithmetic(self):
        a = ShotBits([0, 1, 0, 1])
        b = ShotBits([0, 0, 1, 1])
        assert (a | b) == ShotBits([0, 1, 1, 1])
        assert (a & b) == ShotBits([0, 0, 0, 1])
        assert (a ^ b) == ShotBits([0, 1, 1, 0])
        # the p2p composition idiom: m |= 2 * m2, then r & 1 / r & 2
        r = a | 2 * b
        assert list(r) == [0, 1, 2, 3]
        assert (r & 1) == a
        assert ((r >> 1) & 1) == b
        # int on the left works too
        assert (1 & r) == a

    def test_scalar_conversion_requires_unanimity(self):
        assert bool(ShotBits([1, 1, 1]))
        assert not bool(ShotBits([0, 0]))
        assert int(ShotBits([1, 1])) == 1
        with pytest.raises(ShotDivergenceError):
            bool(ShotBits([0, 1]))
        with pytest.raises(ShotDivergenceError):
            int(ShotBits([0, 1]))

    def test_container_protocol_and_counts(self):
        b = ShotBits([0, 1, 1, 0, 1])
        assert len(b) == b.shots == 5
        assert b[1] == 1 and list(b) == [0, 1, 1, 0, 1]
        assert b.counts() == Counter({1: 3, 0: 2})
        with pytest.raises(TypeError):
            hash(b)

    def test_values_are_read_only(self):
        b = ShotBits([0, 1])
        with pytest.raises(ValueError):
            b.values[0] = 1


# ----------------------------------------------------------------------
# fork/mask helpers
# ----------------------------------------------------------------------
class TestForkHelpers:
    def test_deterministic_outcomes_never_fork(self):
        rng = np.random.default_rng(0)
        shot_of = np.zeros(16, dtype=np.int64)
        bits, new_shot_of, spec = fork_outcomes(np.array([1.0]), shot_of, rng)
        assert list(bits) == [1] * 16
        assert [a.tolist() for a in spec] == [[0], [1], [1.0]]
        assert np.all(new_shot_of == 0)

    def test_fork_splits_and_renormalizes(self):
        rng = np.random.default_rng(1)
        shot_of = np.zeros(1000, dtype=np.int64)
        bits, new_shot_of, spec = fork_outcomes(np.array([0.5]), shot_of, rng)
        _, outcome, scale = spec
        assert outcome.tolist() == [0, 1]
        assert scale == pytest.approx(math.sqrt(2.0))
        assert np.array_equal(outcome[new_shot_of], bits.values)

    def test_fork_matches_the_per_branch_loop_it_replaced(self):
        # The O(B*S) loop the one-sort fork replaced, kept as the
        # reference: same draws, so bits, assignment and spec must be
        # equal to the last bit (counts per seed, inproc == mp).
        def loop_fork(p1, shot_of, rng):
            bits = (rng.random(shot_of.size) < p1[shot_of]).astype(np.int64)
            spec, new_shot_of = [], np.empty_like(shot_of)
            for b in range(p1.size):
                for outcome in (0, 1):
                    sel = (shot_of == b) & (bits == outcome)
                    if sel.any():
                        p = p1[b] if outcome else 1.0 - p1[b]
                        new_shot_of[sel] = len(spec)
                        spec.append((b, outcome, 1.0 / math.sqrt(p)))
            return bits, new_shot_of, spec

        rng = np.random.default_rng(5)
        p1 = rng.random(48)
        p1[[3, 17]] = 0.0, 1.0  # deterministic branches never fork
        shot_of = rng.integers(0, 40, size=700)  # branches 40..47 hold no shot
        bits, new_shot_of, spec = fork_outcomes(p1, shot_of, np.random.default_rng(9))
        ref_bits, ref_shot_of, ref_spec = loop_fork(p1, shot_of, np.random.default_rng(9))
        assert np.array_equal(bits.values, ref_bits)
        assert np.array_equal(new_shot_of, ref_shot_of)
        assert [tuple(t) for t in zip(*(a.tolist() for a in spec))] == ref_spec

    def test_branch_mask_unanimity(self):
        shot_of = np.array([0, 0, 1, 1])
        mask = branch_mask(ShotBits([1, 1, 0, 0]), shot_of, 2)
        assert list(mask) == [True, False]
        # nonzero (not just 1) counts as true: the `r & 2` idiom
        mask = branch_mask(ShotBits([2, 2, 0, 0]), shot_of, 2)
        assert list(mask) == [True, False]
        with pytest.raises(ShotDivergenceError):
            branch_mask(ShotBits([1, 0, 0, 0]), shot_of, 2)
        # scalars broadcast (None is plain false)
        assert list(branch_mask(1, shot_of, 2)) == [True, True]
        assert list(branch_mask(None, shot_of, 2)) == [False, False]


# ----------------------------------------------------------------------
# single-pass evolution (the acceptance-criterion white-box check)
# ----------------------------------------------------------------------
def _ghz(qc, n):
    q = qc.alloc_qmem(n)
    qc.h(q[0])
    for i in range(n - 1):
        qc.cnot(q[i], q[i + 1])
    return [qc.measure(x) for x in q]


def _chi2_uniform_pair(counts, total):
    """Chi-square statistic of a 50/50 split over two observed keys."""
    exp = total / 2.0
    return sum((counts.get(k, 0) - exp) ** 2 / exp for k in ("0" * 16, "1" * 16))


def test_ghz16_shots_runs_segments_once_and_matches_distribution():
    shots = 4096
    with qmpi_run(1, _ghz, args=(16,), seed=11, shots=shots) as w:
        batched = w.backend._sv.segments_executed
        counts = w.counts
    w1 = qmpi_run(1, _ghz, args=(16,), seed=11)
    single = w1.backend._sv.segments_executed
    # state evolution ran exactly once: same segment count as one shot
    assert batched == single
    assert set(counts) <= {"0" * 16, "1" * 16}
    assert sum(counts.values()) == shots
    # 50/50 at p=0.001 (df=1)
    assert _chi2_uniform_pair(counts, shots) < chi2.ppf(0.999, df=1)


def test_ghz_shots_matches_looped_single_shot_distribution():
    shots = 600
    w = qmpi_run(1, _ghz, args=(3,), seed=5, shots=shots)
    batched = w.counts
    looped = Counter()
    for s in range(shots):
        w1 = qmpi_run(1, _ghz, args=(3,), seed=10_000 + s)
        looped["".join(map(str, w1.results[0]))] += 1
    assert set(batched) == set(looped) == {"000", "111"}
    # two binomial samples of the same p: difference bounded by ~4 sigma
    p_b = batched["111"] / shots
    p_l = looped["111"] / shots
    assert abs(p_b - p_l) < 4.0 * math.sqrt(0.5 / shots)


# ----------------------------------------------------------------------
# protocols under shots (1 / 2 / 4 ranks)
# ----------------------------------------------------------------------
def _teleport(qc, theta):
    if qc.rank == 0:
        q = qc.alloc_qmem(1)
        qc.ry(q[0], theta)
        qc.send_move(q, 1)
        return None
    if qc.rank == 1:
        t = qc.alloc_qmem(1)
        qc.recv_move(t, 0)
        return qc.measure(t[0])
    return None


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_teleport_shots_distribution(n_ranks):
    theta, shots = 1.1, 2048
    w = qmpi_run(n_ranks, _teleport, args=(theta,), seed=3, shots=shots)
    counts = w.counts
    # only the user measurement is logged — protocol parity bits
    # (measure_and_release) must not leak into the histogram
    assert all(len(k) == 1 for k in counts)
    p = math.sin(theta / 2) ** 2
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(counts.get("1", 0) / shots - p) < 5 * sigma


def test_fanout_copies_agree_per_shot():
    def prog(qc):
        if qc.rank == 0:
            q = qc.alloc_qmem(1)
            qc.h(q[0])
            qc.send(q, 1)
            qc.barrier()
            return qc.measure(q[0])
        t = qc.alloc_qmem(1)
        qc.recv(t, 0)
        m = qc.measure(t[0])
        qc.barrier()
        return m

    w = qmpi_run(2, prog, seed=9, shots=512)
    m0, m1 = w.results
    assert isinstance(m0, ShotBits) and m0 == m1
    assert set(w.counts) <= {"00", "11"}


def test_cat_bcast_shots_four_ranks():
    def prog(qc):
        q = qc.alloc_qmem(1)
        if qc.rank == 0:
            qc.x(q[0])
        qc.bcast(q, root=0, algorithm="cat")
        return qc.measure(q[0])

    w = qmpi_run(4, prog, seed=2, shots=128)
    assert w.counts == Counter({"1111": 128})


def test_shared_and_sharded_shots_agree_bit_for_bit():
    def prog(qc):
        q = qc.alloc_qmem(3)
        qc.h(q[0])
        qc.cnot(q[0], q[1])
        m0 = qc.measure(q[0])
        qc.h(q[2])
        m2 = qc.measure(q[2])
        return [m0, m2]

    a = qmpi_run(1, prog, seed=13, shots=256, backend="shared")
    b = qmpi_run(1, prog, seed=13, shots=256, backend="sharded", n_shards=4)
    assert a.results[0][0] == b.results[0][0]
    assert a.results[0][1] == b.results[0][1]
    assert a.counts == b.counts


def test_mid_circuit_fork_conditional_fixup():
    # measure |+>, then undo the collapse with a conditioned X: the
    # second measurement must equal the first deterministically per shot
    def prog(qc):
        q = qc.alloc_qmem(2)
        qc.h(q[0])
        qc.cnot(q[0], q[1])
        m = qc.measure(q[0])
        qc.backend.apply_pauli_if(qc.rank, m, "X", q[1])
        return [m, qc.measure(q[1])]

    w = qmpi_run(1, prog, seed=21, shots=300)
    m, m1 = w.results[0]
    assert m.counts()[1] > 0 and m.counts()[0] > 0  # genuinely forked
    assert m1 == ShotBits([0] * 300)  # fixup undid the correlation


def test_divergent_branch_raises_shot_divergence():
    def prog(qc):
        q = qc.alloc_qmem(1)
        qc.h(q[0])
        m = qc.measure(q[0])
        if m:  # program-level branch on divergent data
            qc.x(q[0])
        return m

    with pytest.raises(Exception) as exc_info:
        qmpi_run(1, prog, seed=1, shots=64)
    assert "ShotDivergence" in repr(exc_info.value) or isinstance(
        exc_info.value, ShotDivergenceError
    )


# ----------------------------------------------------------------------
# world object / construction surface (ISSUE 6 satellites)
# ----------------------------------------------------------------------
def test_world_indexing_iteration_and_context_manager():
    with qmpi_run(2, _teleport, args=(0.0,), seed=0) as w:
        assert len(w) == 2
        assert w[1] == w.results[1]
        assert list(w) == w.results
        with pytest.raises(RuntimeError, match="shots"):
            w.counts
    # close() is a no-op: a second call after the block is fine
    w.close()


def test_backend_plain_keyword_construction():
    w = qmpi_run(1, _ghz, args=(2,), seed=0, backend="sharded", n_shards=8)
    assert w.backend._sv.n_shards == 8
