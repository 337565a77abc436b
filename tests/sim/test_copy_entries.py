"""Fan-out copies as register entries, on both engines.

Outside shots mode a ``send``'s copy (Fig. 3(a)) is the entry
``qid -> (source, flip)`` — the qubit holds ``source XOR flip`` — not a
store bit.  X toggles the flip, Z and the X-basis uncopy negate a half
of the source, and a diagonal op on an unflipped copy runs on the source
(``Register.route_copies``); everything else materialises the copy as
the bit ``_fan_out`` builds in shots mode.  These tests pin each rule,
the one rewrite both gate entry points share, and Listing 1 end to end:
no store bit beyond its 16 spins, the dense oracle's state, and the
protocol bits of the engine that made every copy an axis — on the
shared store and on the sharded store with one and four chunks.
"""

import numpy as np
import pytest

from repro.apps.tfim import tfim_program
from repro.qmpi import QuantumBackend, qmpi_run
from repro.sim.ops import Op
from tests import _dense_oracle as oracle
from tests._engines import ENGINES
from tests._precision import STATE_ATOL

N = 4  # register qubits 0..3; the EPR pair gets ids 4, 5


@pytest.fixture(params=sorted(ENGINES))
def make(request):
    return ENGINES[request.param]


def fanned_out(make, seed=0):
    """A 4-qubit entangled register whose qubit 1 is fanned out to qubit 5.

    Returns the engine and its twin built by the gate spelling
    (``cnot(1, 5)`` on a fresh 5; the measured half 4 is released as
    ``|0>``), their RNG streams in step.
    """
    angles = np.random.default_rng(seed).uniform(0.2, 2.9, size=N)
    engines = []
    for _ in range(2):
        sv = make(N, seed=seed)
        for q, t in enumerate(angles):
            sv.ry(q, float(t))
        for q in range(N - 1):
            sv.cnot(q, q + 1)
        engines.append(sv)
    one, twin = engines
    e, f = one.alloc(2)
    one.entangle_fresh(e, f)
    m = one.measure_and_release(e, control=1)
    one.apply_pauli_if(m, "X", f)
    twin.alloc(2)
    twin.cnot(1, f)
    twin.release(e)
    twin.rng.random()  # the fan-out's draw: the two streams stay in step
    return one, twin, f


def state(sv):
    return sv.statevector(sorted(sv.qubit_ids))


def test_fan_out_keeps_the_copy_an_entry(make):
    sv, twin, f = fanned_out(make)
    assert sv._copies == {f: (1, 0)} and sv.store_qubits == N
    assert sv.num_qubits == twin.num_qubits == N + 1
    assert sv.qubit_ids == twin.qubit_ids == (0, 1, 2, 3, f)
    np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)
    assert not sv._copies  # a reader materialises


@pytest.mark.parametrize("pauli", ["X", "Z", "XZ", "ZX", "XX"])
def test_pauli_fix_ups_on_a_copy_stay_entries(make, pauli):
    sv, twin, f = fanned_out(make, seed=3)
    for p in pauli:
        sv.apply_pauli_if(1, p, f)
        twin.apply_pauli_if(1, p, f)
        sv.apply_pauli_if(0, p, f)  # a false condition is a no-op
    assert f in sv._copies and sv.store_qubits == N
    assert sv._copies[f][1] == pauli.count("X") % 2
    np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)


def test_identity_fix_up_on_a_copy_is_a_no_op(make):
    sv, twin, f = fanned_out(make, seed=4)
    sv.apply_pauli_if(1, "I", f)
    assert sv._copies == {f: (1, 0)}
    np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)


@pytest.mark.parametrize("flip", [0, 1])
def test_x_basis_uncopy_matches_the_axis_path(make, flip):
    for seed in range(20):
        sv, twin, f = fanned_out(make, seed)
        if flip:
            sv.apply_pauli_if(1, "X", f)
            twin.x(f)
        bit = sv.measure_and_release(f, basis="X")
        assert bit == twin.measure_and_release(f, basis="X")
        assert sv.rng.random() == twin.rng.random()  # one draw each
        assert f not in sv._copies and sv.store_qubits == N
        np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)


ROUTES = [
    # (op on the copy f = 5 or its source 1, entry kept, op the engine runs)
    (Op("rz", (5,), (0.4,)), True, Op("rz", (1,), (0.4,))),
    (Op("rzz", (3, 5), (0.7,)), True, Op("rzz", (3, 1), (0.7,))),
    (Op("crz", (5, 0), (-0.3,)), True, Op("crz", (1, 0), (-0.3,))),
    (Op("t", (1,)), True, Op("t", (1,))),  # diagonal on the source
    (Op("rzz", (1, 5), (0.7,)), False, None),  # would repeat qubit 1
    (Op("h", (5,)), False, None),
    (Op("cnot", (5, 2)), False, None),
    (Op("h", (1,)), False, None),  # non-diagonal on the source
    (Op("cnot", (1, 2)), False, None),
    (Op("rz", (2,), (0.4,)), True, Op("rz", (2,), (0.4,))),  # neither
]


@pytest.mark.parametrize("op,kept,runs", ROUTES, ids=lambda v: repr(v)[:40])
def test_route_copies_rewrites_diagonals_and_materialises_the_rest(make, op, kept, runs):
    sv, twin, f = fanned_out(make, seed=5)
    routed = sv.route_copies((op,))
    assert (f in sv._copies) == kept
    assert sv.store_qubits == (N if kept else N + 1)
    assert routed == ((runs,) if kept else (op,))
    sv.apply_ops(routed)
    twin.apply_ops((op,))
    np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)


def test_a_flipped_copy_materialises_before_a_diagonal(make):
    sv, twin, f = fanned_out(make, seed=6)
    sv.apply_pauli_if(1, "X", f)
    twin.x(f)
    sv.rz(f, 0.9)
    twin.rz(f, 0.9)
    assert not sv._copies and sv.store_qubits == N + 1
    np.testing.assert_allclose(state(sv), state(twin), atol=STATE_ATOL)


@pytest.mark.parametrize(
    "step",
    [
        lambda sv, f: sv.measure(1),
        lambda sv, f: sv.measure_and_release(1, basis="X"),
        lambda sv, f: sv.apply_pauli_if(1, "X", 1),
        lambda sv, f: sv.postselect(1, 0),
        lambda sv, f: sv.prob_one(f),
        lambda sv, f: sv.begin_shots(4),
    ],
    ids=["measure-source", "x-measure-source", "x-on-source", "postselect", "prob_one",
         "begin_shots"],
)
def test_steps_that_need_the_axis_materialise_first(make, step):
    sv, twin, f = fanned_out(make, seed=7)
    want = np.asarray(step(twin, f), dtype=float)  # an outcome, P(1) or None
    np.testing.assert_allclose(np.asarray(step(sv, f), dtype=float), want, atol=STATE_ATOL)
    assert not sv._copies

    def amplitudes(e):
        if e.shots is None:
            return e.statevector(sorted(e.qubit_ids))
        return np.concatenate([a.reshape(-1) for a in e._arrays()])

    np.testing.assert_allclose(amplitudes(sv), amplitudes(twin), atol=STATE_ATOL)


def test_copy_keeps_entries_and_no_copies_means_no_rewrite(make):
    sv, _, f = fanned_out(make)
    dup = sv.copy()
    assert dup._copies == sv._copies and dup._copies is not sv._copies
    ops = (Op("rz", (0,), (0.1,)),)
    assert make(2, seed=0).route_copies(ops) is ops  # no copies: no rewrite


def test_shots_mode_fans_out_to_a_bit(make):
    sv = make(N, seed=0)
    sv.begin_shots(8)
    e, f = sv.alloc(2)
    sv.entangle_fresh(e, f)
    sv.measure_and_release(e, control=1)
    assert not sv._copies and f in sv._bit_of


def watched(make, seed):
    """An engine that tracks its store's qubit count and the protocol bits
    in draw order."""

    class Watched(make.func):
        peak = 0

        def _grow(self, k, terms):
            super()._grow(k, terms)
            self.peak = max(self.peak, self.store_qubits)

        def measure_and_release(self, qubit, basis="Z", control=None):
            bit = super().measure_and_release(qubit, basis, control)
            self.bits.append(bit)
            return bit

    engine = Watched(seed=seed, **make.keywords)
    engine.bits = []
    return engine


def test_flush_cache_keys_the_rewritten_op(make):
    """A ring-boundary flush ``rzz(a, copy)`` runs as ``rzz(a, source)``:
    the register never grows, and the next round's fresh copy replays
    the cached schedule."""

    def prog(qc):
        data = qc.alloc_qmem(2)
        for q in data:
            qc.h(q)
        qc.flush_ops()
        qc.barrier()
        for _ in range(3):
            if qc.rank == 0:
                qc.send([data[0]], dest=1)
                qc.unsend([data[0]], dest=1)
            else:
                (copy,) = qc.recv(qc.alloc_qmem(1), source=0)
                qc.rzz(data[1], copy, 0.3)
                qc.unrecv([copy], source=0)
        qc.barrier()
        return list(data)

    engine = watched(make, seed=1)
    be = QuantumBackend(engine)
    w = qmpi_run(2, prog, backend=be)
    assert engine.peak == 4
    info = be.cache_info()
    assert info["misses"] >= 1 and info["hits"] >= 2
    (a0, a1), (b0, b1) = w.results
    psi = np.full(16, 0.25, dtype=complex)
    for _ in range(3):
        psi = oracle.apply(psi, oracle.GATES["rzz"](0.3), (3, 0), 4)
    np.testing.assert_allclose(be.statevector([a0, a1, b0, b1]), psi, atol=STATE_ATOL)


# ----------------------------------------------------------------------
# Listing 1 (repro.apps.tfim) on 4 ranks x 4 spins
# ----------------------------------------------------------------------
J, G, TIME, SPINS, STEPS = 0.7, 0.4, 0.3, 4, 2
#: Protocol bits (fan-out and uncopy outcomes) in draw order, seeds 0-9,
#: pinned from the engine that made every copy an axis.  Every draw is
#: a fair coin, so the sequence is fixed by the seed whatever the thread
#: interleaving.
PINNED_BITS = [
    "0111000000010101", "0010110101001011", "1101001110011010", "1100111101101000",
    "0001010100011001", "0001111110011000", "0111000101101000", "0001101001111100",
    "1010011111111101", "0100000011111000",
]  # fmt: skip


@pytest.fixture(scope="module")
def tfim_oracle():
    n = 4 * SPINS
    dt = TIME / STEPS
    psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)  # |+...+>
    for _ in range(STEPS):
        for i in range(n):  # every ring edge; the ZZ terms commute
            psi = oracle.apply(psi, oracle.GATES["rzz"](2 * J * dt), (i, (i + 1) % n), n)
        for i in range(n):
            psi = oracle.apply(psi, oracle.GATES["rx"](-2 * G * dt), (i,), n)
    return psi


@pytest.mark.parametrize("seed", range(10))
def test_listing1_never_grows_past_its_spins(make, seed, tfim_oracle):
    engine = watched(make, seed)
    w = qmpi_run(4, tfim_program, args=(J, G, TIME, SPINS, STEPS), backend=QuantumBackend(engine))
    assert engine.peak == 4 * SPINS
    assert "".join(map(str, engine.bits)) == PINNED_BITS[seed]
    snap = w.ledger.snapshot()
    assert (snap.epr_pairs, snap.classical_bits) == (4 * STEPS, 8 * STEPS)
    vec = w.backend.statevector([q for block in w.results for q in block])
    np.testing.assert_allclose(vec, tfim_oracle, rtol=0, atol=STATE_ATOL)
