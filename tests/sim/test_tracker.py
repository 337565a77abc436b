"""Gate-counting wrapper tests."""

from repro.sim import TrackedStateVector


def test_named_gate_counts():
    sv = TrackedStateVector(3, seed=0)
    sv.h(0)
    sv.h(1)
    sv.cnot(0, 1)
    sv.rz(2, 0.5)
    sv.rx(2, 0.1)
    sv.toffoli(0, 1, 2)
    c = sv.counts
    assert c.gates["h"] == 2
    assert c.gates["cnot"] == 1
    assert c.gates["rz"] == 1
    assert c.gates["rx"] == 1
    assert c.gates["toffoli"] == 1
    assert c.total_gates() == 6
    assert c.rotations() == 2


def test_alloc_release_measure_counts():
    sv = TrackedStateVector(seed=0)
    ids = sv.alloc(3)
    sv.x(ids[0])
    sv.measure(ids[0])
    sv.release(ids[1])
    c = sv.counts
    assert c.allocations == 3
    assert c.releases == 1
    assert c.measurements == 1
    assert c.peak_qubits == 3


def test_epr_round_counts():
    # Pending qubits count as allocated, and the fused measure-out
    # counts as one measurement and one release although it passes
    # through neither measure() nor release().
    sv = TrackedStateVector(2, seed=0)
    sv.h(0)
    e, f = sv.alloc(2)
    assert sv.counts.peak_qubits == 4
    sv.entangle_fresh(e, f)
    sv.cnot(0, e)
    bit = sv.measure_and_release(e)
    sv.apply_pauli_if(bit, "X", f)
    (g,) = sv.alloc(1)
    assert sv.measure_and_release(g) == 0  # never merged: still counted
    c = sv.counts
    assert (c.allocations, c.measurements, c.releases, c.peak_qubits) == (5, 2, 2, 4)
    assert c.gates["h"] == 1 and c.gates["cnot"] == 1
    assert c.gates["u1"] == bit  # the conditional fixup, when it ran
    assert sv.prob_one(0) == sv.prob_one(f)


def test_protocol_measurement_counts_equal_the_two_call_spelling():
    # The short-cuts run no gate, the fall-backs run an eager one: either
    # way one cnot per control=, one h per basis="X", never two.
    def run(one_call):
        sv = TrackedStateVector(2, seed=3)
        sv.ry(0, 0.7)
        sv.cnot(0, 1)
        e, copy = sv.alloc(2)
        sv.entangle_fresh(e, copy)
        (anc,) = sv.alloc(1)
        if one_call:
            bits = [
                sv.measure_and_release(e, control=0),  # fan-out short-cut
                sv.measure_and_release(copy, basis="X"),  # X-basis drop
                sv.measure_and_release(anc, basis="X", control=1),  # composition
            ]
        else:
            bits = []
            for qubit, basis, control in ((e, "Z", 0), (copy, "X", None), (anc, "X", 1)):
                if control is not None:
                    sv.cnot(control, qubit)
                if basis == "X":
                    sv.h(qubit)
                bits.append(sv.measure_and_release(qubit))
        return bits, sv.counts.as_dict()

    bits, counts = run(one_call=True)
    assert (bits, counts) == run(one_call=False)
    assert counts["gates"] == {"ry": 1, "cnot": 3, "h": 2}
    assert (counts["measurements"], counts["releases"]) == (3, 3)


def test_as_dict_roundtrip():
    sv = TrackedStateVector(1, seed=0)
    sv.h(0)
    d = sv.counts.as_dict()
    assert d["gates"] == {"h": 1}
    assert d["total_gates"] == 1
    assert d["peak_qubits"] == 1


def test_generic_apply_counts():
    import numpy as np

    sv = TrackedStateVector(2, seed=0)
    sv.apply(np.eye(4), 0, 1)
    assert sv.counts.gates["u2"] == 1
    sv.apply_controlled(np.eye(2), [0], [1])
    assert sv.counts.gates["c1u1"] == 1


def test_tallies_are_post_peephole():
    # The stream folds cnot . rz . cnot into one rzz before the engine
    # sees it; fusion="off" gives the program's literal gates.
    from repro.qmpi import QuantumBackend, qmpi_run

    def prog(qc):
        c, t = qc.alloc_qmem(2)
        qc.cnot(c, t)
        qc.rz(t, 0.4)
        qc.cnot(c, t)

    def tally(fusion):
        sv = TrackedStateVector(seed=0)
        # cache="off": a cached flush replays a frozen program past apply_ops
        qmpi_run(1, prog, backend=QuantumBackend(sv, cache="off"), fusion=fusion)
        return dict(sv.counts.gates)

    assert tally("off") == {"cnot": 2, "rz": 1}
    assert tally("nodiag") == tally("auto") == {"rzz": 1}
