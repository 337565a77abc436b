"""Gate/measurement counting for resource accounting.

The QMPI resource ledger (Tables 1-3) counts EPR pairs and classical bits;
this tracker counts the *local* quantum cost underneath: how many gates of
each kind, how many measurements, peak qubit usage. Useful for the SENDQ
rule of thumb that rotations dominate (§5.1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["GateCounts", "TrackedStateVector"]

from .diag import DiagBatch
from .gates import bind_engine_gates
from .statevector import StateVector


@dataclass
class GateCounts:
    """Mutable tally of simulator activity."""

    gates: Counter = field(default_factory=Counter)
    measurements: int = 0
    allocations: int = 0
    releases: int = 0
    peak_qubits: int = 0

    def total_gates(self) -> int:
        return sum(self.gates.values())

    def rotations(self) -> int:
        """Count of arbitrary-angle rotations (the expensive gates in §3)."""
        return sum(v for k, v in self.gates.items() if k in ("rx", "ry", "rz"))

    def as_dict(self) -> dict:
        return {
            "gates": dict(self.gates),
            "total_gates": self.total_gates(),
            "rotations": self.rotations(),
            "measurements": self.measurements,
            "allocations": self.allocations,
            "releases": self.releases,
            "peak_qubits": self.peak_qubits,
        }


class TrackedStateVector(StateVector):
    """A :class:`StateVector` that tallies every operation it performs.

    Tallies are post-peephole: behind an :class:`~repro.qmpi.stream.OpStream`
    the engine sees what the stream recorded, not what the program
    spelled — fused single-qubit products count as ``u1``, a folded
    ``cnot . rz . cnot`` as one ``rzz`` (a ``u2`` pair table once it is
    coalesced into a ``DiagBatch``).  ``fusion="off"`` gives the
    program's literal gates.  Batches are tallied in :meth:`apply_ops`,
    which a backend's schedule cache replays past: count with
    ``cache="off"``.
    """

    def __init__(self, n_qubits: int = 0, seed=None):
        self.counts = GateCounts()
        super().__init__(n_qubits=n_qubits, seed=seed)

    # -- bookkeeping hooks ----------------------------------------------
    def alloc(self, n: int = 1):
        ids = super().alloc(n)
        self.counts.allocations += n
        self.counts.peak_qubits = max(self.counts.peak_qubits, self.num_qubits)
        return ids

    def release(self, qubit: int) -> None:
        super().release(qubit)
        self.counts.releases += 1

    def measure(self, qubit: int) -> int:
        bit = super().measure(qubit)
        self.counts.measurements += 1
        return bit

    def measure_and_release(self, qubit: int, basis: str = "Z", control: int | None = None):
        # The fused primitive passes through neither hook above, and its
        # short-cuts skip apply()/apply_controlled(): tally the gate the
        # call stands for when no eager one was counted.
        gates = self.counts.gates
        seen = gates["cnot"], gates["h"]
        bit = super().measure_and_release(qubit, basis, control)
        self.counts.measurements += 1
        self.counts.releases += 1
        if control is not None and gates["cnot"] == seen[0]:
            gates["cnot"] += 1
        if basis == "X" and gates["h"] == seen[1]:
            gates["h"] += 1
        return bit

    def _apply_pauli(self, pauli, qubit, rows) -> None:
        super()._apply_pauli(pauli, qubit, rows)
        self.counts.gates["u1"] += 1

    #: Gate name a generated named-gate method is running under: its
    #: apply()/apply_controlled() call tallies that instead of the
    #: generic tag, keeping the counts human readable.
    _named: str | None = None

    def apply(self, u, *qubits) -> None:
        super().apply(u, *qubits)
        self.counts.gates[self._named or f"u{len(qubits)}"] += 1

    def apply_controlled(self, u, controls, targets) -> None:
        super().apply_controlled(u, controls, targets)
        generic = f"c{len(list(controls))}u{len(list(targets))}"
        self.counts.gates[self._named or generic] += 1

    def apply_ops(self, ops) -> None:
        # Batches execute as frozen programs that never pass through
        # apply()/apply_controlled(), so tally at the op level: the gate
        # name for registry ops, u{k} for explicit matrices (fused /
        # unitary ops and contraction plans carry no controls), and for
        # a coalesced DiagBatch its phase tables — one u1 per
        # single-qubit table, one u2 per pair table — matching the
        # engine work the batch actually performs (merged repeats count
        # once, exactly like peephole-fused products).
        ops = tuple(ops)
        super().apply_ops(ops)
        gates = self.counts.gates
        for op in ops:
            if isinstance(op, DiagBatch):
                if op.phases1:
                    gates["u1"] += len(op.phases1)
                if op.phases2:
                    gates["u2"] += len(op.phases2)
            else:
                gates[op.gate if op.spec is not None else f"u{len(op.qubits)}"] += 1


def _count_by_name(gd, body):
    def counted(self, args):
        self._named = gd.name
        try:
            body(self, args)
        finally:
            self._named = None

    return counted


bind_engine_gates(TrackedStateVector, wrap=_count_by_name)
