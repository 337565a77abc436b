"""Typed operation IR for the QMPI gate path.

Every local gate a program issues becomes an :class:`Op` record — gate
kind, qubit operands, rotation parameters — instead of an eager
per-gate backend call. Ops are the unit the whole pipeline speaks:

* :class:`~repro.qmpi.stream.OpStream` buffers and fuses them per rank;
* ``QuantumBackend.apply_flush(rank, ops)`` takes a stream's flushed
  buffer and ``apply_ops(rank, ops)`` an already-lowered batch (the
  legacy ``h``/``x``/.../``toffoli`` methods are thin shims that emit
  one-op batches through it);
* the engines (``StateVector.apply_ops`` / ``ShardedStateVector.apply_ops``)
  execute a whole batch in one pass.

The :data:`GATESET` registry is the canonical description of every
named gate (h, x, y, z, s, sdg, t, tdg, rx, ry, rz, phase, swap, cnot,
cz, crz, cphase, rzz, toffoli) — operand signature, control count,
target matrix, and diagonality. Both the record and the table live in
:mod:`repro.sim` — :class:`Op` in :mod:`repro.sim.ops`; :class:`GateDef`,
:data:`GATESET`, :func:`register_gate` and :func:`bind_gateset` in
:mod:`repro.sim.gates`, beside the matrices — so the engines can
generate their gate methods from them without importing this package;
the names below are re-exports of those same objects — one registry,
not two. Registering a new :class:`GateDef` via :func:`register_gate`
installs the matching method on ``QmpiComm``, ``QuantumBackend``,
``BackendProxy`` and all three engines (each subscribes through
:func:`bind_gateset`).
"""

from __future__ import annotations

from ..sim.diag import DiagBatch
from ..sim.gates import (
    GATESET,
    UNITARY,
    GateDef,
    bind_gateset,
    install_gate_method,
    register_gate,
)
from ..sim.ops import Op
from ..sim.plan import ContractionPlan

__all__ = [
    "Op",
    "GateDef",
    "DiagBatch",
    "ContractionPlan",
    "GATESET",
    "UNITARY",
    "register_gate",
    "bind_gateset",
    "install_gate_method",
]
