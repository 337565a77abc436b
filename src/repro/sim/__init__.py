"""Quantum state-vector simulation substrate.

Public surface:

* :class:`~repro.sim.statevector.StateVector` — the engine
* :class:`~repro.sim.sharded.ShardedStateVector` — chunk-distributed engine
* :class:`~repro.sim.tracker.TrackedStateVector` — engine + gate tallies
* :mod:`~repro.sim.diag` — diagonal phase-vector batching (``DiagBatch``)
* :mod:`~repro.sim.plan` — per-chunk contraction plans (``ContractionPlan``)
* :mod:`~repro.sim.gates` — gate matrices and the ``GATESET`` table the
  engines' named-gate methods are generated from
* :mod:`~repro.sim.pauli` — Pauli-string application / rotation
* :mod:`~repro.sim.arith` — reversible adders for QMPI_SUM reductions
"""

from . import arith, diag, gates, pauli, plan, schedule
from .diag import DiagBatch, coalesce_diagonals
from .plan import ContractionPlan, plan_contractions
from .schedule import (
    DiagSegment,
    ExchangeSegment,
    KernelRun,
    PlanSegment,
    Segment,
    compile_segments,
    lower_flush,
)
from .sharded import ShardedStateVector
from .statevector import SimulationError, StateVector
from .tracker import GateCounts, TrackedStateVector

__all__ = [
    "StateVector",
    "ShardedStateVector",
    "TrackedStateVector",
    "GateCounts",
    "DiagBatch",
    "ContractionPlan",
    "coalesce_diagonals",
    "plan_contractions",
    "Segment",
    "KernelRun",
    "DiagSegment",
    "PlanSegment",
    "ExchangeSegment",
    "compile_segments",
    "lower_flush",
    "SimulationError",
    "diag",
    "plan",
    "schedule",
    "gates",
    "pauli",
    "arith",
]
