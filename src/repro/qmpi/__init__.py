"""QMPI — the quantum Message Passing Interface (the paper's contribution).

Layering:

* :mod:`~repro.qmpi.ops` — typed operation IR: :class:`Op` records and
  the canonical ``GATESET`` registry
* :mod:`~repro.qmpi.stream` — per-rank op streams: fusion + batched
  ``apply_ops`` dispatch
* :mod:`~repro.qmpi.backend` — quantum backends: shared (§6 semantics)
  and sharded (chunk-distributed amplitudes), behind one registry
* :mod:`~repro.qmpi.epr` — EPR pair establishment + S-limited buffers
* :mod:`~repro.qmpi.p2p` — copy/move sends and their inverses (Table 2)
* :mod:`~repro.qmpi.collectives` — Table 3 collectives incl. cat-state bcast
* :mod:`~repro.qmpi.reductions` — reversible reduction ops (PARITY, SUM)
* :mod:`~repro.qmpi.cat` — constant-depth cat states (Fig. 4)
* :mod:`~repro.qmpi.persistent` — §4.7 persistent requests
* :mod:`~repro.qmpi.api` — the QmpiComm facade and the qmpi_run launcher
"""

from . import collectives, p2p
from .api import QmpiComm, QmpiWorld, qmpi_run
from .backend import (
    BACKENDS,
    LocalityError,
    QuantumBackend,
    SharedBackend,
    ShardedBackend,
    make_backend,
    register_backend,
)
from .cat import CatHandle, cat_state_chain, cat_state_tree, uncat
from .datatypes import QMPI_QUBIT, QubitType, type_contiguous, type_indexed, type_vector
from .epr import EprBufferFull, EprService
from .ops import GATESET, UNITARY, ContractionPlan, DiagBatch, GateDef, Op, register_gate
from .persistent import PersistentChannel
from .qubit import Qureg
from .reductions import PARITY, SUM, QuantumOp
from .resource import Ledger, LedgerSnapshot
from .stream import FUSION_MODES, OpStream
from ..sim.schedule import DEFAULT_COST_MODEL, CostModel
from ..sim.shots import ShotBits, ShotDivergenceError

__all__ = [
    "QmpiComm",
    "QmpiWorld",
    "qmpi_run",
    "ShotBits",
    "ShotDivergenceError",
    "SharedBackend",
    "ShardedBackend",
    "QuantumBackend",
    "BACKENDS",
    "make_backend",
    "register_backend",
    "LocalityError",
    "Op",
    "GateDef",
    "DiagBatch",
    "ContractionPlan",
    "GATESET",
    "UNITARY",
    "register_gate",
    "OpStream",
    "FUSION_MODES",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "EprService",
    "EprBufferFull",
    "Qureg",
    "Ledger",
    "LedgerSnapshot",
    "PARITY",
    "SUM",
    "QuantumOp",
    "PersistentChannel",
    "QubitType",
    "QMPI_QUBIT",
    "type_contiguous",
    "type_vector",
    "type_indexed",
    "cat_state_chain",
    "cat_state_tree",
    "uncat",
    "CatHandle",
    "collectives",
    "p2p",
]
