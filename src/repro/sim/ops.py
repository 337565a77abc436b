"""The typed operation record both engines execute.

An :class:`Op` names one gate — a :data:`~repro.sim.gates.GATESET`
name or :data:`~repro.sim.gates.UNITARY` with an explicit matrix — its
qubit operands and its rotation parameters.  Batches of ops (plus the
:class:`~repro.sim.diag.DiagBatch` and
:class:`~repro.sim.plan.ContractionPlan` records lowered from them) are
what ``apply_ops`` compiles and runs; the sharded engine's eager gate
methods are one-op batches of them.  It lives here, beside the gate
table, so :mod:`repro.sim` stays importable without :mod:`repro.qmpi`
(which re-exports it as :class:`repro.qmpi.ops.Op`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gates as G
from .gates import GATESET, UNITARY, GateDef
from .statevector import SimulationError

__all__ = ["Op"]


@dataclass(frozen=True)
class Op:
    """One quantum operation: frozen, validated at construction.

    ``gate`` is a :data:`GATESET` name or :data:`UNITARY`; for the
    latter, ``u`` carries the explicit (target) matrix. ``qubits`` lists
    controls first (per the gate's :class:`GateDef`), then targets.
    """

    gate: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    #: Explicit target matrix, only for ``gate == UNITARY`` ops.
    u: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(set(self.qubits)) != len(self.qubits):
            raise SimulationError(f"duplicate qubits in {self.qubits}")
        if self.gate == UNITARY:
            if self.u is None:
                raise ValueError("unitary ops require an explicit matrix")
            dim = 1 << len(self.qubits)
            mat = np.asarray(self.u, dtype=np.complex128)
            if mat.shape != (dim, dim):
                raise SimulationError(
                    f"matrix shape {mat.shape} does not match {len(self.qubits)} qubits"
                )
            object.__setattr__(self, "u", mat)
            return
        spec = GATESET.get(self.gate)
        if spec is None:
            raise ValueError(f"unknown gate {self.gate!r}; known: {sorted(GATESET)}")
        if len(self.qubits) != spec.n_qubits:
            raise ValueError(
                f"{self.gate}({spec.signature()}) takes {spec.n_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(self.params) != spec.n_params:
            raise ValueError(
                f"{self.gate}({spec.signature()}) takes {spec.n_params} parameters, "
                f"got {len(self.params)}"
            )

    def rebind(self, qubits=None, params=None) -> "Op":
        """A clone with replaced qubits/params, skipping re-validation.

        For trusted template rebinding (the schedule cache replay hot
        path): the template already passed ``__post_init__`` and the
        replacement fields are structurally identical — same arity,
        ints/floats from an already-validated payload — so the clone
        only swaps tuples.
        """
        clone = object.__new__(Op)
        object.__setattr__(clone, "gate", self.gate)
        object.__setattr__(
            clone, "qubits", self.qubits if qubits is None else tuple(qubits)
        )
        object.__setattr__(
            clone, "params", self.params if params is None else tuple(params)
        )
        object.__setattr__(clone, "u", self.u)
        return clone

    # -- structure -------------------------------------------------------
    @property
    def spec(self) -> GateDef | None:
        """The registry entry, or None for :data:`UNITARY` ops."""
        return GATESET.get(self.gate)

    @property
    def n_controls(self) -> int:
        """Number of control qubits (0 for :data:`UNITARY` ops)."""
        spec = self.spec
        return spec.n_controls if spec is not None else 0

    @property
    def controls(self) -> tuple[int, ...]:
        """The control qubits (a prefix of :attr:`qubits`; may be empty)."""
        return self.qubits[: self.n_controls]

    @property
    def targets(self) -> tuple[int, ...]:
        """The target qubits (everything after the controls)."""
        return self.qubits[self.n_controls :]

    # -- semantics -------------------------------------------------------
    def target_matrix(self) -> np.ndarray:
        """The unitary on the target qubits (controls excluded)."""
        if self.u is not None:
            return self.u
        return self.spec.target_matrix(self.params)  # type: ignore[union-attr]

    def matrix(self) -> np.ndarray:
        """The full unitary over :attr:`qubits`, controls included.

        Controls are the most significant axes; the result is
        ``2^k x 2^k`` for ``k = len(qubits)``.
        """
        m = self.target_matrix()
        nc = self.n_controls
        return G.controlled(m, nc) if nc else m

    @cached_property
    def is_diagonal(self) -> bool:
        """True iff the full operator is diagonal in the Z basis.

        Diagonal ops commute with each other, coalesce into
        :class:`~repro.sim.diag.DiagBatch` records at flush time, and
        never need chunk exchange on the sharded engine.
        """
        spec = self.spec
        if spec is not None:
            return spec.diagonal
        m = self.u
        if m.shape == (2, 2):  # the fused-single hot path
            return m[0, 1] == 0 and m[1, 0] == 0
        return bool(np.count_nonzero(m - np.diag(np.diagonal(m))) == 0)

    @property
    def is_single(self) -> bool:
        """An uncontrolled one-qubit op (the fusable kind)."""
        return len(self.qubits) == 1 and self.n_controls == 0
