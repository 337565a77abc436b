"""Per-rank operation stream: gate buffering, fusion, batched dispatch.

Each :class:`~repro.qmpi.api.QmpiComm` owns one :class:`OpStream`. Gate
calls append :class:`~repro.qmpi.ops.Op` records instead of hitting the
backend one at a time; the stream peephole-fuses as it records and hands
the backend whole batches through ``apply_flush`` at every semantic
boundary (measurement, ``prob_one``, EPR preparation, p2p/collective
entry, barrier, qubit release, program exit).

Fusion rules
------------
* **Single-qubit fusion** — an uncontrolled one-qubit op is merged into
  the most recent buffered one-qubit op on the same qubit (one 2x2
  matrix product) whenever it can be commuted back to it: every op in
  between either touches disjoint qubits or is, like the new op,
  diagonal in the Z basis. Products that collapse to the identity are
  dropped outright.
* **ZZ folding** — ``cnot(c, t) . rz(t, theta) . cnot(c, t)`` is the
  diagonal ``exp(-i theta Z_c Z_t / 2)`` spelled with two non-diagonal
  gates (Listing 1's bonds, the tail of every Pauli-string exponential).
  Appending the closing ``cnot`` replaces the three records by one
  ``rzz(c, t, theta)`` when, commuting backwards over disjoint ops, the
  newest ops touching ``c`` or ``t`` are exactly that ``rz`` and that
  ``cnot``; anything else in between means no fold. The identity is
  exact, global phase included.
* **Diagonal coalescing** — diagonal ops (z, s, t, rz, rzz, cz, crz, cphase)
  commute with each other even on shared qubits, so runs of diagonal
  ops are transparent to the backward scan; long Rz chains on one qubit
  coalesce into a single diagonal regardless of interleaved diagonal
  traffic on other qubits.
* **Diagonal batching** — at flush time, maximal runs of diagonal ops
  collapse into one :class:`~repro.qmpi.ops.DiagBatch` record each
  (per-qubit / per-pair phase tables, see
  :func:`repro.sim.diag.coalesce_diagonals`), which the engines apply
  as a single precomputed phase-vector multiply.
* **Contraction planning** — after diagonal batching, contiguous runs
  of one-/two-qubit ops whose operands fit in a bounded window fuse
  into one :class:`~repro.qmpi.ops.ContractionPlan` each — a
  precontracted window unitary the engines apply as a single matmul
  per chunk (see :func:`repro.sim.plan.plan_contractions`). Planning
  is **size-aware** (:func:`repro.sim.schedule.lower_flush`): it is
  bypassed below :data:`~repro.sim.schedule.PLAN_MIN_QUBITS` (the
  matmul cannot amortize on small registers) and windows widen from
  three to four qubits on large ones.

The last two passes run behind the backend's ``apply_flush``, served
from its schedule cache. Fusion changes *nothing* semantically: the
fused matrix product equals the sequential application (plans never
reorder ops), diagonal ops commute so batching them is exact, and every
measurement-like operation flushes first. The escape hatch
``fusion="off"`` forwards each op eagerly as a one-op batch — the
literal program, for debugging and as the per-gate test reference.
"""

from __future__ import annotations

# Unused here; kept because benchmarks/e2e/layers.py wraps this name.
from ..sim.schedule import lower_flush  # noqa: F401
from .ops import UNITARY, Op

__all__ = ["OpStream", "FUSION_MODES"]

#: Every accepted ``fusion=`` mode: ``"auto"`` (buffer, fuse, lower at
#: flush) or ``"off"`` (eager per-gate dispatch).  Anything else raises
#: ``ValueError`` at construction.
FUSION_MODES = ("auto", "off")


class OpStream:
    """Records, fuses and batches the gate stream of one rank.

    Parameters
    ----------
    backend:
        The :class:`~repro.qmpi.backend.QuantumBackend` (or its ``mp``
        proxy) batches are dispatched to: ``apply_flush(rank, ops)``
        for a buffered flush, ``apply_ops(rank, ops)`` for an eager op.
    rank:
        The owning rank (ownership is checked at flush time).
    fusion:
        ``"auto"`` — buffer and fuse, then lower at flush (default);
        ``"off"`` — forward each op immediately, unfused and unbatched.
        Validated against :data:`FUSION_MODES`; anything else raises
        ``ValueError``.
    max_pending:
        Auto-flush threshold bounding buffer growth for long straight-
        line circuits.
    """

    def __init__(self, backend, rank: int, fusion="auto", max_pending: int = 256):
        if fusion not in FUSION_MODES:
            raise ValueError(
                f"fusion must be one of {FUSION_MODES}, got {fusion!r}"
            )
        self._backend = backend
        self._rank = rank
        self._eager = fusion == "off"
        self._buf: list[Op] = []
        self._max_pending = max_pending

    @property
    def fusion(self) -> bool:
        """Whether this stream buffers and fuses (False = eager per-gate path)."""
        return not self._eager

    @property
    def pending(self) -> int:
        """Number of ops currently buffered."""
        return len(self._buf)

    # ------------------------------------------------------------------
    def append(self, op: Op) -> None:
        """Record one op (applying it immediately when fusion is off)."""
        if self._eager:
            self._backend.apply_ops(self._rank, (op,))
            return
        if op.is_single:
            if self._try_fuse(op):
                return
        elif op.gate == "cnot" and self._try_fold_zz(op):
            return
        self._buf.append(op)
        if len(self._buf) >= self._max_pending:
            self.flush()

    def flush(self) -> None:
        """Dispatch everything buffered as one ``apply_flush`` batch.

        The backend lowers the raw buffer
        (:func:`repro.sim.schedule.lower_flush`: diagonal runs coalesce
        into :class:`~repro.qmpi.ops.DiagBatch` records, then — on
        large registers only — small-op runs fuse into
        :class:`~repro.qmpi.ops.ContractionPlan` records) and serves
        the lowering + compilation from its schedule cache (see
        :mod:`repro.sim.cache`). Over ``transport="mp"`` this is one
        RPC to the parent's backend and cache. On error (e.g. a
        locality violation) the buffered batch is discarded — partial
        replay would double-apply its prefix.
        """
        if self._buf:
            buf, self._buf = self._buf, []
            self._backend.apply_flush(self._rank, tuple(buf))

    # ------------------------------------------------------------------
    def _try_fold_zz(self, op: Op) -> bool:
        """Fold ``cnot(c, t) . rz(t, theta) . op`` into one ``rzz(c, t,
        theta)`` when ``op`` is the closing ``cnot(c, t)``: commuting
        backwards over disjoint ops, the newest buffered ops touching
        ``c`` or ``t`` must be exactly the ``rz`` and, before it, the
        opening ``cnot``. Returns True if folded."""
        c, t = op.qubits
        buf = self._buf
        rz_at = None
        for i in range(len(buf) - 1, -1, -1):
            prior = buf[i]
            if c not in prior.qubits and t not in prior.qubits:
                continue
            if rz_at is None:
                if prior.gate != "rz" or prior.qubits[0] != t:
                    return False
                rz_at = i
            elif prior.gate == "cnot" and prior.qubits == op.qubits:
                buf[i] = Op("rzz", op.qubits, buf[rz_at].params)
                del buf[rz_at]
                return True
            else:
                return False
        return False

    def _try_fuse(self, op: Op) -> bool:
        """Merge a single-qubit ``op`` into the newest compatible buffered
        one-qubit op on the same qubit, commuting backwards over disjoint
        or mutually-diagonal ops. Returns True if merged (or annihilated)."""
        q = op.qubits[0]
        diag = op.is_diagonal
        for i in range(len(self._buf) - 1, -1, -1):
            prior = self._buf[i]
            if prior.is_single and prior.qubits[0] == q:
                m = op.target_matrix() @ prior.target_matrix()
                if (  # scalar identity check: the allclose of the hot path
                    abs(m[0, 1]) < 1e-14
                    and abs(m[1, 0]) < 1e-14
                    and abs(m[0, 0] - 1.0) < 1e-14
                    and abs(m[1, 1] - 1.0) < 1e-14
                ):
                    del self._buf[i]
                else:
                    self._buf[i] = Op(UNITARY, (q,), u=m)
                return True
            if q in prior.qubits and not (diag and prior.is_diagonal):
                return False
        return False
