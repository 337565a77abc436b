"""Per-rank operation stream: gate buffering, fusion, batched dispatch.

Each :class:`~repro.qmpi.api.QmpiComm` owns one :class:`OpStream`. Gate
calls append :class:`~repro.qmpi.ops.Op` records instead of hitting the
backend one at a time; the stream peephole-fuses as it records and hands
the backend whole batches through ``apply_ops`` at every semantic
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
  is **size-aware** (:func:`repro.sim.schedule.lower_flush`): the cost
  model bypasses it below ``plan_min_qubits`` (the matmul cannot
  amortize on small registers) and widens windows from three to four
  qubits on large ones.

Fusion changes *nothing* semantically: the fused matrix product equals
the sequential application (plans never reorder ops), diagonal ops
commute so batching them is exact, and every measurement-like operation
flushes first. The escape hatch ``fusion="off"`` forwards each op
eagerly as a one-op batch, which is exactly the legacy per-gate path;
``fusion="noplan"`` keeps diagonal batching but skips contraction
planning (the PR 3 dispatch); ``fusion="nodiag"`` keeps only peephole
fusion (the PR 2 dispatch) — both retained as benchmark baselines.
"""

from __future__ import annotations

from ..sim.schedule import DEFAULT_COST_MODEL, CostModel, lower_flush
from .ops import UNITARY, Op

__all__ = ["OpStream", "FUSION_MODES"]

#: Every accepted ``fusion=`` mode string, strongest first.  ``True`` /
#: ``False`` are normalized to ``"on"`` / ``"off"``; anything else
#: raises ``ValueError`` at construction (a typo like ``"no_plan"``
#: must not silently degrade to the default pipeline).
FUSION_MODES = ("auto", "on", "noplan", "nodiag", "off")


class OpStream:
    """Records, fuses and batches the gate stream of one rank.

    Parameters
    ----------
    backend:
        The :class:`~repro.qmpi.backend.QuantumBackend` batches are
        dispatched to (via ``backend.apply_ops(rank, ops)``).
    rank:
        The owning rank (ownership is checked at flush time).
    fusion:
        ``"auto"``/``"on"``/``True`` — buffer, fuse, batch diagonals
        and plan contractions (default); ``"noplan"`` — everything but
        contraction planning; ``"nodiag"`` — buffer and fuse but skip
        diagonal batching and planning; ``"off"``/``False`` — forward
        each op immediately, unfused and unbatched.  Mode strings are
        validated against :data:`FUSION_MODES`; unknown values raise
        ``ValueError``.
    max_pending:
        Auto-flush threshold bounding buffer growth for long straight-
        line circuits.
    cost_model:
        The :class:`~repro.sim.schedule.CostModel` driving size-aware
        planning at flush time (``None`` — the default — uses
        :data:`~repro.sim.schedule.DEFAULT_COST_MODEL`): contraction
        planning is bypassed below ``plan_min_qubits`` and windows
        widen on large registers.
    """

    def __init__(
        self,
        backend,
        rank: int,
        fusion="auto",
        max_pending: int = 256,
        cost_model: CostModel | None = None,
    ):
        if fusion is True:
            fusion = "on"
        elif fusion is False:
            fusion = "off"
        if fusion not in FUSION_MODES:
            raise ValueError(
                f"fusion must be one of {FUSION_MODES}, got {fusion!r}"
            )
        self._backend = backend
        self._rank = rank
        self._cost_model = DEFAULT_COST_MODEL if cost_model is None else cost_model
        self._eager = fusion == "off"
        self._diag_batching = not self._eager and fusion != "nodiag"
        self._planning = self._diag_batching and fusion != "noplan"
        self._buf: list[Op] = []
        self._max_pending = max_pending

    @property
    def fusion(self) -> bool:
        """Whether this stream buffers and fuses (False = eager legacy path)."""
        return not self._eager

    @property
    def diag_batching(self) -> bool:
        """Whether flushes coalesce diagonal runs into ``DiagBatch`` records."""
        return self._diag_batching

    @property
    def planning(self) -> bool:
        """Whether flushes fuse small-op runs into ``ContractionPlan`` records."""
        return self._planning

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
        """Dispatch everything buffered as one ``apply_ops`` batch.

        The buffer is lowered by the schedule compiler's stream-side
        pass (:func:`repro.sim.schedule.lower_flush`): maximal runs of
        diagonal ops coalesce into :class:`~repro.qmpi.ops.DiagBatch`
        records (unless ``fusion="nodiag"``), then contiguous small-op
        runs fuse into :class:`~repro.qmpi.ops.ContractionPlan` records
        (unless ``fusion="noplan"``) — **size-aware**: the cost model
        bypasses planning outright on small registers and widens
        windows on large ones. Backends exposing ``apply_flush`` take
        the raw buffer instead and serve the lowering + compilation
        from their schedule cache (see :mod:`repro.sim.cache`);
        backends without it (recording fakes, minimal test doubles)
        keep the legacy lower-then-``apply_ops`` path. On error (e.g. a
        locality violation) the buffered batch is discarded — partial
        replay would double-apply its prefix.
        """
        if self._buf:
            buf, self._buf = self._buf, []
            apply_flush = getattr(self._backend, "apply_flush", None)
            if apply_flush is not None:
                apply_flush(
                    self._rank,
                    tuple(buf),
                    diag_batching=self._diag_batching,
                    planning=self._planning,
                    cost_model=self._cost_model,
                )
                return
            buf = lower_flush(
                buf,
                self._backend.num_qubits,
                diag_batching=self._diag_batching,
                planning=self._planning,
                cost_model=self._cost_model,
            )
            self._backend.apply_ops(self._rank, tuple(buf))

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
