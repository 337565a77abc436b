"""Full state-vector quantum simulator.

This is the quantum substrate of the QMPI prototype. The paper's C++
prototype (§6) keeps one global state vector owned by rank 0; here the
engine itself is single-threaded and :class:`repro.qmpi.backend.SharedBackend`
adds the rank-0-style serialization on top.

Design notes
------------
* The state is stored as an ndarray of shape ``(2,) * n``; qubit handles
  are stable integer ids mapped to tensor axes *or to a pending product
  factor*, so qubits can be allocated and released dynamically
  (``QMPI_Alloc_qmem`` / ``QMPI_Free_qmem``).
* A fresh qubit is a pending factor — ``|0>``, or a Bell half after
  :meth:`StateVector.entangle_fresh` — not yet an axis.  A tensor factor
  commutes with every operation that does not touch it, so it is merged
  (one zero-padded allocation appending trailing axes) by the first call
  that couples it to the register: an EPR half costs one resize up and
  one down.
* The state is kept C-contiguous, so it is one chunk to
  :class:`~repro.sim.kernels.KernelDispatch`: every dense step is an
  in-place, slab-walked ``contract`` over the step's frozen
  :class:`~repro.sim.kernels.Window` — the call the sharded engine
  makes per chunk — with the shot-branch axis as the leading rows and
  the qubit on axis ``a`` as bit ``ndim - 1 - a``.  A window holds two
  slabs of scratch, never a state-sized copy.
* Eager gates (``apply``, ``apply_controlled`` and the named ``h``,
  ``cnot``, ... methods generated from :data:`repro.sim.gates.GATESET`)
  are one-op batches through the same freeze-then-execute path as a
  flushed batch.  Pending qubits merge in ascending id order, so a
  batch lands on the same axis layout — and the same rounding — however
  it reaches the engine.
* Measurement uses an injectable :class:`numpy.random.Generator` so that
  distributed runs are reproducible.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from . import gates as G
from .diag import DiagBatch, chunk_phase
from .kernels import KernelDispatch, Window
from .ops import Op, SimulationError, bind_engine_gates, controlled_unitary
from .schedule import DiagSegment, KernelRun, compile_segments
from .shots import ShotBits, branch_mask, fork_outcomes

__all__ = ["StateVector", "SimulationError"]

#: A pending factor is |0> (one nonzero amplitude, 1) or the Bell pair
#: ``h`` + ``cnot`` make of |00>: |00> and |11>, each with this amplitude
#: (``h``'s matrix entry).
_BELL_AMP = float(G.H[0, 0].real)


def resolve_dtype(dtype: str | None) -> tuple:
    """An engine's amplitude dtype and tolerance triple, from ``dtype=``.

    ``None`` reads ``REPRO_QMPI_DTYPE`` before defaulting to
    ``"complex128"``; anything but ``"complex128"``/``"complex64"``
    raises.  Returns ``(np.dtype, (zero_atol, norm_eps, agree_eps))``:
    the tolerances scale with the precision, since float32 rounding
    leaves ~1e-7 residuals where float64 leaves ~1e-16.
    """
    if dtype is None:
        dtype = os.environ.get("REPRO_QMPI_DTYPE") or "complex128"
    if str(dtype) not in ("complex64", "complex128"):
        raise SimulationError(
            f'dtype must be "complex128" or "complex64", got {dtype!r}'
        )
    dt = np.dtype(str(dtype))
    return dt, ((1e-4, 1e-6, 1e-5) if dt == np.complex64 else (1e-9, 1e-12, 1e-9))


class StateVector:
    """A dynamically sized full state-vector simulator.

    Qubit handles are stable ids mapped to tensor axes or to a pending
    product factor (see the module docstring).

    Parameters
    ----------
    n_qubits:
        Number of qubits to allocate immediately (ids ``0..n-1``).
    seed:
        Seed or :class:`numpy.random.Generator` for measurement sampling.
    dtype:
        Amplitude precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory/bandwidth at float32
        precision).  ``None`` reads ``REPRO_QMPI_DTYPE`` before
        defaulting to ``"complex128"``.

    Every dense step is one :meth:`KernelDispatch.contract
    <repro.sim.kernels.KernelDispatch.contract>` on the whole state, in
    place (BLAS products over slabs of at most
    :data:`~repro.sim.kernels.TILE_AMPS` amplitudes); the diagonal
    phase-table fill runs natively when a provider resolves
    (:mod:`repro.sim.kernels`).

    Examples
    --------
    >>> sv = StateVector(2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    def __init__(
        self,
        n_qubits: int = 0,
        seed=None,
        dtype: str | None = None,
    ):
        self._kernels = KernelDispatch()
        self._dtype, (self._zero_atol, self._norm_eps, self._agree_eps) = (
            resolve_dtype(dtype)
        )
        self._psi = np.ones((), dtype=self._dtype)  # shape () == zero qubits
        self._axis_of: dict[int, int] = {}
        # Pending product factors: qid -> Bell partner, or None for |0>.
        self._pending: dict[int, int | None] = {}
        self._next_id = 0
        self._shots: int | None = None
        self._shot_of: np.ndarray | None = None
        self.segments_executed = 0
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        if n_qubits:
            self.alloc(n_qubits)

    # ------------------------------------------------------------------
    # shot-batched trajectories (see repro.sim.shots)
    # ------------------------------------------------------------------
    @property
    def shots(self) -> int | None:
        """Number of tracked shots, or ``None`` outside shots mode."""
        return self._shots

    @property
    def n_branches(self) -> int:
        """Number of distinct measurement histories currently tracked."""
        return self._psi.shape[0] if self._shots is not None else 1

    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: track ``shots`` trajectories in one run.

        The state gains a leading *branch* axis (one row per distinct
        measurement history — initially a single row shared by every
        shot); unitary segments broadcast over it unchanged, and
        :meth:`measure` forks it. Must be called before any
        measurement-induced fork, typically right after construction.
        """
        if self._shots is not None:
            if self.num_qubits:
                raise SimulationError(
                    "begin_shots() called twice on a non-empty engine"
                )
            # Empty engine (all qubits released): the leftover per-branch
            # global phases are unobservable — reset to a fresh run so a
            # reused backend can start a new shot batch.
            self._psi = np.ones((), dtype=self._dtype)
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")
        self._shots = int(shots)
        self._shot_of = np.zeros(self._shots, dtype=np.int64)
        # Pending factors carry no branch axis until they are merged.
        self._psi = self._psi[None]
        for q in self._axis_of:
            self._axis_of[q] += 1

    def reseed(self, seed) -> None:
        """Replace the measurement RNG (per-job streams use this hook)."""
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""
        return len(self._axis_of) + len(self._pending)

    @property
    def dtype(self) -> str:
        """Amplitude dtype name, derived from the live state array.

        Part of the engine :meth:`layout_key`, so cached schedules never
        replay across precisions.
        """
        return self._psi.dtype.name

    @property
    def qubit_ids(self) -> tuple[int, ...]:
        """Allocated qubit ids in ascending id order (allocation order).

        Not axis order: axes follow the order in which pending qubits
        were merged into the array.
        """
        return tuple(sorted((*self._axis_of, *self._pending)))

    def alloc(self, n: int = 1) -> list[int]:
        """Allocate ``n`` fresh qubits in |0> and return their ids."""
        if n < 1:
            raise SimulationError(f"cannot allocate {n} qubits")
        ids = list(range(self._next_id, self._next_id + n))
        self._next_id += n
        self._pending.update(dict.fromkeys(ids))
        return ids

    def entangle_fresh(self, qa: int, qb: int) -> None:
        """``|00> -> (|00>+|11>)/sqrt(2)`` on ``qa``, ``qb`` (``h`` + ``cnot``).

        Two still-pending ``|0>`` qubits become one pending 4-amplitude
        Bell factor without touching the array; otherwise one ``h`` +
        ``cnot`` batch.
        """
        if qa != qb and self._is_fresh_zero(qa) and self._is_fresh_zero(qb):
            self._pending[qa], self._pending[qb] = qb, qa
            return
        self.apply_ops((Op("h", (qa,)), Op("cnot", (qa, qb))))

    def release(self, qubit: int) -> None:
        """Release a qubit that is disentangled and in state |0>.

        Mirrors ``QMPI_Free_qmem``: freeing a qubit that still carries
        amplitude in |1> (or is entangled) is a program error.
        """
        if self._is_fresh_zero(qubit):
            del self._pending[qubit]
            return
        # A qubit still pending here is a Bell half: entangled.
        ax = None if qubit in self._pending else self._axis(qubit)
        if ax is None or not np.allclose(
            np.moveaxis(self._psi, ax, 0)[1], 0.0, atol=self._zero_atol
        ):
            raise SimulationError(
                f"qubit {qubit} is not in |0> (or is entangled); "
                "measure/uncompute before releasing"
            )
        self._drop_axis(qubit, ax, 0)

    def measure_and_release(self, qubit: int, basis: str = "Z", control: int | None = None):
        """``cnot(control, qubit)`` if ``control`` is given, ``h(qubit)`` if
        ``basis == "X"``, then measure ``qubit`` in the Z basis and remove
        it. Returns the bit.

        The Z measurement is one probability reduction and one scaled
        copy of the chosen half: that half *is* the released state.  Two
        operand patterns skip the gate (:meth:`_fan_out`, :meth:`_measure_x`).
        """
        if basis == "Z" and control in self._axis_of and self._pending.get(qubit) is not None:
            return self._fan_out(qubit, control)
        if basis == "X" and control is None and qubit in self._axis_of:
            return self._measure_x(qubit)
        G.measurement_prelude(self, qubit, basis, control)
        if self._is_fresh_zero(qubit):
            bit = self._measure_fresh_zero()
            del self._pending[qubit]
            return bit
        self._merge((qubit,))
        ax = self._axis(qubit)
        if self._shots is None:
            bit, p = self._draw(qubit, self.prob_one(qubit))
            self._drop_axis(qubit, ax, bit, p**-0.5)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, (src, outcome, scale) = fork_outcomes(
            p1, self._shot_of, self.rng
        )
        self._drop_axis(qubit, ax, (src, outcome), scale)
        return bits

    def _draw(self, qubit: int, p1: float) -> tuple[int, float]:
        """Sample ``qubit``'s outcome from ``P(1)``: ``(bit, P(bit))``."""
        bit = int(self.rng.random() < p1)
        p = p1 if bit else 1.0 - p1
        if p < self._norm_eps**2:
            raise SimulationError(
                f"measuring qubit {qubit} as {bit}: outcome has zero probability"
            )
        return bit, p

    def _fan_out(self, qubit: int, control: int):
        """``cnot(control, qubit)`` + Z measurement of a pending Bell half
        whose partner ``p`` is not ``control`` (Fig. 3(a)), exactly.

        The cnot leaves ``sum_c psi_c (|c, 0> + |1-c, 1>)/sqrt(2)`` on
        ``(qubit, p)``; outcome ``m`` keeps ``psi_m |p=0> + psi_(1-m) |p=1>``,
        of norm 1/2 whatever the state.  So ``m`` is a fair coin, ``p``
        becomes one trailing axis holding ``c XOR m`` with the amplitudes
        unchanged (``1/sqrt(2) * sqrt(2)``), and ``qubit`` is never an
        axis: one zero-padded allocation, two half-copies.
        """
        partner = self._pending.pop(qubit)
        del self._pending[partner]
        psi, cax = self._psi, self._axis_of[control]
        self._axis_of[partner] = psi.ndim
        if self._shots is None:
            bits = int(self.rng.random() < 0.5)
            new = np.zeros(psi.shape + (2,), dtype=psi.dtype)
            old, out = np.moveaxis(psi, cax, 0), np.moveaxis(new, cax, 0)
            out[0, ..., bits] = old[0]
            out[1, ..., 1 - bits] = old[1]
        else:
            bits, self._shot_of, (src, m, _) = fork_outcomes(
                np.full(psi.shape[0], 0.5), self._shot_of, self.rng
            )
            new = np.zeros((len(src),) + psi.shape[1:] + (2,), dtype=psi.dtype)
            old, out = np.moveaxis(psi, cax, 1), np.moveaxis(new, cax, 1)
            rows = np.arange(len(src))
            out[rows, 0, ..., m] = old[src, 0]
            out[rows, 1, ..., 1 - m] = old[src, 1]
        self._psi = new
        return bits

    def _measure_x(self, qubit: int):
        """``h(qubit)`` + Z measurement + removal of a merged qubit, exactly.

        ``h`` then outcome ``m`` is the projection ``(psi_0 + (-1)^m
        psi_1)/sqrt(2)``, so ``P(1) = |psi_0 - psi_1|^2 / 2``: one
        difference, one reduction, at most one sum and one scale — all
        on the halved array.
        """
        ax = self._axis(qubit)
        zero, one = np.moveaxis(self._psi, ax, 0)
        psi = zero - one
        if self._shots is None:
            bits, p = self._draw(qubit, 0.5 * float(np.linalg.norm(psi)) ** 2)
            if not bits:
                np.add(zero, one, out=psi)
            psi *= (2.0 * p) ** -0.5
        else:
            p1 = 0.5 * (np.abs(psi.reshape(len(psi), -1)) ** 2).sum(axis=1)
            bits, self._shot_of, (src, m, scale) = fork_outcomes(
                np.clip(p1, 0.0, 1.0), self._shot_of, self.rng
            )
            # In the state's own real dtype: complex64 is not promoted.
            col, real = (-1,) + (1,) * (psi.ndim - 1), psi.real.dtype
            psi = zero[src] + (1 - 2 * m).astype(real).reshape(col) * one[src]
            psi *= (scale * _BELL_AMP).astype(real).reshape(col)
        self._psi = psi
        self._forget_axis(qubit, ax)
        return bits

    def _axis(self, qubit: int) -> int:
        try:
            return self._axis_of[qubit]
        except KeyError:
            raise SimulationError(f"unknown qubit id {qubit}") from None

    def _is_fresh_zero(self, qubit: int) -> bool:
        """Whether ``qubit`` is still a pending ``|0>`` factor."""
        return self._pending.get(qubit, qubit) is None

    def _measure_fresh_zero(self):
        """Measure a pending ``|0>``: always 0, array untouched; draws what
        :meth:`measure` draws, so per-seed outcomes are unchanged."""
        if self._shots is None:
            self.rng.random()
            return 0
        self.rng.random(self._shots)
        return ShotBits(np.zeros(self._shots, dtype=np.int64))

    def _merge(self, qubits: Iterable[int]) -> None:
        """Materialize the pending factors of ``qubits`` as trailing axes,
        all in one zero-padded allocation (existing axes never shift).
        Callers merge *before* reading ``ndim`` or any axis."""
        pending = self._pending
        if not pending:
            return
        # The factors' product as (trailing index, amplitude) of its nonzero
        # entries: one per setting of the Bell bits, whatever the |0> count.
        fresh, terms = [], [((), 1.0)]
        for q in sorted(qubits):
            if q in pending:
                partner = pending.pop(q)
                if partner is None:
                    fresh.append(q)
                    terms = [(i + (0,), a) for i, a in terms]
                else:
                    del pending[partner]
                    fresh += (q, partner)
                    terms = [(i + (b, b), a * _BELL_AMP) for i, a in terms for b in (0, 1)]
        if not fresh:
            return
        psi = self._psi
        self._axis_of.update((q, psi.ndim + i) for i, q in enumerate(fresh))
        new = np.zeros(psi.shape + (2,) * len(fresh), dtype=psi.dtype)
        for idx, amp in terms:
            np.multiply(psi, amp, out=new[(..., *idx)])
        self._psi = new

    def _drop_axis(self, qubit: int, ax: int, keep, scale=1.0) -> None:
        """Remove ``qubit``'s axis, keeping index ``keep`` of it, scaled.

        ``keep`` is 0/1 (``scale`` a Python float) or, at a shots fork,
        the surviving branches' ``(branch, outcome)`` index arrays (one
        ``scale`` each).  The result is a fresh contiguous array, never
        a view that keeps the doubled buffer alive.
        """
        if isinstance(keep, tuple):
            psi = np.moveaxis(self._psi, ax, 1)[keep]  # (B', ...) gather
            # Scale in the state's own real dtype (exact for float64) so
            # a complex64 state is not promoted.
            psi *= scale.astype(psi.real.dtype).reshape((-1,) + (1,) * (psi.ndim - 1))
        else:
            psi = np.moveaxis(self._psi, ax, 0)[keep] * scale
        self._psi = psi
        self._forget_axis(qubit, ax)

    def _forget_axis(self, qubit: int, ax: int) -> None:
        del self._axis_of[qubit]
        for q, a in self._axis_of.items():
            if a > ax:
                self._axis_of[q] = a - 1

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply(self, u: np.ndarray, *qubits: int) -> None:
        """Apply a ``2^k x 2^k`` unitary to ``k`` qubits (a one-op batch).

        The first qubit in ``qubits`` corresponds to the most significant
        bit of the matrix index (``U = sum |i><j|`` over k-bit ints).
        """
        self._run_batch((Op(G.UNITARY, qubits, u=u),))

    def apply_controlled(
        self, u: np.ndarray, controls: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Apply ``u`` on ``targets`` conditioned on all ``controls`` = |1>
        (a one-op batch; ``u`` runs on the controls' all-ones slice)."""
        self._run_batch((controlled_unitary(u, controls, targets),))

    def apply_ops(self, ops) -> None:
        """Execute a batch of typed op records (see :mod:`repro.sim.ops`).

        The batch is compiled into typed segments by
        :func:`repro.sim.schedule.compile_segments` (layout-less: one
        flat array means everything is communication-free), frozen
        against the current axis layout and run — the same
        freeze-then-:meth:`execute_frozen` path a schedule-cache miss
        takes, so a cold batch and a warm replay differ only in who
        kept the program.
        """
        self._run_batch(ops)

    def _run_batch(self, ops) -> None:
        # apply()/apply_controlled() come here directly, not through
        # apply_ops, so a subclass that tallies batches counts them once.
        if self._pending:
            ops = tuple(ops)
            self._merge(q for op in ops for q in op.qubits)
        self.execute_segments(self.compile_batch(ops))

    # ------------------------------------------------------------------
    # engine contract (see repro.qmpi.backend.QuantumBackend)
    # ------------------------------------------------------------------
    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Two calls returning equal keys guarantee that a program frozen
        under the first is valid under the second: the key pins the
        axis of every touched qubit, the total axis count, the presence
        of the shots branch axis, and the amplitude dtype.  Unknown
        qubit ids raise, so a stale cached schedule can never bind to a
        recycled engine that no longer owns them.  Pending qubits among
        ``qubits`` are merged first: the key describes the array the
        program will run on.
        """
        self._merge(qubits)
        branch = self._shots is not None
        return (
            "shared",
            tuple(self._axis(q) for q in qubits),
            self._psi.ndim,
            branch,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch into this engine's segment list."""
        return compile_segments(ops)

    def execute_segments(self, segments) -> None:
        """Run a compiled segment list once: freeze, then execute."""
        self.execute_frozen(self.freeze_segments(segments))

    def freeze_segments(self, segments):
        """Freeze a bound segment list into a replay program.

        One step per kernel op / diagonal batch / plan.  Every dense
        step is one :meth:`~repro.sim.kernels.KernelDispatch.contract`
        on the whole state — the sharded engine's per-chunk call, with
        the state as one chunk whose shot-branch axis is the leading
        rows and a qubit on axis ``a`` as bit ``ndim - 1 - a`` — over
        the step's frozen :class:`~repro.sim.kernels.Window`: an op's
        target matrix over the all-ones slice of its controls, or a
        plan's window product.  Steps hold references to the live segment objects,
        so the cache's in-place parameter rebinding flows through; op
        matrices are memoized per op *object* (a rebind swaps the op,
        invalidating the memo).  Touched qubits must be axes already:
        :meth:`layout_key` / :meth:`apply_ops` merge pending ones.
        """
        last = self._psi.ndim - 1
        nl = last + 1 - (self._shots is not None)

        def window(qubits, controls=()):
            bits = [last - self._axis(q) for q in (*qubits, *controls)]
            return Window(bits[: len(qubits)], nl, bits[len(qubits) :])

        steps = []
        n_segments = 0
        for seg in segments:
            n_segments += 1
            if isinstance(seg, DiagSegment):
                steps.append(("d", seg))
            elif isinstance(seg, KernelRun):
                for i, op in enumerate(seg.ops):
                    win = window(op.targets, op.controls)
                    steps.append(("k", seg, i, [None, None], win))
            else:  # PlanSegment (ExchangeSegment never occurs layout-less)
                steps.append(("p", seg, window(seg.plan.qubits)))
        return n_segments, tuple(steps)

    def execute_frozen(self, program) -> None:
        """Execute a frozen program: the engine's only gate-batch path.

        Every step runs in place on ``_psi`` (kept C-contiguous), so a
        window holds at most two :data:`~repro.sim.kernels.TILE_AMPS`
        slabs beyond the state.
        """
        n_segments, steps = program
        self.segments_executed += n_segments
        kd, psi = self._kernels, self._psi
        for step in steps:
            kind = step[0]
            if kind == "d":
                self._apply_diag_batch(step[1].batch)
            elif kind == "p":
                # The window product is re-read: a rebind swaps seg.plan.
                kd.contract(psi, step[1].plan.u, step[2])
            else:
                _, seg, i, cell, win = step
                op = seg.ops[i]
                if op is not cell[0]:
                    cell[0] = op
                    cell[1] = np.asarray(op.target_matrix(), dtype=self._dtype)
                kd.contract(psi, cell[1], win)

    def _apply_diag_batch(self, batch: DiagBatch) -> None:
        """One vectorized multiply for a whole coalesced diagonal run.

        The batch's phase tables are materialized as a single tensor of
        shape ``(1|2,) * n`` (size 2 only on the involved axes) and
        broadcast-multiplied into the state — one pass instead of one
        strided kernel per gate.
        """
        n = self._psi.ndim
        singles = [
            (n - 1 - self._axis(q), t) for q, t in batch.phases1.items()
        ]
        pairs = [
            ((n - 1 - self._axis(a), n - 1 - self._axis(b)), t)
            for (a, b), t in batch.phases2.items()
        ]
        self._psi *= chunk_phase(singles, pairs, n, kernels=self._kernels)

    # ------------------------------------------------------------------
    # measurement and inspection
    # ------------------------------------------------------------------
    def _branch_prob_one(self, qubit: int) -> np.ndarray:
        """Per-branch probability of |1> on ``qubit``, shape ``(B,)``."""
        ax = self._axis(qubit)
        moved = np.moveaxis(self._psi, ax, 1)  # (B, 2, ...)
        p = np.abs(moved[:, 1].reshape(moved.shape[0], -1)) ** 2
        return np.clip(p.sum(axis=1), 0.0, 1.0)

    def prob_one(self, qubit: int):
        """Probability of measuring |1> on ``qubit`` (no collapse).

        Outside shots mode (and whenever every tracked branch agrees)
        this is a plain float; after a measurement fork made the
        probability branch-dependent, the per-shot values are returned
        as an array instead.
        """
        self._merge((qubit,))
        if self._shots is None:
            ax = self._axis(qubit)
            moved = np.moveaxis(self._psi, ax, 0)
            return float(np.sum(np.abs(moved[1]) ** 2))
        p = self._branch_prob_one(qubit)
        if np.ptp(p) < self._agree_eps:
            return float(p[0])
        return p[self._shot_of]

    def measure(self, qubit: int):
        """Projective Z-basis measurement with collapse.

        Returns 0 or 1; in shots mode returns a
        :class:`~repro.sim.shots.ShotBits` of per-shot outcomes, and the
        state forks into one branch per surviving ``(branch, outcome)``
        pair.
        """
        if self._is_fresh_zero(qubit):
            return self._measure_fresh_zero()
        self._merge((qubit,))
        if self._shots is None:
            p1 = self.prob_one(qubit)
            bit = int(self.rng.random() < p1)
            self.postselect(qubit, bit)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, spec = fork_outcomes(p1, self._shot_of, self.rng)
        ax = self._axis(qubit)
        moved = np.moveaxis(self._psi, ax, 1)  # (B, 2, ...)
        src, outcome, scale = spec
        # Scale in the state's own real dtype (exact for float64) so a
        # complex64 state is not promoted.
        scale = scale.astype(moved.real.dtype).reshape((-1,) + (1,) * (moved.ndim - 2))
        new = np.zeros((len(src),) + self._psi.shape[1:], dtype=moved.dtype)
        np.moveaxis(new, ax, 1)[np.arange(len(src)), outcome] = moved[src, outcome] * scale
        self._psi = new
        return bits

    def apply_pauli_if(self, cond, pauli: str, qubit: int) -> None:
        """Apply a Pauli to ``qubit`` where ``cond`` holds.

        ``cond`` is an int/bool (plain conditional application) or
        per-shot measurement data (:class:`~repro.sim.shots.ShotBits`):
        the Pauli is then applied only on the branches whose shots
        satisfy it — the vectorized form of the protocols' classical
        ``if m: X`` fixups.
        """
        pauli = pauli.upper()
        if pauli not in G.PAULIS:
            raise KeyError(pauli)
        if self._shots is None:
            rows = ... if cond else None
        else:
            mask = branch_mask(cond, self._shot_of, self._psi.shape[0])
            rows = ... if mask.all() else mask if mask.any() else None
        if rows is not None:
            self._apply_pauli(pauli, qubit, rows)

    def _apply_pauli(self, pauli: str, qubit: int, rows) -> None:
        """X/Y/Z on ``qubit`` in place: a swap of its two halves, a
        negation of one, or both — no contraction.  ``rows`` is ``...``
        or, in shots mode, the boolean mask of the branches to act on."""
        self._merge((qubit,))
        moved = np.moveaxis(self._psi, self._axis(qubit), 0)
        zero, one = moved[0, ...], moved[1, ...]
        if pauli == "X":
            zero[rows], one[rows] = one[rows], zero[rows].copy()
        elif pauli == "Y":
            zero[rows], one[rows] = -1j * one[rows], 1j * zero[rows]
        elif pauli == "Z":
            one[rows] *= -1

    def postselect(self, qubit: int, bit: int) -> None:
        """Project ``qubit`` onto ``|bit>`` and renormalize (per branch)."""
        self._merge((qubit,))
        ax = self._axis(qubit)
        moved = np.moveaxis(self._psi, ax, 0)
        moved[1 - bit] = 0.0
        if self._shots is None:
            norm = np.linalg.norm(self._psi)
            if norm < self._norm_eps:
                raise SimulationError(
                    f"postselecting qubit {qubit} on {bit}: outcome has zero "
                    "probability"
                )
            self._psi /= norm
            return
        flat = np.abs(self._psi.reshape(self._psi.shape[0], -1)) ** 2
        norms = np.sqrt(flat.sum(axis=1))
        if np.any(norms < self._norm_eps):
            raise SimulationError(
                f"postselecting qubit {qubit} on {bit}: outcome has zero "
                "probability in some branch"
            )
        self._psi /= norms.reshape((-1,) + (1,) * (self._psi.ndim - 1))

    def measure_many(self, qubits: Iterable[int]) -> list[int]:
        """Measure several qubits sequentially (with collapse)."""
        return [self.measure(q) for q in qubits]

    def amplitude(self, bits: Sequence[int], qubits: Sequence[int] | None = None) -> complex:
        """Amplitude of the computational basis state given by ``bits``.

        ``qubits`` defaults to all qubits in allocation order.
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if len(bits) != len(qubits):
            raise SimulationError("bits and qubits must have equal length")
        if len(qubits) != self.num_qubits:
            raise SimulationError("amplitude() requires all qubits")
        self._require_unforked("amplitude")
        self._merge(qubits)
        idx = [0] * self._psi.ndim
        for b, q in zip(bits, qubits):
            idx[self._axis(q)] = int(b)
        return complex(self._psi[tuple(idx)])

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Dense state vector with ``qubits[0]`` as the most significant bit.

        ``qubits`` must enumerate all allocated qubits; defaults to
        allocation order.
        """
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if sorted(qubits) != list(self.qubit_ids):
            raise SimulationError("statevector() requires all qubit ids exactly once")
        self._require_unforked("statevector")
        self._merge(qubits)
        axes = [self._axis(q) for q in qubits]
        if self._shots is not None:
            moved = np.moveaxis(self._psi, axes, range(1, len(axes) + 1))
            return moved[0].reshape(-1).copy()
        return np.moveaxis(self._psi, axes, range(len(axes))).reshape(-1).copy()

    def _require_unforked(self, what: str) -> None:
        if self._shots is not None and self._psi.shape[0] > 1:
            raise SimulationError(
                f"{what}() is ambiguous after a mid-circuit measurement "
                f"fork ({self._psi.shape[0]} branches); inspect counts or "
                "per-shot measurement results instead"
            )

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement distribution over computational basis states."""
        vec = self.statevector(qubits)
        return np.abs(vec) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (should always be ~1).

        In shots mode this is the root-mean-square of the per-branch
        norms, so it stays ~1 regardless of how many branches exist.
        """
        if self._shots is not None:
            return float(np.linalg.norm(self._psi) / np.sqrt(self._psi.shape[0]))
        return float(np.linalg.norm(self._psi))

    def expectation_pauli(self, mapping: dict[int, str]) -> float:
        """Expectation value of a Pauli string ``{qubit: 'X'|'Y'|'Z'}``."""
        self._require_unforked("expectation_pauli")
        self._merge(mapping)
        tmp = self._psi.copy()
        saved = self._psi
        try:
            self._psi = tmp
            for q, p in mapping.items():
                self.apply(G.PAULIS[p.upper()], q)
            val = np.vdot(saved, self._psi)
        finally:
            self._psi = saved
        return float(np.real(val))

    def copy(self) -> "StateVector":
        """Deep copy (shares no state, including a cloned RNG)."""
        out = StateVector.__new__(StateVector)
        # Same break-even, fresh counters: the copy's kernel hits are its own.
        out._kernels = KernelDispatch()
        out._kernels.jit_min_amps = self._kernels.jit_min_amps
        out._dtype = self._dtype
        out._zero_atol = self._zero_atol
        out._norm_eps = self._norm_eps
        out._agree_eps = self._agree_eps
        out._psi = self._psi.copy()
        out._axis_of = dict(self._axis_of)
        out._pending = dict(self._pending)
        out._next_id = self._next_id
        out._shots = self._shots
        out._shot_of = None if self._shot_of is None else self._shot_of.copy()
        out.segments_executed = self.segments_executed
        out.rng = np.random.default_rng(self.rng.integers(2**63))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateVector n={self.num_qubits} ids={self.qubit_ids}>"


bind_engine_gates(StateVector)
