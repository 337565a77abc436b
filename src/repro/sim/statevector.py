"""Full state-vector quantum simulator.

This is the quantum substrate of the QMPI prototype. The paper's C++
prototype (§6) keeps one global state vector owned by rank 0; here the
engine itself is single-threaded and :class:`repro.qmpi.backend.SharedBackend`
adds the rank-0-style serialization on top.

Design notes
------------
* Qubit bookkeeping — store bits, pending ``|0>`` / Bell factors and
  fan-out copy entries — is :class:`repro.sim.register.Register`'s,
  shared with the sharded engine; this class is the amplitude store.
* The state is stored as an ndarray of shape ``(2,) * n``: store bit
  ``b`` is axis ``n - 1 - b``, so a merge appends trailing axes and
  axis order is merge order.  In shots mode a leading *branch* axis
  holds one row per distinct measurement history.
* The state is kept C-contiguous, so it is one chunk to
  :class:`~repro.sim.kernels.KernelDispatch`: every dense step is an
  in-place, slab-walked ``contract`` over the step's frozen
  :class:`~repro.sim.kernels.Window` — the call the sharded engine
  makes per chunk.  A window holds two slabs of scratch, never a
  state-sized copy.
* Eager gates (``apply``, ``apply_controlled`` and the named ``h``,
  ``cnot``, ... methods generated from :data:`repro.sim.gates.GATESET`)
  are one-op batches through the same freeze-then-execute path as a
  flushed batch.
* Measurement uses an injectable :class:`numpy.random.Generator` so that
  distributed runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .diag import DiagBatch, apply_phase_tables
from .kernels import Window
from .ops import SimulationError
from .register import Register
from .schedule import DiagSegment, KernelRun, compile_segments, monomial_pattern

__all__ = ["StateVector", "SimulationError"]


class StateVector(Register):
    """A dynamically sized full state-vector simulator.

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
    :data:`~repro.sim.kernels.TILE_AMPS` amplitudes, or slice moves and
    scales for a monomial window); the diagonal
    phase-table fill runs natively when a provider resolves
    (:mod:`repro.sim.kernels`).

    Examples
    --------
    >>> sv = StateVector(2)
    >>> sv.h(0); sv.cnot(0, 1)
    >>> abs(sv.amplitude([0, 0])) ** 2  # doctest: +ELLIPSIS
    0.4999...
    """

    # ------------------------------------------------------------------
    # the amplitude store (see repro.sim.register)
    # ------------------------------------------------------------------
    @property
    def n_branches(self) -> int:
        """Number of distinct measurement histories currently tracked."""
        return self._psi.shape[0] if self._shots is not None else 1

    def _reset_store(self) -> None:
        self._psi = np.ones((), dtype=self._dtype)  # shape () == zero qubits

    def _own_store(self) -> None:
        self._psi = self._psi.copy()

    def _add_rows(self) -> None:
        self._psi = self._psi[None]

    def _arrays(self) -> list:
        return [self._psi]

    def _grow(self, k: int, terms) -> None:
        """``k`` trailing axes holding the factor ``terms``: one zero-filled
        allocation, one scaled copy of the state per nonzero term."""
        psi = self._psi
        new = np.zeros(psi.shape + (2,) * k, dtype=psi.dtype)
        for j, amp in terms:
            np.multiply(psi, amp, out=new[(..., *np.unravel_index(j, (2,) * k))])
        self._psi = new

    def _halves(self, b: int) -> list:
        rows = self._psi if self._shots is not None else self._psi[None]
        moved = np.moveaxis(rows, rows.ndim - 1 - b, 1)
        return [(moved[:, 0], moved[:, 1])]

    def _rebuild(self, arrays) -> None:
        (psi,) = arrays
        self._psi = psi if self._shots is not None else psi[0]

    def _fork(self, src) -> None:
        self._psi = self._psi[src]

    # ------------------------------------------------------------------
    # engine contract (see repro.qmpi.backend.QuantumBackend)
    # ------------------------------------------------------------------
    # Named in this class body so per-engine tracing can wrap them.
    apply_ops = Register.apply_ops
    execute_segments = Register.execute_segments

    def layout_key(self, qubits):
        """Layout fingerprint of this engine for the touched ``qubits``.

        Two calls returning equal keys guarantee that a program frozen
        under the first is valid under the second: the key pins the
        store bit of every touched qubit, the store's qubit count, the
        presence of the shots branch axis, and the amplitude dtype.
        Unknown qubit ids raise, so a stale cached schedule can never
        bind to a recycled engine that no longer owns them.  Pending
        qubits among ``qubits`` are merged first: the key describes the
        array the program will run on.
        """
        self._merge(qubits)
        return (
            "shared",
            tuple(self._bit(q) for q in qubits),
            len(self._bit_of),
            self._shots is not None,
            self.dtype,
        )

    def compile_batch(self, ops):
        """Compile a lowered op batch into this engine's segment list."""
        return compile_segments(ops)

    def freeze_segments(self, segments):
        """Freeze a bound segment list into a replay program.

        One step per kernel op / diagonal batch / plan.  Every dense
        step is one :meth:`~repro.sim.kernels.KernelDispatch.contract`
        on the whole state — the sharded engine's per-chunk call, with
        the state as one chunk whose shot-branch axis is the leading
        rows and a qubit on axis ``a`` as bit ``ndim - 1 - a`` — over
        the step's frozen :class:`~repro.sim.kernels.Window`: an op's
        target matrix over the all-ones slice of its controls, or a
        plan's window product.  A window whose matrix is monomial
        (:func:`~repro.sim.schedule.monomial_pattern`, decided here and
        stable under the cache's rebinds) is frozen with its pattern
        and runs as moves.  Steps hold references to the live segment objects,
        so the cache's in-place parameter rebinding flows through; op
        matrices are memoized per op *object* (a rebind swaps the op,
        invalidating the memo).  Touched qubits must be store bits
        already: :meth:`layout_key` / :meth:`apply_ops` merge pending ones.
        """
        nl = len(self._bit_of)

        def window(qubits, controls=(), pattern=None):
            bits = [self._bit(q) for q in (*qubits, *controls)]
            return Window(bits[: len(qubits)], nl, bits[len(qubits) :], pattern)

        steps = []
        n_segments = 0
        for seg in segments:
            n_segments += 1
            if isinstance(seg, DiagSegment):
                steps.append(("d", seg))
            elif isinstance(seg, KernelRun):
                for i, op in enumerate(seg.ops):
                    pattern = monomial_pattern(op, full=False)
                    win = window(op.targets, op.controls, pattern)
                    steps.append(("k", seg, i, [None, None], win))
            else:  # PlanSegment (ExchangeSegment never occurs layout-less)
                plan = seg.plan
                steps.append(("p", seg, window(plan.qubits, pattern=monomial_pattern(plan))))
        return n_segments, tuple(steps)

    def execute_frozen(self, program) -> None:
        """Execute a frozen program: the engine's only gate-batch path.

        Every step runs in place on ``_psi`` (kept C-contiguous) and
        holds a few :data:`~repro.sim.kernels.TILE_AMPS` slabs of
        scratch beyond the state: a window two (a stage and its
        product), a diagonal batch a base table and one factor.
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
        """Multiply a whole coalesced diagonal run into the state in place.

        The state is one chunk to :func:`repro.sim.diag.apply_phase_tables`,
        the sharded engine's path: a slab-sized base table from the
        tables on the low bits, plus a small factor per group of slabs
        for the tables that touch a higher bit — one pass per slab, and
        no table larger than :data:`~repro.sim.kernels.TILE_AMPS`
        amplitudes.  A register of at most one slab multiplies one
        table.
        """
        singles = [(self._bit(q), t) for q, t in batch.phases1.items()]
        pairs = [
            ((self._bit(a), self._bit(b)), t) for (a, b), t in batch.phases2.items()
        ]
        apply_phase_tables(singles, pairs, [self._psi], len(self._bit_of), kernels=self._kernels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateVector n={self.num_qubits} ids={self.qubit_ids}>"
