"""The register layer both engines share: qubit entries over an amplitude store.

The paper's §6 prototype keeps one global state; this module keeps the
bookkeeping of that state's qubits once, above how the amplitudes are
stored.  A :class:`Register` maps every qubit id to one *entry*:

* a **bit** of the amplitude store (``_bit_of``: bit 0 is the least
  significant amplitude index bit; shot-branch rows never count);
* a **pending factor** (``_pending``): a fresh ``|0>`` (``None``), or a
  Bell half after :meth:`Register.entangle_fresh` (its partner's id).
  A tensor factor commutes with every operation that does not touch
  it, so it joins the store only when a call couples it to the
  register: :meth:`Register._merge` grows the store by its low bits in
  one allocation, in ascending id order, so a batch lands on the same
  layout — and the same rounding — however it reaches the engine;
* a **copy entry** (``_copies``): a fan-out's copy (Fig. 3(a), outside
  shots mode), ``qid -> (source, flip)``: the qubit holds ``source XOR
  flip`` in the Z basis, so it needs no bit.  X on it toggles ``flip``,
  Z and its X-basis uncopy negate one half of the source, and a
  diagonal op on an unflipped copy runs on the source
  (:meth:`Register.route_copies`).  Anything else on the copy — or a
  step that changes or removes its source's Z value — first
  materialises it as a bit.

The two engines are subclasses that store amplitudes:
:class:`~repro.sim.statevector.StateVector` (one C-contiguous array)
and :class:`~repro.sim.sharded.ShardedStateVector` (chunks).  A store
implements the primitives below and the frozen gate path
(``layout_key``, ``compile_batch``, ``freeze_segments``,
``execute_frozen``); everything else — allocation, measurement, Pauli
fix-ups, inspection — is written once here, on those primitives:

* ``_grow(k, terms)``: ``k`` new low bits holding a product factor,
  given as its nonzero ``(index, amplitude)`` terms;
* ``_halves(b)``: ``(zero, one)`` view pairs covering the store, bit
  ``b`` fixed to 0 / 1, shot-branch rows leading; ``_rebuild(arrays)``
  makes a store of one new array per pair (bit ``b`` dropped);
* ``_fork(src)``: shot-branch rows ``src`` of the store (shots mode);
* ``_arrays()``: the store's arrays, flat amplitude order, rows leading;
* ``n_branches``, ``_reset_store()`` and ``_own_store()``.
"""

from __future__ import annotations

import copy as _copy
import os
from typing import Iterable, Sequence

import numpy as np

from . import gates as G
from .diag import DiagBatch
from .kernels import KernelDispatch, slabs
from .ops import Op, SimulationError, bind_engine_gates, controlled_unitary
from .shots import ShotBits, branch_mask, fork_outcomes

__all__ = ["Register", "resolve_dtype"]

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


class Register:
    """Qubit entries and the engine surface, over a subclass's amplitude store.

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
    """

    def __init__(self, n_qubits: int = 0, seed=None, dtype: str | None = None):
        self._kernels = KernelDispatch()
        self._dtype, (self._zero_atol, self._norm_eps, self._agree_eps) = (
            resolve_dtype(dtype)
        )
        self._bit_of: dict[int, int] = {}
        # Pending product factors: qid -> Bell partner, or None for |0>.
        self._pending: dict[int, int | None] = {}
        # Copy entries: qid -> (source qid, flip); the qubit is source XOR flip.
        self._copies: dict[int, tuple[int, int]] = {}
        self._next_id = 0
        self._shots: int | None = None
        self._shot_of: np.ndarray | None = None
        self.segments_executed = 0
        self.reseed(seed)
        self._reset_store()
        if n_qubits:
            self.alloc(n_qubits)

    # ------------------------------------------------------------------
    # shot-batched trajectories (see repro.sim.shots)
    # ------------------------------------------------------------------
    @property
    def shots(self) -> int | None:
        """Number of tracked shots, or ``None`` outside shots mode."""
        return self._shots

    def begin_shots(self, shots: int) -> None:
        """Enter shot-batched mode: track ``shots`` trajectories in one run.

        The store gains leading *branch* rows (one per distinct
        measurement history — initially a single row shared by every
        shot); unitary segments broadcast over them unchanged, and
        :meth:`measure` forks them.  Must be called before any
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
            self._shots = None
            self._reset_store()
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")
        # A copy's flip would differ per branch: copies become bits first.
        self._materialize(list(self._copies))
        self._shots = int(shots)
        self._shot_of = np.zeros(self._shots, dtype=np.int64)
        self._add_rows()

    def _add_rows(self) -> None:
        """Give the store its one shot-branch row (a store without a
        row axis outside shots mode overrides this)."""

    def reseed(self, seed) -> None:
        """Replace the measurement RNG (per-job streams use this hook)."""
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def _require_unforked(self, what: str) -> None:
        if self.n_branches > 1:
            raise SimulationError(
                f"{what}() is ambiguous after a mid-circuit measurement "
                f"fork ({self.n_branches} branches); inspect counts or "
                "per-shot measurement results instead"
            )

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""
        return len(self._bit_of) + len(self._pending) + len(self._copies)

    @property
    def store_qubits(self) -> int:
        """Number of qubits held as bits of the amplitude store."""
        return len(self._bit_of)

    @property
    def dtype(self) -> str:
        """Amplitude dtype name: part of every engine :meth:`layout_key`,
        so cached schedules never replay across precisions."""
        return self._dtype.name

    @property
    def qubit_ids(self) -> tuple[int, ...]:
        """Allocated qubit ids in ascending id order (allocation order).

        Not bit order: bits follow the order in which pending qubits
        were merged into the store (copies count, bit or not).
        """
        return tuple(sorted((*self._bit_of, *self._pending, *self._copies)))

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
        Bell factor without touching the store; otherwise one ``h`` +
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
        self._unshare((qubit,))
        if qubit in self._copies:
            self._materialize((qubit,))
        # A qubit still pending here is a Bell half: entangled.
        if qubit in self._pending or not all(
            np.allclose(one, 0.0, atol=self._zero_atol)
            for _, one in self._halves(self._bit(qubit))
        ):
            raise SimulationError(
                f"qubit {qubit} is not in |0> (or is entangled); "
                "measure/uncompute before releasing"
            )
        self._drop(qubit, 0)

    def measure_and_release(self, qubit: int, basis: str = "Z", control: int | None = None):
        """``cnot(control, qubit)`` if ``control`` is given, ``h(qubit)`` if
        ``basis == "X"``, then measure ``qubit`` in the Z basis and remove
        it. Returns the bit.

        The Z measurement is one probability reduction and one scaled
        copy of the chosen half: that half *is* the released state.  Two
        operand patterns skip the gate (:meth:`_fan_out`, :meth:`_uncopy`).
        """
        if basis == "Z" and control in self._bit_of and self._pending.get(qubit) is not None:
            return self._fan_out(qubit, control)
        if basis == "X" and control is None and qubit in self._copies:
            return self._uncopy(qubit)
        G.measurement_prelude(self, qubit, basis, control)
        if self._is_fresh_zero(qubit):
            bit = self._measure_fresh_zero()
            del self._pending[qubit]
            return bit
        self._unshare((qubit,))
        self._merge((qubit,))
        if self._shots is None:
            bit, p = self._draw(qubit, self.prob_one(qubit))
            self._drop(qubit, bit, p**-0.5)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, (src, outcome, scale) = fork_outcomes(
            p1, self._shot_of, self.rng
        )
        self._drop(qubit, (src, outcome), scale)
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
        holds ``c XOR m`` with the amplitudes unchanged (``1/sqrt(2) *
        sqrt(2)``), and ``qubit`` is never a bit.  Outside shots mode
        ``p`` becomes the copy entry ``(control, m)`` and the store is
        untouched.  Shots mode makes ``p`` a bit, since ``m`` differs
        per branch: the forked rows, the copy materialised, and an X on
        the rows that drew 1 — amplitude moves, no arithmetic.
        """
        partner = self._pending.pop(qubit)
        del self._pending[partner]
        if self._shots is None:
            bits = int(self.rng.random() < 0.5)
            self._copies[partner] = (control, bits)
            return bits
        bits, self._shot_of, (src, m, _) = fork_outcomes(
            np.full(self.n_branches, 0.5), self._shot_of, self.rng
        )
        self._fork(src)
        self._copies[partner] = (control, 0)
        self._materialize((partner,))
        self._pauli(partner, "X", m.astype(bool))
        return bits

    def _uncopy(self, qubit: int) -> int:
        """``h`` + Z measurement + removal of a copy entry (Fig. 1(b)), exactly.

        With ``qubit = source XOR flip``, outcome ``m`` leaves
        ``(-1)^(m (source XOR flip))`` on the register at norm 1/2: a
        fair coin (the one draw the gate path makes), and on 1 a Z on
        the copy.
        """
        bit, _ = self._draw(qubit, 0.5)
        if bit:
            self._z_on_copy(qubit)
        del self._copies[qubit]
        return bit

    def _z_on_copy(self, qubit: int) -> None:
        """Z on a copy entry, in place: negate the source's half where
        the copy reads 1 (index ``1 - flip``)."""
        source, flip = self._copies[qubit]
        for halves in self._halves(self._bit_of[source]):
            half = halves[1 - flip]
            for sel in slabs(half.shape):
                half[sel] *= -1

    def _materialize(self, qubits) -> None:
        """Turn the copy entries ``qubits`` into new low bits, in ascending
        id order: each a fresh ``|0>`` bit, ``cnot(source, q)`` and, for
        a flipped copy, ``x(q)`` — amplitude moves, bit for bit."""
        for q in sorted(qubits):
            source, flip = self._copies.pop(q)
            self._extend([q], [(0, 1.0)])
            self._run((Op("cnot", (source, q)),))
            if flip:
                self._pauli(q, "X", ...)

    def _unshare(self, qubits) -> None:
        """Materialise every copy whose source is in ``qubits``: called
        before a step that changes or removes a source's Z value."""
        if self._copies:
            self._materialize([c for c, (s, _) in self._copies.items() if s in qubits])

    def route_copies(self, ops):
        """``ops`` with copy entries resolved: the register's one rewrite.

        A diagonal op on copies that are all unflipped runs on their
        sources instead (``copy == source`` on every basis state the
        register holds), unless that would repeat a qubit in the op.
        Any other op on a copy materialises it; a non-diagonal op on a
        copy's source materialises that copy.  Diagonal ops on a source
        leave its copies alone.  Called by :meth:`apply_ops` and by
        :meth:`repro.qmpi.backend.QuantumBackend.apply_flush` ahead of
        its schedule cache, so the cache keys the rewritten ops.
        """
        copies = self._copies
        if not copies:
            return ops
        out = []
        for op in ops:
            sources = {s for s, _ in copies.values()}
            qubits = op.qubits
            if not any(q in copies or q in sources for q in qubits):
                out.append(op)
                continue
            diagonal = isinstance(op, (Op, DiagBatch)) and op.is_diagonal
            if diagonal and isinstance(op, Op):
                moved = tuple(copies[q][0] if q in copies else q for q in qubits)
                if len(set(moved)) == len(moved) and all(
                    copies[q][1] == 0 for q in qubits if q in copies
                ):
                    out.append(op.rebind(qubits=moved) if moved != qubits else op)
                    continue
            self._materialize([q for q in qubits if q in copies])
            if not diagonal:
                self._unshare(qubits)
            out.append(op)
        return tuple(out)

    def _bit(self, qubit: int) -> int:
        try:
            return self._bit_of[qubit]
        except KeyError:
            raise SimulationError(f"unknown qubit id {qubit}") from None

    def _is_fresh_zero(self, qubit: int) -> bool:
        """Whether ``qubit`` is still a pending ``|0>`` factor."""
        return self._pending.get(qubit, qubit) is None

    def _measure_fresh_zero(self):
        """Measure a pending ``|0>``: always 0, store untouched; draws what
        :meth:`measure` draws, so per-seed outcomes are unchanged."""
        if self._shots is None:
            self.rng.random()
            return 0
        self.rng.random(self._shots)
        return ShotBits(np.zeros(self._shots, dtype=np.int64))

    def _merge(self, qubits: Iterable[int]) -> None:
        """Make ``qubits`` bits: the copy entries among them
        (:meth:`_materialize`), then their pending factors as new low
        bits, all in one allocation.  Callers merge *before* reading any
        bit position."""
        if self._copies:
            qubits = tuple(qubits)
            self._materialize([q for q in qubits if q in self._copies])
        pending = self._pending
        if not pending:
            return
        # The factors' product as (index, amplitude) of its nonzero
        # entries: one per setting of the Bell bits, whatever the |0> count.
        fresh, terms = [], [(0, 1.0)]
        for q in sorted(qubits):
            if q in pending:
                partner = pending.pop(q)
                if partner is None:
                    fresh.append(q)
                    terms = [(i << 1, a) for i, a in terms]
                else:
                    del pending[partner]
                    fresh += (q, partner)
                    terms = [((i << 2) | 3 * b, a * _BELL_AMP) for i, a in terms for b in (0, 1)]
        if fresh:
            self._extend(fresh, terms)

    def _extend(self, fresh, terms) -> None:
        """Grow the store by ``len(fresh)`` low bits, ``fresh[0]`` the
        highest of them; every existing bit moves up."""
        k = len(fresh)
        for q in self._bit_of:
            self._bit_of[q] += k
        self._bit_of.update((q, k - 1 - i) for i, q in enumerate(fresh))
        self._grow(k, terms)

    def _drop(self, qubit: int, keep, scale=1.0) -> None:
        """Remove ``qubit``'s bit, keeping half ``keep`` of it, scaled.

        ``keep`` is 0/1 (``scale`` a Python float) or, at a shots fork,
        the surviving branches' ``(branch, outcome)`` index arrays (one
        ``scale`` each).  The new store owns fresh contiguous arrays,
        never views that keep the doubled buffers alive.
        """
        b = self._bit_of.pop(qubit)
        if isinstance(keep, tuple):
            src, outcome = keep
            out = []
            for halves in self._halves(b):
                new = np.empty((len(src),) + halves[0].shape[1:], dtype=self._dtype)
                for o in (0, 1):
                    new[outcome == o] = halves[o][src[outcome == o]]
                # Scale in the state's own real dtype (exact for float64)
                # so a complex64 state is not promoted.
                new *= scale.astype(new.real.dtype).reshape((-1,) + (1,) * (new.ndim - 1))
                out.append(new)
        else:
            out = [halves[keep] * scale for halves in self._halves(b)]
        for q, x in self._bit_of.items():
            if x > b:
                self._bit_of[q] = x - 1
        self._rebuild(out)

    def _run(self, ops) -> None:
        """Run ``ops`` on store bits through the frozen gate path."""
        self.execute_segments(self.compile_batch(ops))

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply(self, u: np.ndarray, *qubits: int) -> None:
        """Apply a ``2^k x 2^k`` unitary to ``k`` qubits (a one-op batch).

        The first qubit in ``qubits`` corresponds to the most significant
        bit of the matrix index (``U = sum |i><j|`` over k-bit ints).
        """
        self.apply_ops((Op(G.UNITARY, qubits, u=u),))

    def apply_controlled(
        self, u: np.ndarray, controls: Sequence[int], targets: Sequence[int]
    ) -> None:
        """Apply ``u`` on ``targets`` conditioned on all ``controls`` = |1>
        (a one-op batch; ``u`` runs on the controls' all-ones slice)."""
        self.apply_ops((controlled_unitary(u, controls, targets),))

    def apply_ops(self, ops) -> None:
        """Execute a batch of typed op records (see :mod:`repro.sim.ops`).

        Copy entries are resolved (:meth:`route_copies`) and the touched
        pending qubits merged; the batch is then compiled
        (``compile_batch``), frozen against the current layout and run —
        the same freeze-then-``execute_frozen`` path a schedule-cache
        miss takes, so a cold batch and a warm replay differ only in who
        kept the program.
        """
        ops = self.route_copies(ops)
        if self._pending:
            ops = tuple(ops)
            self._merge(q for op in ops for q in op.qubits)
        self._run(ops)

    def execute_segments(self, segments) -> None:
        """Run a compiled segment list once: freeze, then execute."""
        self.execute_frozen(self.freeze_segments(segments))

    # ------------------------------------------------------------------
    # measurement and inspection
    # ------------------------------------------------------------------
    def _branch_prob_one(self, qubit: int) -> np.ndarray:
        """Per-branch probability of |1> on the store bit of ``qubit``,
        shape ``(B,)``."""
        B = self.n_branches
        p = sum(
            (np.abs(one.reshape(B, -1)) ** 2).sum(axis=1)
            for _, one in self._halves(self._bit(qubit))
        )
        return np.clip(p, 0.0, 1.0)

    def prob_one(self, qubit: int):
        """Probability of measuring |1> on ``qubit`` (no collapse).

        Outside shots mode (and whenever every tracked branch agrees)
        this is a plain float; after a measurement fork made the
        probability branch-dependent, the per-shot values are returned
        as an array instead.
        """
        self._merge((qubit,))
        p = self._branch_prob_one(qubit)
        if self._shots is None or np.ptp(p) < self._agree_eps:
            return float(p[0])
        return p[self._shot_of]

    def measure(self, qubit: int):
        """Projective Z-basis measurement with collapse.

        Returns 0 or 1; in shots mode returns a
        :class:`~repro.sim.shots.ShotBits` of per-shot outcomes, and the
        store's rows fork into one per surviving ``(branch, outcome)``
        pair.
        """
        if self._is_fresh_zero(qubit):
            return self._measure_fresh_zero()
        self._unshare((qubit,))
        self._merge((qubit,))
        if self._shots is None:
            bit = int(self.rng.random() < self.prob_one(qubit))
            self.postselect(qubit, bit)
            return bit
        p1 = self._branch_prob_one(qubit)
        bits, self._shot_of, (src, outcome, scale) = fork_outcomes(
            p1, self._shot_of, self.rng
        )
        self._fork(src)
        for zero, one in self._halves(self._bit(qubit)):
            zero[outcome == 1] = 0.0
            one[outcome == 0] = 0.0
        self._scale_rows(scale)
        return bits

    def _scale_rows(self, scale: np.ndarray) -> None:
        """Multiply every branch row by its ``scale``, in place, in the
        state's own real dtype (exact for float64; complex64 is not
        promoted)."""
        col = scale.astype(np.finfo(self._dtype).dtype)[:, None]
        for a in self._arrays():
            v = a.reshape(self.n_branches, -1)
            v *= col

    def apply_pauli_if(self, cond, pauli: str, qubit: int) -> None:
        """Apply a Pauli to ``qubit`` where ``cond`` holds.

        ``cond`` is an int/bool (plain conditional application) or
        per-shot measurement data (:class:`~repro.sim.shots.ShotBits`):
        the Pauli is then applied only on the branches whose shots
        satisfy it — the vectorized form of the protocols' classical
        ``if m: X`` fixups.  An unknown Pauli name raises ``KeyError``
        whatever ``cond`` is.
        """
        pauli = pauli.upper()
        if pauli not in G.PAULIS:
            raise KeyError(pauli)
        if pauli == "I":
            return
        if self._shots is None:
            if not cond:
                return
            if qubit in self._copies and pauli != "Y":
                if pauli == "X":
                    source, flip = self._copies[qubit]
                    self._copies[qubit] = (source, 1 - flip)
                else:
                    self._z_on_copy(qubit)
                return
            rows = ...
        else:
            mask = branch_mask(cond, self._shot_of, self.n_branches)
            if not mask.any():
                return
            rows = ... if mask.all() else mask
        self._pauli(qubit, pauli, rows)

    def _pauli(self, qubit: int, pauli: str, rows) -> None:
        """X/Y/Z on ``qubit`` in place: a swap of its two halves, a
        negation of one, or both — no contraction.  ``rows`` is ``...``
        (walked in slabs) or, in shots mode, the boolean mask of the
        branches to act on (gathered: the masked rows are copied)."""
        if pauli != "Z":
            self._unshare((qubit,))
        self._merge((qubit,))
        for zero, one in self._halves(self._bit(qubit)):
            for sel in slabs(zero.shape) if rows is ... else (rows,):
                if pauli == "X":
                    zero[sel], one[sel] = one[sel], zero[sel].copy()
                elif pauli == "Y":
                    zero[sel], one[sel] = -1j * one[sel], 1j * zero[sel]
                else:
                    one[sel] *= -1

    def postselect(self, qubit: int, bit: int) -> None:
        """Project ``qubit`` onto ``|bit>`` and renormalize (per branch)."""
        if bit not in (0, 1):
            raise SimulationError(f"postselect bit must be 0 or 1, got {bit!r}")
        self._unshare((qubit,))
        self._merge((qubit,))
        for halves in self._halves(self._bit(qubit)):
            halves[1 - bit][...] = 0.0
        B = self.n_branches
        norms = np.sqrt(
            sum((np.abs(a.reshape(B, -1)) ** 2).sum(axis=1) for a in self._arrays())
        )
        if np.any(norms < self._norm_eps):
            raise SimulationError(
                f"postselecting qubit {qubit} on {bit}: outcome has zero "
                "probability" + ("" if self._shots is None else " in some branch")
            )
        self._scale_rows(1.0 / norms)

    def measure_many(self, qubits: Iterable[int]) -> list[int]:
        """Measure several qubits sequentially (with collapse)."""
        return [self.measure(q) for q in qubits]

    def _checked(self, qubits, what: str) -> list[int]:
        """``qubits`` (default: every id, ascending) if they are exactly
        the allocated ids, merged into the store of an unforked run."""
        qubits = list(qubits) if qubits is not None else list(self.qubit_ids)
        if sorted(qubits) != list(self.qubit_ids):
            raise SimulationError(f"{what}() requires all qubit ids exactly once")
        self._require_unforked(what)
        self._merge(qubits)
        return qubits

    def amplitude(self, bits: Sequence[int], qubits: Sequence[int] | None = None) -> complex:
        """Amplitude of the computational basis state given by ``bits``.

        ``qubits`` defaults to all qubits in allocation order.
        """
        if len(bits) != (self.num_qubits if qubits is None else len(qubits)):
            raise SimulationError("bits and qubits must have equal length")
        qubits = self._checked(qubits, "amplitude")
        g = sum(int(b) << self._bit_of[q] for b, q in zip(bits, qubits))
        arrays = self._arrays()
        size = arrays[0].size
        return complex(arrays[g // size].reshape(-1)[g % size])

    def statevector(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Dense state vector with ``qubits[0]`` as the most significant bit.

        ``qubits`` must enumerate all allocated qubits; defaults to
        allocation order.
        """
        qubits = self._checked(qubits, "statevector")
        arrays = self._arrays()
        full = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        n = len(self._bit_of)
        axes = [n - 1 - self._bit_of[q] for q in qubits]
        return np.moveaxis(full.reshape((2,) * n), axes, range(n)).reshape(-1).copy()

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement distribution over computational basis states."""
        return np.abs(self.statevector(qubits)) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (should always be ~1).

        In shots mode this is the root-mean-square of the per-branch
        norms, so it stays ~1 regardless of how many branches exist.
        """
        sq = sum(float(np.vdot(a, a).real) for a in self._arrays())  # no temporaries
        return float(np.sqrt(sq / self.n_branches))

    def expectation_pauli(self, mapping: dict[int, str]) -> float:
        """Expectation value of a Pauli string ``{qubit: 'X'|'Y'|'Z'}``."""
        self._require_unforked("expectation_pauli")
        self._unshare(mapping)
        self._merge(mapping)
        twin = self._clone()
        for q, p in mapping.items():
            twin.apply(G.PAULIS[p.upper()], q)
        val = sum(np.vdot(a, b) for a, b in zip(self._arrays(), twin._arrays()))
        return float(np.real(val))

    def _clone(self):
        """A copy owning its entries and store, sharing the RNG."""
        out = _copy.copy(self)
        # Same break-even, fresh counters: the copy's kernel hits are its own.
        out._kernels = KernelDispatch()
        out._kernels.jit_min_amps = self._kernels.jit_min_amps
        out._bit_of = dict(self._bit_of)
        out._pending = dict(self._pending)
        out._copies = dict(self._copies)
        if self._shot_of is not None:
            out._shot_of = self._shot_of.copy()
        out._own_store()
        return out

    def copy(self):
        """Deep copy (shares no state, including a cloned RNG)."""
        out = self._clone()
        out.rng = np.random.default_rng(self.rng.integers(2**63))
        return out


bind_engine_gates(Register)
