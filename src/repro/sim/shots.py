"""Shot-batched trajectory bookkeeping of the amplitude store.

A ``shots=N`` run executes the program **once**: unitary segments walk
the normal schedule-IR interpreter, and only *measurement* makes the N
trajectories observable.  The register therefore keeps, next to its
amplitudes, a small ensemble structure:

* a **branch** is one distinct measurement history.  The state carries a
  leading branch axis (``B`` stacked rows per chunk); unitary segments
  are vectorized over it, so the state evolution runs once regardless
  of N.
* ``shot_of`` maps each of the N shots to its branch.  Before the first
  mid-circuit measurement there is a single branch and every shot points
  at it — this is the "sample from the final state without re-running"
  fast path, made structural: a communication-free, measurement-free
  circuit simply never forks.
* a measurement **forks**: per-branch ``P(1)`` is computed once, every
  shot draws its outcome from its branch's distribution (one vectorized
  RNG draw), and each ``(branch, outcome)`` pair that received at least
  one shot becomes a new branch (the projected, renormalized state).
  Deterministic outcomes (``p`` equal to 0 or 1) never fork, so a GHZ
  measure-all splits once and then stays at two branches.

Measurement results under shots are :class:`ShotBits` — an int-like
per-shot bit vector.  The QMPI protocols compute their Pauli fixups with
ordinary integer arithmetic (``m | 2 * m2``, ``r & 1``) which ShotBits
supports elementwise; *branching* on a result requires either unanimity
across shots (plain ``bool()`` works) or the engines' conditional
application path (``apply_pauli_if``), which reduces the per-shot
condition to a per-branch mask — exact, because every shot of a branch
shares the same measurement history.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = ["ShotBits", "ShotDivergenceError", "fork_outcomes", "branch_mask"]


class ShotDivergenceError(RuntimeError):
    """A per-shot value was used where a single classical value is needed.

    Raised when ``bool()``/``int()`` is taken of a :class:`ShotBits`
    whose shots disagree.  Program-level fixups should go through the
    conditional application path (``backend.apply_pauli_if``) instead of
    ``if bit:`` branching.
    """


class ShotBits:
    """Per-shot classical measurement data: an int-like vector of bits.

    Supports the integer arithmetic the QMPI protocols use on classical
    fixup bits (``&``, ``|``, ``^``, ``+``, ``*``, shifts) elementwise,
    against ints or other ShotBits.  Converting to ``bool``/``int``
    requires all shots to agree (:class:`ShotDivergenceError` otherwise),
    so deterministic protocol branches keep working unchanged under
    ``shots=``.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.int64)
        self.values.setflags(write=False)

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(int(v) for v in self.values)

    def __getitem__(self, i) -> int:
        return int(self.values[i])

    @property
    def shots(self) -> int:
        """Number of shots (the vector length)."""
        return self.values.size

    def counts(self) -> Counter:
        """Histogram of the per-shot values."""
        return Counter(int(v) for v in self.values)

    # -- scalar conversion (unanimous only) ---------------------------
    def _scalar(self) -> int:
        v = self.values
        if v.size == 0:
            return 0
        first = int(v[0])
        if not np.all(v == first):
            raise ShotDivergenceError(
                "shots disagree on this classical value; use the engines' "
                "conditional path (apply_pauli_if) instead of branching on it"
            )
        return first

    def __bool__(self) -> bool:
        return bool(self._scalar())

    def __int__(self) -> int:
        return self._scalar()

    __index__ = __int__

    # -- elementwise integer arithmetic --------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, ShotBits):
            return other.values
        if isinstance(other, (int, np.integer)):
            return int(other)
        if isinstance(other, np.ndarray):
            return other
        return NotImplemented

    def _binop(self, other, fn):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ShotBits(fn(self.values, o))

    def __and__(self, other):
        return self._binop(other, np.bitwise_and)

    __rand__ = __and__

    def __or__(self, other):
        return self._binop(other, np.bitwise_or)

    __ror__ = __or__

    def __xor__(self, other):
        return self._binop(other, np.bitwise_xor)

    __rxor__ = __xor__

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def __rshift__(self, other):
        return self._binop(other, np.right_shift)

    def __lshift__(self, other):
        return self._binop(other, np.left_shift)

    def __mod__(self, other):
        return self._binop(other, np.mod)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return bool(np.array_equal(self.values, np.broadcast_to(o, self.values.shape)))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # mutable-adjacent value semantics; not hashable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        v = self.values
        head = ",".join(str(int(x)) for x in v[:8])
        tail = ",..." if v.size > 8 else ""
        return f"<ShotBits n={v.size} [{head}{tail}]>"


def fork_outcomes(p1, shot_of, rng):
    """Plan a measurement fork: sample every shot, split the branches.

    Parameters
    ----------
    p1:
        Per-branch probability of outcome 1, shape ``(B,)``.
    shot_of:
        Shot-to-branch assignment, shape ``(S,)`` of ints in ``[0, B)``.
    rng:
        The engine's :class:`numpy.random.Generator` (one vectorized
        draw of ``S`` uniforms — the shots analogue of the engines'
        one-draw-per-measurement discipline).

    Returns
    -------
    (bits, new_shot_of, spec):
        ``bits`` — :class:`ShotBits` of the sampled outcomes;
        ``new_shot_of`` — the post-fork assignment; ``spec`` — three
        parallel arrays ``(old_branch, outcome, scale)`` with one entry
        per *surviving* new branch, in new-branch order (sorted by
        ``(old_branch, outcome)``), where ``scale`` is the
        renormalization factor ``1/sqrt(P(outcome))`` the engine applies
        to the projected amplitudes.  Branches that received no shots
        are dropped.
    """
    p1 = np.asarray(p1, dtype=float)
    shot_of = np.asarray(shot_of)
    draws = rng.random(shot_of.size)
    bits = (draws < p1[shot_of]).astype(np.int64)
    # One sort instead of a mask pass per (branch, outcome): the unique
    # keys come out (branch, outcome)-ordered, the inverse is the new
    # assignment.
    keys, new_shot_of = np.unique(2 * shot_of + bits, return_inverse=True)
    branch, outcome = keys >> 1, keys & 1
    scale = 1.0 / np.sqrt(np.where(outcome == 1, p1[branch], 1.0 - p1[branch]))
    return ShotBits(bits), new_shot_of.reshape(shot_of.shape), (branch, outcome, scale)


def branch_mask(cond, shot_of, n_branches: int) -> np.ndarray:
    """Reduce a per-shot condition to a per-branch boolean mask.

    Every shot of a branch shares the same measurement history, so any
    condition derived from measurement results is constant within a
    branch; this checks that invariant and returns the ``(B,)`` mask.
    A scalar condition broadcasts to every branch.
    """
    if isinstance(cond, ShotBits):
        cond = cond.values
    if isinstance(cond, np.ndarray) and cond.ndim:
        vals = (np.asarray(cond) != 0).astype(np.int8)
        if vals.shape != np.shape(shot_of):
            raise ValueError(
                f"condition has {vals.shape[0]} entries for {np.shape(shot_of)[0]} shots"
            )
        lo = np.ones(n_branches, dtype=np.int8)
        hi = np.zeros(n_branches, dtype=np.int8)
        np.minimum.at(lo, shot_of, vals)
        np.maximum.at(hi, shot_of, vals)
        if np.any(lo != hi):
            raise ShotDivergenceError(
                "conditional value varies within a branch; it does not "
                "derive from this run's measurement history"
            )
        return hi.astype(bool)
    return np.full(n_branches, bool(cond))
