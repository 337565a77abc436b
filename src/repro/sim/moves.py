"""Monomial windows: amplitudes moved and scaled, never multiplied.

A window matrix with exactly one nonzero per column — a ``swap``, a
``cnot``, an ``x`` layer, a lone phase, a plan fused only from such
gates — maps each amplitude to one place, times one factor.  Its
pattern (:func:`repro.sim.schedule.monomial_pattern`: column ``j``'s
nonzero sits in row ``pattern[j]``) is decided once, when an engine
freezes its program, and handed to :class:`repro.sim.kernels.Window`,
which :func:`freeze` fills in here.  :meth:`KernelDispatch.contract
<repro.sim.kernels.KernelDispatch.contract>` then runs the window
through :func:`apply`, with no BLAS call, in one of two walks:

* ``"moves"``: the chunk as a few-axis view with one precomputed index
  tuple per window value ``j`` (every control fixed at 1).  A slice the
  pattern fixes is scaled in place; each permutation cycle holds its
  last slice's slab in a buffer while the other slices move one step
  along it.
* ``"gather"``: a window on the low bits, whose slices would walk short
  inner runs, runs on the chunk as rows of its ``2^(top+1)`` lowest
  amplitudes: one ``np.take`` per row slab, or, for a diagonal, one
  broadcast multiply.

The factors ``u[pattern[j], j]`` are read from the current matrix on
every call, so the schedule cache's rebinds flow through, and a factor
that is exactly 1 is a plain copy (or nothing), so a pure permutation
moves amplitudes bit for bit.  Both walks hold at most one
:data:`~repro.sim.kernels.TILE_AMPS` slab of scratch.
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernels

__all__ = ["PATHS", "freeze", "apply"]

#: The :attr:`Window.path <repro.sim.kernels.Window>` values of a
#: monomial window.
PATHS = ("moves", "gather")

#: A window whose bits and controls all lie below bit ``_GATHER_BITS``
#: is gathered when the slices it would otherwise move walk shorter
#: inner runs: under ``_PICK_MIN_RUN`` amplitudes for a permutation,
#: under the row width for a diagonal (docs/benchmarks.md).
_GATHER_BITS = 10
_PICK_MIN_RUN = 8


def freeze(win, bits, controls, pattern) -> None:
    """Fill in ``win`` (a :class:`~repro.sim.kernels.Window`) for ``pattern``.

    Sets ``entry`` (the ``(pattern[j], j)`` factor positions), ``path``
    and ``shape``; then ``picks`` (one index tuple per window value),
    ``fixed`` and ``cycles`` for ``"moves"``, or ``step``, ``src`` and
    ``factor_at`` (:func:`_gather_tables`) for ``"gather"``.
    """
    # The chunk as a few-axis view: the leading axis holds the
    # shot-branch rows and the free bits above the top window or
    # control bit, then one axis per window/control bit and one per run
    # of free bits below it, descending.  A slice's innermost axis is
    # the lowest free run.
    special = sorted({*bits, *controls}, reverse=True)
    shape, axis, hi = [-1], {}, special[0]
    inner = 1 << (win.nl - 1 - hi)  # no free run below the top: the leading axis
    for b in special:
        if hi - b > 1:
            inner = 1 << (hi - b - 1)
            shape.append(inner)
        axis[b] = len(shape)
        shape.append(2)
        hi = b
    if hi:
        inner = 1 << hi
        shape.append(inner)
    win.entry = tuple((p, j) for j, p in enumerate(pattern))
    moved = any(p != j for j, p in win.entry)
    width = 2 << special[0]
    if special[0] < _GATHER_BITS and inner < (_PICK_MIN_RUN if moved else width):
        win.path = "gather"
        win.shape = (-1, width)
        win.step = max(1, kernels.TILE_AMPS // width)
        win.src, win.factor_at = _gather_tables(tuple(bits), tuple(controls), tuple(pattern))
        return
    win.path = "moves"
    win.shape = tuple(shape)
    base = [slice(None)] * len(shape)
    for c in controls:
        base[axis[c]] = 1
    picks = []
    for j in range(win.dim):
        idx = list(base)
        for i, b in enumerate(bits):
            idx[axis[b]] = (j >> (win.k - 1 - i)) & 1
        picks.append(tuple(idx))
    win.picks = tuple(picks)
    fixed, cycles, seen = [], [], set()
    for j in range(win.dim):
        if j in seen:
            continue
        cyc = [j]
        while pattern[cyc[-1]] != j:
            cyc.append(pattern[cyc[-1]])
        seen.update(cyc)
        if len(cyc) == 1:
            fixed.append(j)
        else:
            # (last, ((a_t, a_(t-1)) moves down to a_1), a_0), where
            # pattern[a_t] = a_(t+1): a_(t+1) receives a_t.
            moves = tuple(zip(cyc[:0:-1], cyc[-2::-1]))
            cycles.append((cyc[-1], moves, cyc[0]))
    win.fixed, win.cycles = tuple(fixed), tuple(cycles)


@functools.lru_cache(maxsize=1024)
def _gather_tables(bits, controls, pattern):
    """A ``"gather"`` window's index tables over its ``2 << top`` row.

    Position ``i`` of a row takes the amplitude at ``src[i]`` of the
    same row (``src`` None: every position keeps its own), times the
    factor ``factor_at[i]`` indexes (``dim``: 1, off the control
    slice).  Memoized, since an eager gate freezes its window per call;
    built in plain Python, so a freeze runs no integer ufunc a
    process would otherwise never load.
    """
    k, dim = len(bits), len(pattern)
    inverse = [0] * dim
    for j, p in enumerate(pattern):
        inverse[p] = j
    cmask = sum(1 << c for c in controls)
    keep = ~sum(1 << b for b in bits)
    src, factor_at = [], []
    for i in range(2 << max(bits + controls)):
        if i & cmask != cmask:
            src.append(i)
            factor_at.append(dim)
            continue
        j = 0
        for b in bits:
            j = (j << 1) | ((i >> b) & 1)
        from_j = inverse[j]
        s = i & keep
        for n, b in enumerate(bits):
            s |= ((from_j >> (k - 1 - n)) & 1) << b
        src.append(s)
        factor_at.append(from_j)
    factor_at = np.array(factor_at)
    factor_at.flags.writeable = False
    if pattern == tuple(range(dim)):
        return None, factor_at
    src = np.array(src)
    src.flags.writeable = False
    return src, factor_at


def apply(chunk, u, win) -> None:
    """Run a monomial window in place: ``new[pattern[j]] = u[pattern[j], j] old[j]``.

    ``u`` is already in the chunk's dtype; its factors are read here,
    on every call.
    """
    f = [u.item(p, j) for p, j in win.entry]
    if win.path == "moves":
        _moves(chunk, win, f)
    else:
        _gather(chunk, win, f)


def _put(dst, src, f) -> None:
    """``dst <- f * src``; a plain copy when ``f`` is exactly 1."""
    if f == 1:
        np.copyto(dst, src)
    else:
        np.multiply(src, f, out=dst)


def _moves(chunk, win, f) -> None:
    """A ``"moves"`` window, one slab of its slices at a time.

    A fixed slice is scaled in place (skipped when its factor is exactly
    1); each cycle holds its last slice's slab in a buffer while every
    other slice moves one step along it.  numpy stages a copy between
    two slices of one chunk through a temporary of the same size, so a
    cycle walks half slabs: the buffer and that temporary make one slab.
    """
    view = chunk.reshape(win.shape)
    part = [view[p] for p in win.picks]
    tile = kernels.TILE_AMPS
    # A chunk of at most one slab is one pass, holding a fresh copy: the
    # per-call overhead is what a small register pays.
    one = chunk.size <= tile
    sels = [()] if one else kernels.slabs(part[0].shape, tile // 2 if win.cycles else tile)
    buf = None
    for sel in sels:
        for j in win.fixed:
            if f[j] != 1:
                s = part[j][sel]
                np.multiply(s, f[j], out=s)
        for last, moves, first in win.cycles:
            src = part[last][sel]
            if one:
                held = src.copy()
            else:
                if buf is None:
                    buf = np.empty(src.size, dtype=chunk.dtype)
                held = buf[: src.size].reshape(src.shape)
                np.copyto(held, src)
            for d, s in moves:
                _put(part[d][sel], part[s][sel], f[s])
            _put(part[first][sel], held, f[last])


def _gather(chunk, win, f) -> None:
    """A ``"gather"`` window, one slab of rows at a time.

    A permutation gathers each row slab into one slab buffer and copies
    (or, with factors other than 1, multiplies) it back; a diagonal is
    one broadcast multiply per slab, skipped when every factor is
    exactly 1.
    """
    rows = chunk.reshape(win.shape)
    ones = all(x == 1 for x in f)
    if not ones:
        f = np.array(f + [1], dtype=chunk.dtype)[win.factor_at]
    buf = None
    for r in range(0, len(rows), win.step):
        s = rows[r : r + win.step]
        if win.src is None:
            if not ones:
                np.multiply(s, f, out=s)
            continue
        if buf is None:
            buf = np.empty(s.shape, dtype=chunk.dtype)
        b = buf[: len(s)]
        # mode="clip": the indices are in range, and the default "raise"
        # stages ``out`` through a second buffer.
        np.take(s, win.src, axis=1, out=b, mode="clip")
        if ones:
            np.copyto(s, b)
        else:
            np.multiply(b, f, out=s)
