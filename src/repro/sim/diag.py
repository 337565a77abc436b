"""Diagonal phase-vector batching: the ``DiagBatch`` record and its kernels.

Diagonal ops (z, s, t, tdg, rz, phase, cz, crz, cphase, and any fused
2x2 diagonal) all commute in the computational basis, so a run of them
is a single diagonal operator.  :func:`coalesce_diagonals` collapses
such runs — :func:`repro.sim.schedule.lower_flush` calls it on every
flushed stream buffer — into one :class:`DiagBatch` op carrying *phase tables*:

* ``phases1[q]``      — a length-2 table: the factor each value of qubit
  ``q`` picks up;
* ``phases2[(a, b)]`` — a length-4 table indexed by ``(bit_a << 1) |
  bit_b``: the joint factor a qubit pair picks up (cz / crz / cphase
  collapse here, with repeats on the same pair merging into one table).

The engines then materialize each batch as **one phase vector** and
apply it in a single vectorized multiply instead of one strided pass
per gate: :func:`chunk_phase` builds a broadcastable tensor over the
``(2,)*n`` amplitude view, resolving any *shard-axis* bits against the
chunk index so distributed chunks only ever scale themselves — no
pair-chunk traffic, on any axis.  The tensor itself is built by a
**doubling/DP scheme**: the flat table grows one live bit at a time and
each phase table folds in while the array is still small (as soon as
its highest bit exists), so all-distinct pair sets like the QFT ladder
cost ``sum_parts 2^(maxbit+1)`` updates instead of ``parts * 2^L``.
Both engines apply a batch one way (:func:`apply_phase_tables`): the
register is cut into slabs of at most
:data:`~repro.sim.kernels.TILE_AMPS` amplitudes, the tables on a
slab's own bits make one slab-sized base tensor, and the tables that
touch a higher bit (a shard axis or a high local axis) make a small
factor per group of slabs (:func:`slab_factors`), so no table the size
of a chunk or of the state is ever built.

This module lives in :mod:`repro.sim` (below the op IR) so both engines
can import it without cycles;
:mod:`repro.qmpi.ops` re-exports :class:`DiagBatch` as part of the
public IR.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import kernels as _kernels
from .kernels import imul as _imul

__all__ = [
    "DiagBatch",
    "coalesce_diagonals",
    "chunk_phase",
    "slab_factors",
    "apply_phase_tables",
]

#: Table re-index that swaps the two bits of a pair phase table
#: (``(a, b) -> (b, a)``: entries 01 and 10 trade places).
_PAIR_SWAP = (0, 2, 1, 3)


class DiagBatch:
    """A coalesced run of commuting diagonal ops, as phase tables.

    Instances quack like :class:`~repro.sim.ops.Op` where the pipeline
    cares (``qubits``/``targets``/``controls``, ``is_diagonal``,
    ``spec``/``gate``/``params``) so rank-ownership checks and dispatch
    treat them uniformly; engines special-case them for the phase-vector
    fast path, and anything else can fall back to :meth:`terms`.

    Build instances with :meth:`from_ops` (or let
    :func:`coalesce_diagonals` do it); the constructor trusts its
    arguments.
    """

    __slots__ = ("phases1", "phases2", "_qubits", "sources")

    #: Op-protocol constants: a batch is an uncontrolled, multi-target,
    #: diagonal pseudo-op outside the GATESET registry.
    spec = None
    gate = "diag_batch"
    params: tuple = ()
    controls: tuple = ()
    n_controls = 0
    is_diagonal = True
    is_single = False
    u = None

    def __init__(self, phases1, phases2, qubits):
        self.phases1 = phases1
        self.phases2 = phases2
        self._qubits = tuple(qubits)
        #: Source op records the batch was coalesced from (set by
        #: :meth:`from_ops` when every input is a plain op; ``None``
        #: otherwise).  The schedule cache keys on them to rebuild the
        #: phase tables under fresh rotation parameters.
        self.sources = None

    @property
    def qubits(self) -> tuple:
        """Every qubit the batch touches, in first-touch order."""
        return self._qubits

    @property
    def targets(self) -> tuple:
        """Alias of :attr:`qubits` (a batch has no control operands)."""
        return self._qubits

    @property
    def n_ops(self) -> int:
        """Number of phase tables carried (after same-operand merging)."""
        return len(self.phases1) + len(self.phases2)

    @classmethod
    def from_ops(cls, ops) -> "DiagBatch":
        """Coalesce a run of diagonal ops (or batches) into one batch.

        Every op must be diagonal on one or two qubits (controls count:
        ``crz(c, t)`` is a two-qubit diagonal).  Repeated operands
        multiply into the existing table — L layers of the same ZZ pair
        cost one table — and a reversed pair key ``(b, a)`` is permuted
        into the first-seen orientation.
        """
        phases1: dict[int, np.ndarray] = {}
        phases2: dict[tuple[int, int], np.ndarray] = {}
        order: list[int] = []
        seen: set[int] = set()

        def touch(qs):
            for q in qs:
                if q not in seen:
                    seen.add(q)
                    order.append(q)

        def mul1(q, table):
            if q in phases1:
                phases1[q] *= table
            else:
                phases1[q] = np.array(table, dtype=np.complex128)

        def mul2(a, b, table):
            if (a, b) in phases2:
                phases2[(a, b)] *= table
            elif (b, a) in phases2:
                phases2[(b, a)] *= np.asarray(table)[list(_PAIR_SWAP)]
            else:
                phases2[(a, b)] = np.array(table, dtype=np.complex128)

        ops = tuple(ops)
        plain = True
        for op in ops:
            if isinstance(op, DiagBatch):
                plain = False
                for q, t in op.phases1.items():
                    touch((q,))
                    mul1(q, t)
                for (a, b), t in op.phases2.items():
                    touch((a, b))
                    mul2(a, b, t)
                continue
            qs = op.qubits
            if not op.is_diagonal or not 1 <= len(qs) <= 2:
                raise ValueError(f"cannot coalesce non-diagonal op {op!r}")
            touch(qs)
            # Read the diagonal without materializing the (controlled)
            # matrix: a single-control gate contributes (1, 1, u00, u11).
            tm = op.target_matrix()
            if op.n_controls == 1 and len(op.targets) == 1:
                d = (1.0, 1.0, tm[0, 0], tm[1, 1])
            else:
                d = np.diagonal(tm)
            if len(qs) == 1:
                mul1(qs[0], d)
            else:
                mul2(qs[0], qs[1], d)
        batch = cls(phases1, phases2, order)
        if plain:
            batch.sources = ops
        return batch

    def terms(self):
        """Yield ``(qubits, table)`` elementary diagonal factors.

        The generic fallback for engines without a phase-vector path:
        applying ``np.diag(table)`` to each ``qubits`` tuple in order
        reproduces the batch exactly.
        """
        for q, t in self.phases1.items():
            yield (q,), t
        for (a, b), t in self.phases2.items():
            yield (a, b), t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DiagBatch singles={sorted(self.phases1)} "
            f"pairs={sorted(self.phases2)}>"
        )


def coalesce_diagonals(ops):
    """Collapse maximal runs of small diagonal ops into ``DiagBatch`` records.

    Scans the op sequence in order: contiguous runs of diagonal ops on
    one or two qubits (z/s/t/tdg/rz/phase/cz/crz/cphase, fused 2x2
    diagonals, prior batches) collapse into one :class:`DiagBatch` per
    run; any other op — including diagonal ops wider than two qubits —
    is a barrier that splits the run.  Runs of length one are left as
    plain ops: a lone cz already has a communication-free path, and a
    lone diagonal's window is monomial, so the engines scale its slices
    in place (:meth:`~repro.sim.kernels.KernelDispatch.contract`) without
    building a phase table.
    Semantics are exact: diagonal ops commute, so the batched product
    equals the sequential application.
    """
    out: list = []
    run: list = []

    def drain():
        if len(run) >= 2:
            out.append(DiagBatch.from_ops(run))
        else:
            out.extend(run)
        run.clear()

    for op in ops:
        if op.is_diagonal and 1 <= len(op.qubits) <= 2:
            run.append(op)
        else:
            drain()
            out.append(op)
    drain()
    return out


def slab_factors(singles, pairs, slab_bits, n_slabs, kernels=None):
    """Split a batch's phase tables into per-slab factors, lazily.

    The register is ``n_slabs`` slabs of ``2^slab_bits`` amplitudes:
    global amplitude index ``g`` lives in slab ``g >> slab_bits``.
    ``singles``/``pairs`` are bit-position phase tables (the
    :func:`chunk_phase` convention); a bit ``>= slab_bits`` is fixed
    within a slab, whether it is a shard axis or a high local axis.

    * The tables on slab bits only make one ``base`` tensor, built once
      and shared by every slab.
    * A pair with one bit on each side makes, per value of its high
      bit, a table on its low axis: these tables make one ``tensor``
      per *key* (the slab's values of those high bits).
    * The tables on high bits only make one scalar per *signature*
      (the slab's values of those bits).

    Yields ``(factors, members)`` per (key, signature) group, one key's
    tensor built at a time: ``members`` are the group's slab indices
    and ``factors`` the tensors each of them multiplies in place —
    ``base``, then the key's tensor times the signature's scalar, with
    identities left out (a control bit fixed to 0 leaves no factor).
    Every factor broadcasts against a ``(-1,) + (2,) * slab_bits``
    slab view and covers at most ``2^slab_bits`` amplitudes, so the
    scratch is a few slabs however many slabs the register has.
    ``kernels`` (a :class:`repro.sim.kernels.KernelDispatch`) routes
    table fills through the native phase fill when the size warrants;
    tables are bit-identical either way.
    """
    m = slab_bits
    lo_s = [(b, t) for b, t in singles if b < m]
    hi_s = [(b, t) for b, t in singles if b >= m]
    lo_p, mixed, hi_p = [], [], []
    for bb, t in pairs:
        n_high = (bb[0] >= m) + (bb[1] >= m)
        (lo_p, mixed, hi_p)[n_high].append((bb, t))
    base = _non_identity(chunk_phase(lo_s, lo_p, m, kernels=kernels))
    if not (hi_s or mixed or hi_p):
        if base is not None:
            yield (base,), range(n_slabs)
        return
    key_bits = sorted({b - m for bb, _ in mixed for b in bb if b >= m})
    sig_bits = sorted(
        {b - m for b, _ in hi_s} | {b - m for bb, _ in hi_p for b in bb}
    )
    g = np.arange(n_slabs)
    key = _pack(g, key_bits)
    group = (key << len(sig_bits)) | _pack(g, sig_bits)
    # Every slab's scalar at once: the high-only tables read at its bits.
    scalars = np.ones(n_slabs, dtype=np.complex128)
    for b, t in hi_s:
        scalars *= np.asarray(t, dtype=np.complex128)[(g >> (b - m)) & 1]
    for (ba, bb), t in hi_p:
        index = (((g >> (ba - m)) & 1) << 1) | ((g >> (bb - m)) & 1)
        scalars *= np.asarray(t, dtype=np.complex128).reshape(4)[index]
    order = np.argsort(group, kind="stable")
    cuts = np.flatnonzero(np.diff(group[order])) + 1
    tensor, tensor_key = None, None
    for members in np.split(order, cuts):
        first = int(members[0])
        if key[first] != tensor_key:
            tensor_key = key[first]
            tensor = _non_identity(chunk_phase([], mixed, m, first, kernels=kernels))
        scalar = scalars[first]
        if scalar == 1.0:
            extra = tensor
        else:
            extra = scalar if tensor is None else tensor * scalar
        factors = tuple(f for f in (base, extra) if f is not None)
        if factors:
            yield factors, members.tolist()


def apply_phase_tables(singles, pairs, chunks, n_local, kernels=None):
    """Multiply a batch's phase tables into a register in place, slab by slab.

    The one way both engines apply a :class:`DiagBatch`.  ``chunks``
    are the register's C-contiguous chunks in global order, each of
    ``rows`` shot-branch rows times ``2^n_local`` amplitudes (the
    shared engine's state is one chunk); table bits ``>= n_local`` are
    shard axes.  Slabs span ``min(n_local, log2 TILE_AMPS)`` bits and
    take their factors from :func:`slab_factors`, so a register of at
    most one slab per chunk multiplies one table per chunk.
    """
    m = min(n_local, _kernels.TILE_AMPS.bit_length() - 1)
    per = n_local - m
    views = [c.reshape((-1, 1 << per) + (2,) * m) for c in chunks]
    low = (1 << per) - 1
    for factors, members in slab_factors(singles, pairs, m, len(chunks) << per, kernels):
        for i in members:
            v = views[i >> per][:, i & low]
            for f in factors:
                v *= f


def _pack(values, bits):
    """``values``' bits at positions ``bits``, packed into ints (first bit
    most significant)."""
    out = np.zeros_like(values)
    for b in bits:
        out = (out << 1) | ((values >> b) & 1)
    return out


def _non_identity(tensor):
    """``tensor``, or None for the 0-d identity :func:`chunk_phase` returns
    when no table is live."""
    if tensor.ndim == 0 and tensor.item() == 1.0:
        return None
    return tensor


def chunk_phase(singles, pairs, n_axes, ci=0, kernels=None):
    """Materialize phase tables as one broadcastable tensor.

    Parameters
    ----------
    singles:
        Iterable of ``(bit, table2)`` — single-qubit phase tables at bit
        position ``bit`` (bit 0 = least significant amplitude index).
    pairs:
        Iterable of ``((bit_a, bit_b), table4)`` — pair tables indexed
        by ``(bit_a << 1) | bit_b``.
    n_axes:
        Number of *local* axes: the returned tensor broadcasts against
        an amplitude view of shape ``(2,) * n_axes``.
    ci:
        Chunk index.  Bits ``>= n_axes`` are shard-axis bits whose value
        is fixed per chunk: they contribute scalars (or collapse a pair
        table to a single-axis table) read from ``ci``'s bits.
    kernels:
        Optional :class:`repro.sim.kernels.KernelDispatch`.  The
        multiply-path doubling fill dispatches to the native driver when
        the size gate passes; the wide-batch angle path always stays on
        numpy's vectorized cos/sin (libm transcendentals are not
        bit-portable).

    Returns a complex tensor of shape ``(1|2,) * n_axes`` — size 2 only
    on the axes a table touches — so applying a whole batch to a chunk
    is the single in-place multiply ``chunk.reshape((2,)*n_axes) *= out``.
    """
    scalar = complex(1.0)
    parts: list[tuple[tuple[int, ...], np.ndarray]] = []
    for b, t in singles:
        if b >= n_axes:
            scalar *= complex(t[(ci >> (b - n_axes)) & 1])
        else:
            parts.append(((n_axes - 1 - b,), np.asarray(t, dtype=np.complex128)))
    for (ba, bb), t in pairs:
        t = np.asarray(t, dtype=np.complex128).reshape(2, 2)
        va = (ci >> (ba - n_axes)) & 1 if ba >= n_axes else None
        vb = (ci >> (bb - n_axes)) & 1 if bb >= n_axes else None
        if va is not None and vb is not None:
            scalar *= complex(t[va, vb])
        elif va is not None:
            parts.append(((n_axes - 1 - bb,), t[va]))
        elif vb is not None:
            parts.append(((n_axes - 1 - ba,), t[:, vb]))
        else:
            ax_a, ax_b = n_axes - 1 - ba, n_axes - 1 - bb
            if ax_a > ax_b:
                parts.append(((ax_b, ax_a), t.T))
            else:
                parts.append(((ax_a, ax_b), t))
    # Pre-scan for non-identity parts: tables collapsed by shard bits
    # are often pure identity (a control bit fixed to 0), and the tensor
    # only needs size 2 on axes a *live* part touches. Scalar entries
    # are compared as Python complex — numpy scalar compares in a loop
    # this hot are measurably slow.
    live = []
    for axes, t in parts:
        vals = t.reshape(-1).tolist()
        nz = [i for i, v in enumerate(vals) if v != 1.0]
        if nz:
            live.append((axes, vals, nz))
    if not live:
        # 0-d result: broadcasts as a scalar against any chunk view.
        return np.full((), scalar, dtype=np.complex128)
    # The tensor is built *compressed* — a flat array over just the live
    # axes — and materialized by **doubling**: the flat table grows one
    # live bit at a time (concatenating the array with itself), and each
    # part is folded in as soon as its highest flat bit exists, through
    # a 3-d/5-d strided view of the still-small array. A part whose
    # highest live bit is P therefore costs 2^(P+1) updates instead of
    # 2^L over the full table, which is what makes all-distinct pair
    # sets (the QFT ladder) affordable: sum_parts 2^(maxbit+1) instead
    # of parts * 2^L. Replication is exact because a part's contribution
    # never depends on bits above its own.
    live_axes = sorted({ax for axes, _, _ in live for ax in axes})
    pos = {ax: len(live_axes) - 1 - i for i, ax in enumerate(live_axes)}
    n_live = len(live_axes)
    # Wide batches accumulate float64 *angles* instead of multiplying
    # complex factors: diagonal gate tables are unit-modulus, so each
    # entry is a pure phase, angle adds move half the memory traffic of
    # complex multiplies, and one cos/sin pass at the end rebuilds the
    # vector. Non-unit entries (a non-unitary explicit diagonal) fall
    # back to complex multiplies on the result. The threshold is where
    # the halved per-part traffic amortizes the two transcendental
    # passes of the final cos/sin.
    use_angles = len(live) >= 24
    deferred = []
    parts_at: list[list] = [[] for _ in range(n_live)]
    for part in live:
        axes, vals, nz = part
        if use_angles and any(abs(abs(vals[i]) - 1.0) > 1e-12 for i in nz):
            deferred.append(part)
        else:
            parts_at[max(pos[ax] for ax in axes)].append(part)
    if use_angles:
        acc = np.zeros(1, dtype=np.float64)
        for p in range(n_live):
            acc = np.concatenate([acc, acc])
            for axes, vals, nz in parts_at[p]:
                if len(axes) == 1:
                    v = acc.reshape(-1, 2, 1 << pos[axes[0]])
                    for i in nz:
                        v[:, i, :] += cmath.phase(vals[i])
                else:
                    pa, pb = pos[axes[0]], pos[axes[1]]  # ascending => pa > pb
                    v = acc.reshape(-1, 2, 1 << (pa - pb - 1), 2, 1 << pb)
                    for i in nz:
                        v[:, i >> 1, :, i & 1, :] += cmath.phase(vals[i])
        out = np.empty(acc.size, dtype=np.complex128)
        out.real = np.cos(acc)
        out.imag = np.sin(acc)
        if scalar != 1.0:
            out *= scalar
    else:
        # The multiply path is the dispatched kernel: folds are planar
        # float64 multiplies (see repro.sim.kernels — numpy's complex
        # ufunc may FMA-contract, the planar tree cannot), so the numpy
        # fill below and the native fill are bit-identical.
        out = None
        if kernels is not None and kernels.native(1 << n_live):
            enc = []
            for p in range(n_live):
                for axes, vals, nz in parts_at[p]:
                    if len(axes) == 1:
                        enc.append((p, 1, pos[axes[0]], 0, vals, nz))
                    else:
                        enc.append((p, 2, pos[axes[0]], pos[axes[1]], vals, nz))
            out = kernels.phase_fill(scalar, n_live, enc)
        if out is None:
            if kernels is not None:
                kernels.counters["numpy_fallbacks"] += 1
            out = np.full(1, scalar, dtype=np.complex128)
            for p in range(n_live):
                out = np.concatenate([out, out])
                for axes, vals, nz in parts_at[p]:
                    if len(axes) == 1:
                        v = out.reshape(-1, 2, 1 << pos[axes[0]])
                        for i in nz:
                            _imul(v[:, i, :], vals[i])
                    else:
                        pa, pb = pos[axes[0]], pos[axes[1]]  # ascending => pa > pb
                        v = out.reshape(-1, 2, 1 << (pa - pb - 1), 2, 1 << pb)
                        for i in nz:
                            _imul(v[:, i >> 1, :, i & 1, :], vals[i])
    # Non-unit-modulus leftovers of the angle path: rare, applied as
    # full-size strided complex multiplies on the finished table.
    for axes, vals, nz in deferred:
        if len(axes) == 1:
            v = out.reshape(-1, 2, 1 << pos[axes[0]])
            for i in nz:
                v[:, i, :] *= vals[i]
        else:
            pa, pb = pos[axes[0]], pos[axes[1]]  # axes ascending => pa > pb
            v = out.reshape(-1, 2, 1 << (pa - pb - 1), 2, 1 << pb)
            for i in nz:
                v[:, i >> 1, :, i & 1, :] *= vals[i]
    shape = [1] * n_axes
    for ax in live_axes:
        shape[ax] = 2
    return out.reshape(tuple(shape))
