"""Chunk kernels: two native loops with bit-identical numpy twins.

:class:`KernelDispatch` is the one object the amplitude store
(:class:`~repro.sim.sharded.ShardedStateVector`) sends its gate work
through, once per chunk, in place on C-contiguous chunks whose
shot-branch rows lead (a non-contiguous chunk is refused, since its
flat view would be a copy).  Two of its kernels
run natively when a provider resolves, because a benchmark row spends
its time in them:

* the strided single-qubit 2x2 pass (:meth:`KernelDispatch.sq` on a
  non-diagonal matrix; C ``qk_sq`` / ``qk_sq_f``, reference
  :func:`_sq_py`) — every local-axis ``h`` of the sharded distributed
  QFT is one such pass per chunk;
* the doubling/DP diagonal phase-table fill behind
  :func:`repro.sim.diag.chunk_phase` (:meth:`KernelDispatch.phase_fill`;
  C ``qk_phase``, reference :func:`_phase_py`) — the multiply path
  only; the wide-batch angle-accumulation path stays on numpy's
  vectorized cos/sin at every size, because libm and numpy's SIMD
  transcendentals differ per host.

Everything else is always numpy: the diagonal single-qubit pass, the
locally-controlled pass (:meth:`~KernelDispatch.cc`), the whole-chunk
and control-sliced scales, and the window contraction every
``csel``/``ct`` entry runs, as does every chunk-local single-target
entry on a chunk under ``repro.sim.sharded._WINDOW_BELOW_AMPS``
amplitudes (:meth:`~KernelDispatch.contract`: a walk over the
chunk in slabs of at most :data:`TILE_AMPS` amplitudes; the walk's
layout is a :class:`Window` the store builds once, when it freezes a
program).  A dense window costs one BLAS product per slab, staged
through a slab-sized copy only where the window's axes are not
already a matrix in memory.  A *monomial* window — one nonzero per
matrix column, the pattern :func:`repro.sim.schedule.monomial_pattern`
freezes into its :class:`Window` (``swap``, ``cnot``, ``x``, lone
phases, plans fused from them) — makes no product: its amplitudes
are moved and scaled through one slab of scratch (:mod:`repro.sim.moves`).

**The bit-identity contract.**  A native kernel and its numpy twin
produce *bit-identical* amplitudes (enforced by
tests/integration/test_differential_fuzz.py, which runs its corpus
with ``jit_min_amps`` at 0 and at infinity).  numpy's complex-multiply
ufunc is free to use FMA-contracted SIMD paths that gcc with
``-ffp-contract=off`` will not reproduce, so the two native kernels and
their numpy twins (:func:`sq_full_view`, :func:`imul`) are written in
**planar arithmetic**: separate real/imaginary parts through the fixed
expression tree

    re = (ur*ar - ui*ai) + ...    im = (ur*ai + ui*ar) + ...

with one IEEE-754 multiply/add per node and no fused operations.  The
numpy twins evaluate that tree with float array ops (each ufunc call is
one exactly-rounded IEEE op per element); the native kernels evaluate
it scalar-by-scalar with contraction disabled.  Equality is then
guaranteed by IEEE semantics on any host — and re-verified at provider
warm-up by :func:`_self_check`, which demotes a provider that fails to
reproduce the references bit-for-bit.

The strided pass exists in two precisions: float64 for ``complex128``
chunks and float32 for ``complex64`` chunks.  The contract is *within*
a dtype.  :meth:`KernelDispatch.sq` rounds the 2x2 to the chunk's
precision exactly once, so both arms consume identical operands; the
compiled float loop runs in SSE single precision
(``FLT_EVAL_METHOD == 0``), one rounding per node, matching numpy's
float32 ufuncs.  Diagonal *phase tables* (:mod:`repro.sim.diag`) are
always complex128: their application is an in-place same-kind
multiply whose rounding is dtype-independent, so no float32 phase arm
exists.

**Provider.**  One native provider: a small C module compiled once
through ``cffi`` + the system C compiler (the ``pip install -e .[jit]``
extra) and cached on disk under ``REPRO_QMPI_KERNEL_CACHE`` (default
``~/.cache/repro-qmpi``); without it, pure numpy.  Whether a call goes
native is decided by its size alone (:meth:`KernelDispatch.native`)
and is observable through ``backend.kernel_info()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import time

import numpy as np

from . import moves

__all__ = [
    "KernelDispatch",
    "Window",
    "JIT_MIN_AMPS_DEFAULT",
    "TILE_AMPS",
    "mix_pair",
    "slabs",
    "provider_name",
    "reset_provider_cache",
]

#: Break-even size (amplitudes) below which a kernel stays on its numpy
#: twin: under ~2^12 amplitudes the per-call dispatch overhead
#: (argument staging + the foreign call) eats the single-pass advantage
#: (calibrated by benchmarks/bench_kernels.py).  Each
#: :class:`KernelDispatch` copies it into ``jit_min_amps`` when built;
#: set that attribute on an instance to move it.
JIT_MIN_AMPS_DEFAULT = 1 << 12

#: Most amplitudes one slab of a chunk walk spans: every in-place step
#: of the store (:meth:`KernelDispatch.contract`, :func:`slabs`, the
#: diagonal batches of :mod:`repro.sim.diag` and the chunk
#: exchanges) holds a few slabs of scratch, never a chunk-sized
#: buffer.  A slab, its stage and its product (3 x 512 KiB of
#: ``complex128``) stay inside a 2 MiB L2.  2^15 beat 2^14 by ~8 % on ``trotter_sharded``
#: (4 of 4 alternating pairs) and tied it per call; 2^12, 2^13 and
#: 2^16 lose per call (docs/benchmarks.md).
TILE_AMPS = 1 << 15

#: Lowest bit at which :meth:`KernelDispatch.contract` multiplies an
#: adjacent window run where it lies instead of staging it: a batched
#: ``np.matmul`` over ``(outer, 2^k, 2^low)`` slabs.  Below bit 8 the
#: contiguous inner runs are too short for matmul's batch loop to beat
#: one staged ``np.dot`` (docs/benchmarks.md).
_RUN_MIN_BIT = 8


# ----------------------------------------------------------------------
# references (pure python scalar loops)
# ----------------------------------------------------------------------
# These functions are the executable specification: the C source below
# transliterates them, and the vectorized numpy twins evaluate the same
# expression trees.  Unit tests call them directly (on tiny chunks) so
# the semantics are covered even where no native provider exists.
def _sq_py(af, b, u):
    """Strided 2x2 pass over local bit ``b`` (reference for ``qk_sq``).

    ``af`` is the planar float view of the chunk (any leading shot-row
    count), ``u`` the 2x2 as 8 planar floats of the same precision.
    """
    u00r, u00i, u01r, u01i, u10r, u10i, u11r, u11i = u
    stride = 1 << b
    for i in range(af.shape[0] >> 2):
        lo = ((((i >> b) << (b + 1)) | (i & (stride - 1)))) << 1
        hi = lo + (stride << 1)
        ar = af[lo]
        ai = af[lo + 1]
        br = af[hi]
        bi = af[hi + 1]
        af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi)
        af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br)
        af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi)
        af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br)


def _phase_py(outf, n_live, lvl, kind, pa, pb, nzm, vals, sr, si):
    """Doubling phase-table fill (reference; see chunk_phase's numpy twin).

    ``outf`` is the float64 view of the 2^n_live complex table.  Parts
    arrive sorted by fold level; each level duplicates the current
    prefix (the doubling step) and then folds in its parts as strided
    planar multiplies — per element exactly one multiply per part, in
    part order, matching the numpy doubling path multiply for multiply.
    """
    outf[0] = sr
    outf[1] = si
    size = 1
    pi = 0
    n_parts = lvl.shape[0]
    for p in range(n_live):
        for e in range(2 * size):
            outf[2 * size + e] = outf[e]
        size <<= 1
        while pi < n_parts and lvl[pi] == p:
            a = pa[pi]
            b = pb[pi]
            m = nzm[pi]
            two = kind[pi] == 2
            for e in range(size):
                if two:
                    i = (((e >> a) & 1) << 1) | ((e >> b) & 1)
                else:
                    i = (e >> a) & 1
                if m & (1 << i):
                    vr = vals[8 * pi + 2 * i]
                    vi = vals[8 * pi + 2 * i + 1]
                    r = outf[2 * e]
                    w = outf[2 * e + 1]
                    outf[2 * e] = vr * r - vi * w
                    outf[2 * e + 1] = vr * w + vi * r
            pi += 1


# ----------------------------------------------------------------------
# planar numpy twins of the native kernels
# ----------------------------------------------------------------------
def imul(sub, f) -> None:
    """Planar in-place multiply of a complex view by a complex scalar."""
    fr = f.real
    fi = f.imag
    # .copy() (never ascontiguousarray: a size-1 view is already
    # "contiguous" and would alias) — the old parts must survive the
    # first in-place write.
    r = sub.real.copy()
    m = sub.imag.copy()
    sub.real = fr * r - fi * m
    sub.imag = fr * m + fi * r


def sq_full_view(v, u) -> None:
    """Planar strided 2x2 pass on a ``(-1, 2, stride)`` chunk view."""
    u00 = complex(u[0, 0])
    u01 = complex(u[0, 1])
    u10 = complex(u[1, 0])
    u11 = complex(u[1, 1])
    a0 = v[:, 0, :]
    a1 = v[:, 1, :]
    a0r = a0.real.copy()
    a0i = a0.imag.copy()
    a1r = a1.real.copy()
    a1i = a1.imag.copy()
    a0.real = (u00.real * a0r - u00.imag * a0i) + (u01.real * a1r - u01.imag * a1i)
    a0.imag = (u00.real * a0i + u00.imag * a0r) + (u01.real * a1i + u01.imag * a1r)
    a1.real = (u10.real * a0r - u10.imag * a0i) + (u11.real * a1r - u11.imag * a1i)
    a1.imag = (u10.real * a0i + u10.imag * a0r) + (u11.real * a1i + u11.imag * a1r)


def slabs(shape, tile=None):
    """Index tuples cutting an array of ``shape`` into blocks of at most
    ``tile`` (default :data:`TILE_AMPS`) elements.

    Only leading axes are cut: the trailing axes whose product fits a
    slab stay whole, the axis before them is cut into ranges, and every
    axis before that is walked one index at a time.  Every index is a
    slice, so a block is a view with the array's own ``ndim``; an array
    of at most one slab is the single block ``()``.  The in-place
    kernels walk their views with it, so their scratch is slab-sized
    whatever the chunk.
    """
    tile = TILE_AMPS if tile is None else tile
    inner, cut = 1, len(shape)
    while cut and inner * shape[cut - 1] <= tile:
        cut -= 1
        inner *= shape[cut]
    if not cut:
        return [()]
    cut -= 1
    step = tile // inner
    return [
        tuple(slice(i, i + 1) for i in head) + (slice(s, s + step),)
        for head in np.ndindex(*shape[:cut])
        for s in range(0, shape[cut], step)
    ]


def mix_pair(u, lo, hi, from_hi, from_lo) -> None:
    """``(lo, hi) <- u (lo, hi)``, elementwise and in place, on one slab.

    ``from_hi``/``from_lo`` are what the partner holds: ``hi``/``lo``
    themselves, or a fabric payload that may alias them.  Each is read
    before ``hi``/``lo`` is written, so aliasing is safe; the scratch
    is two slab-sized temporaries.
    """
    new_lo = lo * u[0, 0]
    tmp = from_hi * u[0, 1]
    new_lo += tmp
    np.multiply(from_lo, u[1, 0], out=tmp)
    hi *= u[1, 1]
    hi += tmp
    lo[...] = new_lo


def _control_index(local_controls, nl: int) -> list:
    """Index list selecting the all-ones slice of a ``(-1,)+(2,)*nl`` view."""
    idx: list = [slice(None)] * (nl + 1)
    for b in local_controls:
        idx[nl - b] = 1
    return idx


def _need_c(chunk) -> None:
    """Refuse a chunk whose flat reshape would be a copy.

    The in-place kernels write through ``chunk.reshape(...)`` views; on
    a non-C-contiguous array that reshape is a temporary and the result
    would be silently dropped.
    """
    if not chunk.flags.c_contiguous:
        raise ValueError(
            f"chunk kernels write in place and need a C-contiguous chunk, "
            f"got strides {chunk.strides} for shape {chunk.shape}"
        )


class Window:
    """One window's layout, frozen for :meth:`KernelDispatch.contract`.

    ``bits`` are chunk-local bit positions, first entry = the matrix's
    most significant index bit (the
    :class:`~repro.sim.plan.ContractionPlan` convention); ``nl`` is the
    chunk's bit count; ``controls`` (optional) are bits the window acts
    under: only the slice where all of them are 1 is multiplied.
    Everything :meth:`~KernelDispatch.contract` derives from these — the
    matrix permutation to descending bit order, which slab walk applies,
    the slab shapes, and a view of the chunk with every run of untouched
    axes merged into one — is computed here, once per frozen step, so a
    call on a small chunk pays only the products.  :data:`TILE_AMPS` and
    :data:`_RUN_MIN_BIT` are read at construction.

    ``pattern`` (optional, from
    :func:`repro.sim.schedule.monomial_pattern`) declares the matrix
    monomial: column ``j``'s one nonzero sits in row ``pattern[j]``.
    Such a window makes no product; :func:`repro.sim.moves.freeze`
    lays out its walk instead.
    """

    __slots__ = ("k", "dim", "nl", "perm", "path", "step", "inner", "cols", "shape",
                 "axes", "sel", "n_outer", "n_win", "entry", "picks", "fixed", "cycles",
                 "src", "factor_at")

    def __init__(self, bits, nl: int, controls=(), pattern=None):
        k = len(bits)
        self.k, self.dim, self.nl = k, 1 << k, nl
        if pattern is not None:
            moves.freeze(self, bits, controls, pattern)
            return
        order = sorted(range(k), key=lambda i: -bits[i])
        self.perm = None
        if order != list(range(k)):
            self.perm = tuple(order + [k + i for i in order])
        top, low = bits[order[0]], bits[order[-1]]
        self.inner = self.cols = self.shape = self.axes = self.sel = None
        self.step = self.n_outer = self.n_win = None
        if not controls and top == k - 1:
            self.path = "rows"
            self.step = max(1, TILE_AMPS >> k)
            return
        if not controls and top - low == k - 1 and low >= _RUN_MIN_BIT:
            self.path = "run"
            self.inner = 1 << low
            self.cols = min(self.inner, max(1, TILE_AMPS >> k))
            self.step = max(1, TILE_AMPS // (self.dim * self.inner))
            return
        self.path = "staged"
        # The chunk as a few-axis view, C order: the shot-branch rows,
        # then one axis per window ("w") or control ("c") bit and one per
        # run of free bits between them, descending.  The lowest ``m``
        # free bits ("i") stay whole inside a slab; the rows and the
        # free bits above them ("o") are walked, outermost first.
        special = dict.fromkeys(bits, "w")
        special.update(dict.fromkeys(controls, "c"))
        m = min(nl - len(special), max(0, TILE_AMPS.bit_length() - 1 - k))
        walked = nl - len(special) - m
        of = {"r": [0], "c": [], "w": [], "o": [], "i": []}
        shape, hi = [-1], nl
        for b in sorted(special, reverse=True) + [-1]:
            run = hi - b - 1  # free bits between this cut and the last
            o = min(run, walked)
            walked -= o
            for kind, size in (("o", o), ("i", run - o), (special.get(b), 1)):
                if size and kind:
                    of[kind].append(len(shape))
                    shape.append(1 << size)
            hi = b
        if of["o"]:
            self.axes = tuple(of["c"] + of["r"] + of["o"] + of["w"] + of["i"])
            self.n_outer = 1 + len(of["o"])
        else:
            self.axes = tuple(of["c"] + of["w"] + of["r"] + of["i"])
            self.n_win = k
            self.step = max(1, TILE_AMPS >> (nl - len(controls)))
        self.shape, self.sel = tuple(shape), (1,) * len(controls)


# ----------------------------------------------------------------------
# native provider
# ----------------------------------------------------------------------
_C_SOURCE = r"""
/* Transliteration of kernels._sq_py / kernels._phase_py.  Compiled
 * with -ffp-contract=off: each multiply/add below must stay one
 * exactly-rounded IEEE-754 operation so results are bit-identical to
 * the planar numpy twins on any host. */
void qk_sq(double *af, long long n_amps, long long b, const double *u)
{
    double u00r = u[0], u00i = u[1], u01r = u[2], u01i = u[3];
    double u10r = u[4], u10i = u[5], u11r = u[6], u11i = u[7];
    long long stride = 1LL << b;
    long long half = n_amps >> 1;
    for (long long i = 0; i < half; i++) {
        long long lo = ((((i >> b) << (b + 1)) | (i & (stride - 1)))) << 1;
        long long hi = lo + (stride << 1);
        double ar = af[lo], ai = af[lo + 1];
        double br = af[hi], bi = af[hi + 1];
        af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi);
        af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br);
        af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi);
        af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br);
    }
}

/* Single-precision twin of qk_sq for complex64 chunks: the same
 * expression tree, evaluated in SSE float (FLT_EVAL_METHOD == 0, no
 * promotion to double, contraction off) so each node is one exactly
 * rounded float32 operation, matching numpy's float32 ufuncs. */
void qk_sq_f(float *af, long long n_amps, long long b, const float *u)
{
    float u00r = u[0], u00i = u[1], u01r = u[2], u01i = u[3];
    float u10r = u[4], u10i = u[5], u11r = u[6], u11i = u[7];
    long long stride = 1LL << b;
    long long half = n_amps >> 1;
    for (long long i = 0; i < half; i++) {
        long long lo = ((((i >> b) << (b + 1)) | (i & (stride - 1)))) << 1;
        long long hi = lo + (stride << 1);
        float ar = af[lo], ai = af[lo + 1];
        float br = af[hi], bi = af[hi + 1];
        af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi);
        af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br);
        af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi);
        af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br);
    }
}

void qk_phase(double *outf, long long n_live,
              const long long *lvl, const long long *kind,
              const long long *pa, const long long *pb,
              const long long *nzm, const double *vals,
              long long n_parts, double sr, double si)
{
    outf[0] = sr;
    outf[1] = si;
    long long size = 1;
    long long pi = 0;
    for (long long p = 0; p < n_live; p++) {
        for (long long e = 0; e < 2 * size; e++)
            outf[2 * size + e] = outf[e];
        size <<= 1;
        while (pi < n_parts && lvl[pi] == p) {
            long long a = pa[pi], b = pb[pi], m = nzm[pi];
            int two = kind[pi] == 2;
            for (long long e = 0; e < size; e++) {
                long long i = two
                    ? ((((e >> a) & 1) << 1) | ((e >> b) & 1))
                    : ((e >> a) & 1);
                if (m & (1LL << i)) {
                    double vr = vals[8 * pi + 2 * i];
                    double vi = vals[8 * pi + 2 * i + 1];
                    double r = outf[2 * e], w = outf[2 * e + 1];
                    outf[2 * e] = vr * r - vi * w;
                    outf[2 * e + 1] = vr * w + vi * r;
                }
            }
            pi++;
        }
    }
}
"""

_C_DECLS = """
void qk_sq(double *, long long, long long, const double *);
void qk_sq_f(float *, long long, long long, const float *);
void qk_phase(double *, long long, const long long *, const long long *,
              const long long *, const long long *, const long long *,
              const double *, long long, double, double);
"""


class _CffiProvider:
    """The cached-on-disk C module compiled through cffi + system cc."""

    name = "cffi"

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    def _d(self, arr):
        return self._ffi.cast("double *", arr.ctypes.data)

    def _f(self, arr):
        return self._ffi.cast("float *", arr.ctypes.data)

    def _l(self, arr):
        return self._ffi.cast("long long *", arr.ctypes.data)

    def sq(self, af, b, u):
        # af is the planar float view of the chunk; its dtype selects the
        # single- or double-precision loop (u matches it).
        if af.dtype == np.float32:
            self._lib.qk_sq_f(self._f(af), af.shape[0] >> 1, b, self._f(u))
            return
        self._lib.qk_sq(self._d(af), af.shape[0] >> 1, b, self._d(u))

    def phase(self, outf, n_live, lvl, kind, pa, pb, nzm, vals, sr, si):
        self._lib.qk_phase(
            self._d(outf), n_live,
            self._l(lvl), self._l(kind), self._l(pa), self._l(pb),
            self._l(nzm), self._d(vals), lvl.shape[0], sr, si,
        )


def _cffi_cache_dir() -> str:
    env = os.environ.get("REPRO_QMPI_KERNEL_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-qmpi")


def _load_cffi():
    """Load (or build once, under a lock) the cached C kernel module.

    The module name carries a hash of the C source, so editing the
    kernels invalidates stale builds; a later process finds the built
    artifact and only pays an import.  The file lock serializes
    concurrent cold builds (e.g. two test processes sharing a cache).
    """
    from cffi import FFI

    tag = hashlib.sha1(_C_SOURCE.encode()).hexdigest()[:12]
    modname = f"_repro_qk_{tag}"
    cache = _cffi_cache_dir()
    os.makedirs(cache, exist_ok=True)

    def _find_built():
        for fn in os.listdir(cache):
            if fn.startswith(modname) and fn.endswith(".so"):
                return os.path.join(cache, fn)
        return None

    so = _find_built()
    if so is None:
        lock_path = os.path.join(cache, f"{modname}.lock")
        lock = open(lock_path, "w")
        try:
            try:
                import fcntl

                fcntl.flock(lock, fcntl.LOCK_EX)
            except ImportError:  # pragma: no cover - non-posix
                pass
            so = _find_built()
            if so is None:
                ffi = FFI()
                ffi.cdef(_C_DECLS)
                ffi.set_source(
                    modname,
                    _C_SOURCE,
                    extra_compile_args=["-O3", "-ffp-contract=off"],
                )
                so = ffi.compile(tmpdir=cache, verbose=False)
        finally:
            lock.close()
    spec = importlib.util.spec_from_file_location(modname, so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return _CffiProvider(mod.ffi, mod.lib)


def _self_check(provider) -> str | None:
    """Verify a native provider bit-for-bit against the references.

    Runs the strided pass at every stride of a small chunk in both
    precisions and the phase fill with both part kinds on random data,
    comparing raw bits.  A provider that cannot reproduce the planar
    tree exactly (an over-eager optimizer, an FMA-contracting
    toolchain) is demoted to numpy rather than trusted.
    """
    rng = np.random.default_rng(20260808)
    n = 64
    for f in (np.float64, np.float32):
        chunk = rng.standard_normal(2 * n).astype(f)
        ref = chunk.copy()
        for b in range(n.bit_length() - 1):
            u = rng.standard_normal(8).astype(f)
            _sq_py(ref, b, u)
            provider.sq(chunk, b, u)
        if not np.array_equal(chunk, ref, equal_nan=True):
            return f"{np.dtype(f).name} strided pass is not bit-identical to the reference"
    n_live = 3
    lvl = np.array([0, 1, 2], dtype=np.int64)
    kind = np.array([1, 2, 1], dtype=np.int64)
    pa = np.array([0, 1, 2], dtype=np.int64)
    pb = np.array([0, 0, 0], dtype=np.int64)
    nzm = np.array([0b10, 0b1011, 0b01], dtype=np.int64)
    vals = rng.standard_normal(3 * 8)
    out = np.empty(1 << n_live, dtype=np.complex128)
    refp = np.empty(1 << n_live, dtype=np.complex128)
    _phase_py(refp.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals, 0.5, -0.25)
    provider.phase(out.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals, 0.5, -0.25)
    if not np.array_equal(out.view(np.float64), refp.view(np.float64)):
        return "phase fill is not bit-identical to the reference"
    return None


# (name, provider, compile_time, error) memoized per cache directory so
# monkeypatched tests re-resolve; the cffi .so is cached on disk across
# processes anyway.
_PROVIDER_CACHE: dict[str, tuple] = {}


def _resolve_provider() -> tuple:
    key = _cffi_cache_dir()
    hit = _PROVIDER_CACHE.get(key)
    if hit is not None:
        return hit
    name, provider, compile_time, error = None, None, 0.0, None
    t0 = time.perf_counter()
    try:
        provider = _load_cffi()
        fail = _self_check(provider)
        if fail is not None:
            raise RuntimeError(fail)
        name = "cffi"
        compile_time = time.perf_counter() - t0
    except Exception as exc:
        provider = None
        error = f"cffi: {type(exc).__name__}: {exc}"
    result = (name, provider, compile_time, error)
    _PROVIDER_CACHE[key] = result
    return result


def reset_provider_cache() -> None:
    """Forget resolved providers (tests patch the loader and re-resolve)."""
    _PROVIDER_CACHE.clear()


def provider_name() -> str | None:
    """The native provider the current environment resolves to, if any."""
    return _resolve_provider()[0]


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class KernelDispatch:
    """Per-engine kernel selection, counters and native entry points.

    A call goes native when it spans at least ``jit_min_amps``
    amplitudes (default :data:`JIT_MIN_AMPS_DEFAULT`) and a provider
    resolves; the provider is resolved lazily, on the first call that
    size allows.  That decides exactly two things: whether a
    non-diagonal :meth:`sq` pass goes through :meth:`drive`, and
    whether :meth:`phase_fill` fills natively.  ``jit_hits`` counts
    those native calls; ``numpy_fallbacks`` counts the same two kernels
    run on their numpy twins.  The other kernels are always numpy and
    count neither.  The choice is observable in the counters and the
    wall clock, never in the amplitudes.
    """

    __slots__ = (
        "jit_min_amps",
        "counters",
        "_provider",
        "_resolved",
        "_error",
    )

    def __init__(self):
        self.jit_min_amps = JIT_MIN_AMPS_DEFAULT
        self.counters = {
            "jit_hits": 0,
            "numpy_fallbacks": 0,
            "csel_hits": 0,
            "monomial_hits": 0,
            "compile_time": 0.0,
        }
        self._provider = None
        self._resolved = False
        self._error = None

    # -- selection ------------------------------------------------------
    def _ensure(self):
        if not self._resolved:
            name, provider, compile_time, error = _resolve_provider()
            self._provider = provider
            self._error = error
            self.counters["compile_time"] = compile_time
            self._resolved = True
        return self._provider

    def native(self, n_amps: int) -> bool:
        """Would a native kernel over ``n_amps`` amplitudes dispatch natively?"""
        return n_amps >= self.jit_min_amps and self._ensure() is not None

    def info(self) -> dict:
        """Counters + provenance, mirroring ``cache_info()``.

        Never resolves a provider: ``provider`` is what this dispatch
        resolved, ``None`` before its first native-eligible call.
        """
        provider = self._provider.name if self._provider is not None else None
        out = {"provider": provider, "jit_min_amps": self.jit_min_amps}
        out.update(self.counters)
        out["provider_error"] = self._error
        return out

    # -- kernels --------------------------------------------------------
    @staticmethod
    def _flat(arr):
        """The planar float view of a C-contiguous complex array.

        The view shares the array's memory, so a native pass through it
        writes the array itself; anything else is refused before a
        pointer is taken.
        """
        if arr.dtype not in (np.complex64, np.complex128) or not arr.flags.c_contiguous:
            raise ValueError(
                f"native kernels need a C-contiguous complex64/complex128 array, "
                f"got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
            )
        f = np.float32 if arr.dtype == np.complex64 else np.float64
        return arr.reshape(-1).view(f)

    def drive(self, chunk, u, b: int) -> None:
        """One native strided 2x2 pass over local bit ``b`` of ``chunk``.

        ``u`` is a C-contiguous 2x2 already in the chunk's dtype (what
        :meth:`sq` hands over), read as 8 planar floats.
        """
        self._provider.sq(self._flat(chunk), b, self._flat(u))
        self.counters["jit_hits"] += 1

    def sq(self, chunk, u, b: int, diag: bool) -> None:
        """Local-axis single-qubit pass (a ``"sq"`` entry on bit ``b``).

        A non-diagonal ``u`` goes native through :meth:`drive` when
        :meth:`native` allows, else through the planar numpy twin
        (walked in :func:`slabs`, so its planar copies are slab-sized); a
        diagonal one is two guarded in-place scales.  The chunk may
        carry leading shot-branch rows.
        """
        _need_c(chunk)
        u = np.ascontiguousarray(u, dtype=chunk.dtype)  # round once (complex64)
        v = chunk.reshape(-1, 2, 1 << b)
        if diag:
            if u[0, 0] != 1.0:
                v[:, 0, :] *= u[0, 0]
            if u[1, 1] != 1.0:
                v[:, 1, :] *= u[1, 1]
        elif self.native(chunk.size):
            self.drive(chunk, u, b)
        else:
            self.counters["numpy_fallbacks"] += 1
            # Walked with the pair axis innermost, so a slab keeps both
            # halves of every pair it holds.
            w = v.transpose(0, 2, 1)
            for sel in slabs(w.shape):
                sq_full_view(w[sel].transpose(0, 2, 1), u)

    def scale(self, chunk, f) -> None:
        """Whole-chunk scale (shard-axis diagonal / scalar csel entry)."""
        f = complex(f)
        if f != 1.0:
            chunk *= f

    def cc(self, chunk, u, local_controls, t_bit: int, nl: int, diag: bool) -> None:
        """Locally-targeted controlled 2x2 on the all-ones control slice,
        walked in :func:`slabs`.

        An anti-diagonal ``u`` (a controlled ``x``: ``cnot``,
        ``toffoli``) swaps the pair through one slab buffer and scales
        only by a factor that is not exactly 1, so a permutation moves
        amplitudes bit for bit.
        """
        _need_c(chunk)
        u = np.asarray(u, dtype=chunk.dtype)
        view = chunk.reshape((-1,) + (2,) * nl)
        idx0 = _control_index(local_controls, nl)
        idx1 = list(idx0)
        idx0[nl - t_bit] = 0
        idx1[nl - t_bit] = 1
        idx0, idx1 = tuple(idx0), tuple(idx1)
        if diag:
            if u[0, 0] != 1.0:
                view[idx0] *= u[0, 0]
            if u[1, 1] != 1.0:
                view[idx1] *= u[1, 1]
            return
        a0 = view[idx0]
        a1 = view[idx1]
        if u[0, 0] == 0 and u[1, 1] == 0:
            f0, f1 = u[0, 1], u[1, 0]
            for sel in slabs(a0.shape):
                x, y = a0[sel], a1[sel]
                held = x.copy()
                x[...] = y
                y[...] = held
                if f0 != 1.0:
                    x *= f0
                if f1 != 1.0:
                    y *= f1
            return
        for sel in slabs(a0.shape):
            x, y = a0[sel], a1[sel]
            mix_pair(u, x, y, y, x)

    def masked_scale(self, chunk, f, local_controls, nl: int) -> None:
        """Control-sliced scale (shard-axis-targeted "cc" diagonal)."""
        _need_c(chunk)
        f = complex(f)
        if f != 1.0:
            view = chunk.reshape((-1,) + (2,) * nl)
            view[tuple(_control_index(local_controls, nl))] *= f

    def contract(self, chunk, u, win: "Window") -> None:
        """Contract a ``2^k x 2^k`` window unitary into ``chunk``, in place.

        ``win`` is the window's frozen :class:`Window` (bit positions,
        walk path, slab sizes), built once when an engine freezes its
        program; the chunk may carry leading shot-branch rows (flat size
        a multiple of ``2^nl``).  ``u``'s index bits are first permuted
        to descending bit order (a ``2^k x 2^k`` shuffle; skipped when
        the window's bits already descend), so the amplitudes move in
        the longest contiguous runs the window allows.

        The chunk is then walked in slabs of at most :data:`TILE_AMPS`
        amplitudes (fixed values of the outermost non-window axes), and
        each slab's product is copied back through the slab's view, so
        no call holds a chunk-sized buffer: a walk of several slabs
        reuses one slab-sized product buffer allocated once per call,
        and a one-slab walk (a chunk of at most one slab) takes a fresh
        product:

        * a window on the chunk's ``k`` lowest bits is a row-major
          ``(rest, 2^k)`` matrix as it lies — ``np.matmul(rows, u.T)``
          per slab of rows, no stage;
        * an adjacent run starting at bit :data:`_RUN_MIN_BIT` or higher
          is ``(outer, 2^k, inner)`` as it lies — a batched
          ``np.matmul(u, slab)``, no stage;
        * any other window, and any window under controls (over the
          all-ones slice of its controls only), is staged
          window-axes-first by one strided copy per slab (into a stage
          buffer allocated once per call, for several slabs) and
          multiplied with one ``np.dot(u, stage)``.

        A monomial window (one frozen with a ``pattern``) makes no
        product: :func:`repro.sim.moves.apply` moves and scales its
        amplitudes instead.
        """
        _need_c(chunk)
        dim = win.dim
        u = np.asarray(u, dtype=chunk.dtype)
        self.counters["csel_hits"] += 1
        if win.path in moves.PATHS:
            self.counters["monomial_hits"] += 1
            moves.apply(chunk, u, win)
            return
        if win.perm is not None:
            u = u.reshape((2,) * (2 * win.k)).transpose(win.perm).reshape(dim, dim)
        step = win.step
        # A walk of several slabs reuses one product buffer (and, staged,
        # one stage): a fresh slab-sized array per slab costs page faults
        # whenever the allocator hands the freed one back to the system.
        # A one-slab walk takes a fresh product, which is cheaper for
        # small chunks.
        if win.path == "rows":
            rows = chunk.reshape(-1, dim)
            ut = u.T
            prod = np.empty((step, dim), dtype=chunk.dtype) if len(rows) > step else None
            for r in range(0, len(rows), step):
                slab = rows[r : r + step]
                out = None if prod is None else prod[: len(slab)]
                slab[...] = np.matmul(slab, ut, out=out)
            return
        if win.path == "run":
            v = chunk.reshape(-1, dim, win.inner)
            cols = win.cols
            prod = None
            if len(v) > step or win.inner > cols:
                prod = np.empty((min(step, len(v)), dim, cols), dtype=chunk.dtype)
            for r in range(0, len(v), step):
                for c in range(0, win.inner, cols):
                    slab = v[r : r + step, :, c : c + cols]
                    out = None if prod is None else prod[: len(slab)]
                    slab[...] = np.matmul(u, slab, out=out)
            return
        w = chunk.reshape(win.shape).transpose(win.axes)[win.sel]
        if win.n_outer is None:  # whole chunk rows fit in a slab: walk blocks of rows
            lead = (slice(None),) * win.n_win
            n_rows = chunk.size >> win.nl
            sels = [lead + (slice(r, r + step),) for r in range(0, n_rows, step)]
        else:  # walk the shot-branch rows and the outer axes
            sels = list(np.ndindex(w.shape[: win.n_outer]))
        if len(sels) == 1:
            slab = w[sels[0]]
            slab[...] = np.dot(u, slab.reshape(dim, -1)).reshape(slab.shape)
            return
        stage = prod = None
        for sel in sels:
            slab = w[sel]
            if prod is None or prod.size != slab.size:
                stage, prod = np.empty((2, dim, slab.size // dim), dtype=chunk.dtype)
            stage.reshape(slab.shape)[...] = slab
            np.dot(u, stage, out=prod)
            slab[...] = prod.reshape(slab.shape)

    def phase_fill(self, scalar, n_live: int, enc) -> np.ndarray | None:
        """Materialize a doubling phase table natively, or None.

        ``enc`` is the part list ``(level, kind, pos_a, pos_b, vals,
        nz)`` in fold order (see :func:`repro.sim.diag.chunk_phase`).
        None sends the caller to the planar numpy doubling path.
        """
        if not enc or not self.native(1 << n_live):
            return None
        n = len(enc)
        lvl = np.empty(n, dtype=np.int64)
        kind = np.empty(n, dtype=np.int64)
        pa = np.empty(n, dtype=np.int64)
        pb = np.empty(n, dtype=np.int64)
        nzm = np.empty(n, dtype=np.int64)
        vals = np.zeros(8 * n, dtype=np.float64)
        for j, (p, kd, a, b, v, nz) in enumerate(enc):
            lvl[j] = p
            kind[j] = kd
            pa[j] = a
            pb[j] = b
            mask = 0
            for i in nz:
                mask |= 1 << i
                c = complex(v[i])
                vals[8 * j + 2 * i] = c.real
                vals[8 * j + 2 * i + 1] = c.imag
            nzm[j] = mask
        out = np.empty(1 << n_live, dtype=np.complex128)
        s = complex(scalar)
        self._provider.phase(
            out.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals, s.real, s.imag
        )
        self.counters["jit_hits"] += 1
        return out
