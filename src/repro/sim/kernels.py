"""JIT-compiled chunk kernels with a bit-identical pure-numpy fallback.

This module is the native half of the compiled-schedule thread: PR 8
froze flush schedules into flat replay programs precisely so the hot
per-chunk inner loops could stop being one python-dispatched numpy
expression per step.  Three loop families are covered:

* the strided single-qubit / controlled kernel pass (the ``"sq"`` /
  ``"cc"`` run entries, frozen as ``sf/sd/cf/cd/ss/cs`` steps) — a
  whole frozen kernel fold is specialized into contiguous typed step
  arrays (``codes``/``arg0``/``arg1`` + a per-step 2x2 matrix table)
  that one compiled driver (:func:`_drive_py` and its native twins)
  walks per chunk in a single call;
* the ``csel``/``ct`` per-shard-bit sub-block matmul
  (:meth:`KernelDispatch.contract`) — one routine in every mode: a
  strided stage copy around one BLAS ``np.dot`` (already native code,
  and no reimplementation of zgemm could promise bit-identity);
* the doubling/DP diagonal phase-table materializer of
  :func:`repro.sim.diag.chunk_phase` (the multiply path; the wide-batch
  angle-accumulation path stays on numpy's vectorized cos/sin in every
  mode, because libm and numpy's SIMD transcendentals differ per host).

**The bit-identity contract.**  The acceptance bar is that
``kernels="jit"`` and ``kernels="numpy"`` produce *bit-identical*
amplitudes (enforced by tests/integration/test_differential_fuzz.py).
numpy's complex-multiply ufunc is free to use FMA-contracted SIMD
paths that gcc with ``-ffp-contract=off`` will not reproduce, so the
contract is defined in **planar arithmetic**: every kernel computes
separate real/imaginary parts through the fixed expression tree

    re = (ur*ar - ui*ai) + ...    im = (ur*ai + ui*ar) + ...

with one IEEE-754 multiply/add per node and no fused operations.  The
numpy fallbacks evaluate that tree with float array ops (each ufunc
call is one exactly-rounded IEEE op per element); the native kernels
evaluate it scalar-by-scalar with contraction disabled.  Equality is
then guaranteed by IEEE semantics on any host — and re-verified at
provider warm-up by :func:`_self_check`, which demotes a provider that
fails to reproduce the reference driver bit-for-bit.

The tree exists in two precisions: float64 for ``complex128`` chunks
and float32 for ``complex64`` chunks (the PR 10 mixed-precision tier).
The contract is *within* a dtype — a complex64 run is bit-identical
between jit and numpy arms, never to a complex128 run.  To keep the
float32 arms aligned, every 2x2 matrix / scalar factor is rounded to
the chunk's precision exactly **once**, at the dispatch boundary in
this module (and at the frozen-step build sites in the engines), so
both arms consume identical pre-rounded operands; the compiled float
loops run in SSE single precision (``FLT_EVAL_METHOD == 0``), one
rounding per node, matching numpy's float32 ufuncs.  Diagonal *phase
tables* (:mod:`repro.sim.diag`) stay complex128 in every mode: their
application is an in-place same-kind multiply whose rounding is
dtype-independent, so no float32 phase arm exists.

**Provider.**  One native provider: a small C module compiled once
through ``cffi`` + the system C compiler (the ``pip install -e .[jit]``
extra; the CI jit leg) and cached on disk; without it, pure numpy.
Selection is observable through ``backend.kernel_info()``.

Environment knobs:

* ``REPRO_QMPI_KERNELS`` — default mode (``auto``/``numpy``/``jit``)
  when a backend is built without an explicit ``kernels=``;
* ``REPRO_QMPI_DISABLE_JIT=1`` — no native provider is ever used (the
  CI fallback leg proves the pure-numpy path with this set);
* ``REPRO_QMPI_KERNEL_CACHE`` — cffi build cache directory.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import time

import numpy as np

__all__ = [
    "KernelDispatch",
    "JIT_MIN_AMPS_DEFAULT",
    "provider_name",
    "reset_provider_cache",
]

#: Break-even chunk size (amplitudes) below which ``kernels="auto"``
#: stays on the numpy fallback: under ~2^12 amplitudes the per-call
#: dispatch overhead (argument staging + the foreign call) eats the
#: single-pass advantage (calibrated by benchmarks/bench_kernels.py;
#: mirrored by ``CostModel.jit_min_amps``).
JIT_MIN_AMPS_DEFAULT = 1 << 12

_MODES = ("auto", "numpy", "jit")

# Typed step opcodes walked by the frozen-program driver.  arg0/arg1
# carry the step's integer operands; the matrix table row carries the
# live 2x2 (re-filled from the bound segments on every execution, so
# schedule-cache parameter rebinding flows through).
OP_SQ_FULL = 0  # arg0 = local bit            (strided 2x2 pass)
OP_SQ_DIAG = 1  # arg0 = local bit            (guarded diagonal scale)
OP_CC_FULL = 2  # arg0 = control mask, arg1 = target bit
OP_CC_DIAG = 3  # arg0 = control mask, arg1 = target bit
OP_SCALE = 4  # arg0 = diagonal index       (whole-chunk scale)
OP_MASK_SCALE = 5  # arg0 = control mask, arg1 = diagonal index


# ----------------------------------------------------------------------
# reference driver (pure python scalar loops)
# ----------------------------------------------------------------------
# This function is the executable specification: the C source below
# transliterates it, and the vectorized numpy fallbacks evaluate the
# same expression trees.  Unit tests call it directly (on tiny chunks)
# so every opcode's semantics are covered even where no native
# provider exists.
def _drive_py(af, codes, arg0, arg1, mats):
    n_amps = af.shape[0] >> 1
    for s in range(codes.shape[0]):
        code = codes[s]
        u00r = mats[s, 0]
        u00i = mats[s, 1]
        u01r = mats[s, 2]
        u01i = mats[s, 3]
        u10r = mats[s, 4]
        u10i = mats[s, 5]
        u11r = mats[s, 6]
        u11i = mats[s, 7]
        if code == 0:  # OP_SQ_FULL
            b = arg0[s]
            stride = 1 << b
            for i in range(n_amps >> 1):
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
        elif code == 1:  # OP_SQ_DIAG
            b = arg0[s]
            tbit = 1 << b
            g0 = (u00r != 1.0) or (u00i != 0.0)
            g1 = (u11r != 1.0) or (u11i != 0.0)
            if g0 or g1:
                for i in range(n_amps):
                    if i & tbit:
                        if g1:
                            r = af[2 * i]
                            m = af[2 * i + 1]
                            af[2 * i] = u11r * r - u11i * m
                            af[2 * i + 1] = u11r * m + u11i * r
                    elif g0:
                        r = af[2 * i]
                        m = af[2 * i + 1]
                        af[2 * i] = u00r * r - u00i * m
                        af[2 * i + 1] = u00r * m + u00i * r
        elif code == 2:  # OP_CC_FULL
            lmask = arg0[s]
            tbit = 1 << arg1[s]
            for i in range(n_amps):
                if (i & lmask) == lmask and (i & tbit) == 0:
                    lo = i << 1
                    hi = (i | tbit) << 1
                    ar = af[lo]
                    ai = af[lo + 1]
                    br = af[hi]
                    bi = af[hi + 1]
                    af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi)
                    af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br)
                    af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi)
                    af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br)
        elif code == 3:  # OP_CC_DIAG
            lmask = arg0[s]
            tbit = 1 << arg1[s]
            g0 = (u00r != 1.0) or (u00i != 0.0)
            g1 = (u11r != 1.0) or (u11i != 0.0)
            if g0 or g1:
                for i in range(n_amps):
                    if (i & lmask) == lmask:
                        if i & tbit:
                            if g1:
                                r = af[2 * i]
                                m = af[2 * i + 1]
                                af[2 * i] = u11r * r - u11i * m
                                af[2 * i + 1] = u11r * m + u11i * r
                        elif g0:
                            r = af[2 * i]
                            m = af[2 * i + 1]
                            af[2 * i] = u00r * r - u00i * m
                            af[2 * i + 1] = u00r * m + u00i * r
        elif code == 4:  # OP_SCALE
            if arg0[s]:
                fr = u11r
                fi = u11i
            else:
                fr = u00r
                fi = u00i
            if (fr != 1.0) or (fi != 0.0):
                for i in range(n_amps):
                    r = af[2 * i]
                    m = af[2 * i + 1]
                    af[2 * i] = fr * r - fi * m
                    af[2 * i + 1] = fr * m + fi * r
        else:  # OP_MASK_SCALE
            lmask = arg0[s]
            if arg1[s]:
                fr = u11r
                fi = u11i
            else:
                fr = u00r
                fi = u00i
            if (fr != 1.0) or (fi != 0.0):
                for i in range(n_amps):
                    if (i & lmask) == lmask:
                        r = af[2 * i]
                        m = af[2 * i + 1]
                        af[2 * i] = fr * r - fi * m
                        af[2 * i + 1] = fr * m + fi * r


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
# planar numpy kernels (the fallback arms; also used by the engines'
# interpreter and frozen-replay paths so every mode shares one tree)
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


def sq_diag_view(v, u) -> None:
    """Planar guarded diagonal pass on a ``(-1, 2, stride)`` chunk view."""
    if u[0, 0] != 1.0:
        imul(v[:, 0, :], complex(u[0, 0]))
    if u[1, 1] != 1.0:
        imul(v[:, 1, :], complex(u[1, 1]))


def cc_full_view(view, idx0, idx1, u) -> None:
    """Planar controlled 2x2 on the all-ones control slice pair."""
    u00 = complex(u[0, 0])
    u01 = complex(u[0, 1])
    u10 = complex(u[1, 0])
    u11 = complex(u[1, 1])
    a0 = view[idx0]
    a1 = view[idx1]
    a0r = a0.real.copy()
    a0i = a0.imag.copy()
    a1r = a1.real.copy()
    a1i = a1.imag.copy()
    a0.real = (u00.real * a0r - u00.imag * a0i) + (u01.real * a1r - u01.imag * a1i)
    a0.imag = (u00.real * a0i + u00.imag * a0r) + (u01.real * a1i + u01.imag * a1r)
    a1.real = (u10.real * a0r - u10.imag * a0i) + (u11.real * a1r - u11.imag * a1i)
    a1.imag = (u10.real * a0i + u10.imag * a0r) + (u11.real * a1i + u11.imag * a1r)


def cc_diag_view(view, idx0, idx1, u) -> None:
    """Planar guarded controlled diagonal on the control slice pair."""
    if u[0, 0] != 1.0:
        imul(view[idx0], complex(u[0, 0]))
    if u[1, 1] != 1.0:
        imul(view[idx1], complex(u[1, 1]))


# ----------------------------------------------------------------------
# native provider
# ----------------------------------------------------------------------
_C_SOURCE = r"""
/* Transliteration of kernels._drive_py / kernels._phase_py.  Compiled
 * with -ffp-contract=off: each multiply/add below must stay one
 * exactly-rounded IEEE-754 operation so results are bit-identical to
 * the planar numpy fallback on any host. */
void qk_drive(double *af, long long n_amps,
              const long long *codes, const long long *arg0,
              const long long *arg1, const double *mats,
              long long n_steps)
{
    for (long long s = 0; s < n_steps; s++) {
        long long code = codes[s];
        const double *u = mats + 8 * s;
        double u00r = u[0], u00i = u[1], u01r = u[2], u01i = u[3];
        double u10r = u[4], u10i = u[5], u11r = u[6], u11i = u[7];
        if (code == 0) {
            long long b = arg0[s];
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
        } else if (code == 1) {
            long long tbit = 1LL << arg0[s];
            int g0 = (u00r != 1.0) || (u00i != 0.0);
            int g1 = (u11r != 1.0) || (u11i != 0.0);
            if (g0 || g1) {
                for (long long i = 0; i < n_amps; i++) {
                    if (i & tbit) {
                        if (g1) {
                            double r = af[2 * i], m = af[2 * i + 1];
                            af[2 * i] = u11r * r - u11i * m;
                            af[2 * i + 1] = u11r * m + u11i * r;
                        }
                    } else if (g0) {
                        double r = af[2 * i], m = af[2 * i + 1];
                        af[2 * i] = u00r * r - u00i * m;
                        af[2 * i + 1] = u00r * m + u00i * r;
                    }
                }
            }
        } else if (code == 2) {
            long long lmask = arg0[s];
            long long tbit = 1LL << arg1[s];
            for (long long i = 0; i < n_amps; i++) {
                if ((i & lmask) == lmask && (i & tbit) == 0) {
                    long long lo = i << 1;
                    long long hi = (i | tbit) << 1;
                    double ar = af[lo], ai = af[lo + 1];
                    double br = af[hi], bi = af[hi + 1];
                    af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi);
                    af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br);
                    af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi);
                    af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br);
                }
            }
        } else if (code == 3) {
            long long lmask = arg0[s];
            long long tbit = 1LL << arg1[s];
            int g0 = (u00r != 1.0) || (u00i != 0.0);
            int g1 = (u11r != 1.0) || (u11i != 0.0);
            if (g0 || g1) {
                for (long long i = 0; i < n_amps; i++) {
                    if ((i & lmask) == lmask) {
                        if (i & tbit) {
                            if (g1) {
                                double r = af[2 * i], m = af[2 * i + 1];
                                af[2 * i] = u11r * r - u11i * m;
                                af[2 * i + 1] = u11r * m + u11i * r;
                            }
                        } else if (g0) {
                            double r = af[2 * i], m = af[2 * i + 1];
                            af[2 * i] = u00r * r - u00i * m;
                            af[2 * i + 1] = u00r * m + u00i * r;
                        }
                    }
                }
            }
        } else if (code == 4) {
            double fr = arg0[s] ? u11r : u00r;
            double fi = arg0[s] ? u11i : u00i;
            if ((fr != 1.0) || (fi != 0.0)) {
                for (long long i = 0; i < n_amps; i++) {
                    double r = af[2 * i], m = af[2 * i + 1];
                    af[2 * i] = fr * r - fi * m;
                    af[2 * i + 1] = fr * m + fi * r;
                }
            }
        } else {
            long long lmask = arg0[s];
            double fr = arg1[s] ? u11r : u00r;
            double fi = arg1[s] ? u11i : u00i;
            if ((fr != 1.0) || (fi != 0.0)) {
                for (long long i = 0; i < n_amps; i++) {
                    if ((i & lmask) == lmask) {
                        double r = af[2 * i], m = af[2 * i + 1];
                        af[2 * i] = fr * r - fi * m;
                        af[2 * i + 1] = fr * m + fi * r;
                    }
                }
            }
        }
    }
}

/* Single-precision twin of qk_drive for complex64 chunks: the same
 * expression tree, evaluated in SSE float (FLT_EVAL_METHOD == 0, no
 * promotion to double, contraction off) so each node is one exactly
 * rounded float32 operation, matching numpy's float32 ufuncs. */
void qk_drive_f(float *af, long long n_amps,
                const long long *codes, const long long *arg0,
                const long long *arg1, const float *mats,
                long long n_steps)
{
    for (long long s = 0; s < n_steps; s++) {
        long long code = codes[s];
        const float *u = mats + 8 * s;
        float u00r = u[0], u00i = u[1], u01r = u[2], u01i = u[3];
        float u10r = u[4], u10i = u[5], u11r = u[6], u11i = u[7];
        if (code == 0) {
            long long b = arg0[s];
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
        } else if (code == 1) {
            long long tbit = 1LL << arg0[s];
            int g0 = (u00r != 1.0f) || (u00i != 0.0f);
            int g1 = (u11r != 1.0f) || (u11i != 0.0f);
            if (g0 || g1) {
                for (long long i = 0; i < n_amps; i++) {
                    if (i & tbit) {
                        if (g1) {
                            float r = af[2 * i], m = af[2 * i + 1];
                            af[2 * i] = u11r * r - u11i * m;
                            af[2 * i + 1] = u11r * m + u11i * r;
                        }
                    } else if (g0) {
                        float r = af[2 * i], m = af[2 * i + 1];
                        af[2 * i] = u00r * r - u00i * m;
                        af[2 * i + 1] = u00r * m + u00i * r;
                    }
                }
            }
        } else if (code == 2) {
            long long lmask = arg0[s];
            long long tbit = 1LL << arg1[s];
            for (long long i = 0; i < n_amps; i++) {
                if ((i & lmask) == lmask && (i & tbit) == 0) {
                    long long lo = i << 1;
                    long long hi = (i | tbit) << 1;
                    float ar = af[lo], ai = af[lo + 1];
                    float br = af[hi], bi = af[hi + 1];
                    af[lo] = (u00r * ar - u00i * ai) + (u01r * br - u01i * bi);
                    af[lo + 1] = (u00r * ai + u00i * ar) + (u01r * bi + u01i * br);
                    af[hi] = (u10r * ar - u10i * ai) + (u11r * br - u11i * bi);
                    af[hi + 1] = (u10r * ai + u10i * ar) + (u11r * bi + u11i * br);
                }
            }
        } else if (code == 3) {
            long long lmask = arg0[s];
            long long tbit = 1LL << arg1[s];
            int g0 = (u00r != 1.0f) || (u00i != 0.0f);
            int g1 = (u11r != 1.0f) || (u11i != 0.0f);
            if (g0 || g1) {
                for (long long i = 0; i < n_amps; i++) {
                    if ((i & lmask) == lmask) {
                        if (i & tbit) {
                            if (g1) {
                                float r = af[2 * i], m = af[2 * i + 1];
                                af[2 * i] = u11r * r - u11i * m;
                                af[2 * i + 1] = u11r * m + u11i * r;
                            }
                        } else if (g0) {
                            float r = af[2 * i], m = af[2 * i + 1];
                            af[2 * i] = u00r * r - u00i * m;
                            af[2 * i + 1] = u00r * m + u00i * r;
                        }
                    }
                }
            }
        } else if (code == 4) {
            float fr = arg0[s] ? u11r : u00r;
            float fi = arg0[s] ? u11i : u00i;
            if ((fr != 1.0f) || (fi != 0.0f)) {
                for (long long i = 0; i < n_amps; i++) {
                    float r = af[2 * i], m = af[2 * i + 1];
                    af[2 * i] = fr * r - fi * m;
                    af[2 * i + 1] = fr * m + fi * r;
                }
            }
        } else {
            long long lmask = arg0[s];
            float fr = arg1[s] ? u11r : u00r;
            float fi = arg1[s] ? u11i : u00i;
            if ((fr != 1.0f) || (fi != 0.0f)) {
                for (long long i = 0; i < n_amps; i++) {
                    if ((i & lmask) == lmask) {
                        float r = af[2 * i], m = af[2 * i + 1];
                        af[2 * i] = fr * r - fi * m;
                        af[2 * i + 1] = fr * m + fi * r;
                    }
                }
            }
        }
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
void qk_drive(double *, long long, const long long *, const long long *,
              const long long *, const double *, long long);
void qk_drive_f(float *, long long, const long long *, const long long *,
                const long long *, const float *, long long);
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

    def drive(self, af, codes, arg0, arg1, mats):
        # af is the planar float view of the chunk; its dtype selects the
        # single- or double-precision compiled driver (mats matches it).
        if af.dtype == np.float32:
            self._lib.qk_drive_f(
                self._f(af), af.shape[0] >> 1,
                self._l(codes), self._l(arg0), self._l(arg1),
                self._f(mats), codes.shape[0],
            )
            return
        self._lib.qk_drive(
            self._d(af), af.shape[0] >> 1,
            self._l(codes), self._l(arg0), self._l(arg1),
            self._d(mats), codes.shape[0],
        )

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
    """Verify a native provider bit-for-bit against the reference driver.

    Runs every opcode and both phase-part kinds on random data and
    compares raw float64 bits.  A provider that cannot reproduce the
    planar tree exactly (an over-eager optimizer, an FMA-contracting
    toolchain) is demoted to the numpy fallback rather than trusted.
    """
    rng = np.random.default_rng(20260808)
    n = 64
    chunk = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = chunk.copy()
    codes = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    arg0 = np.array([2, 1, 0b1, 0b1, 1, 0b10], dtype=np.int64)
    arg1 = np.array([0, 0, 2, 3, 0, 1], dtype=np.int64)
    mats = rng.standard_normal((6, 8))
    _drive_py(ref.view(np.float64), codes, arg0, arg1, mats)
    provider.drive(chunk.view(np.float64), codes, arg0, arg1, mats)
    if not np.array_equal(
        chunk.view(np.float64), ref.view(np.float64), equal_nan=True
    ):
        return "driver output is not bit-identical to the reference"
    chunk4 = (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ).astype(np.complex64)
    ref4 = chunk4.copy()
    mats4 = mats.astype(np.float32)
    _drive_py(ref4.view(np.float32), codes, arg0, arg1, mats4)
    provider.drive(chunk4.view(np.float32), codes, arg0, arg1, mats4)
    if not np.array_equal(
        chunk4.view(np.float32), ref4.view(np.float32), equal_nan=True
    ):
        return "float32 driver output is not bit-identical to the reference"
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


# (name, provider, compile_time, error) memoized per environment so
# monkeypatched tests re-resolve; the cffi .so is cached on disk across
# processes anyway.
_PROVIDER_CACHE: dict[tuple, tuple] = {}


def _env_key() -> tuple:
    return (
        os.environ.get("REPRO_QMPI_DISABLE_JIT"),
        os.environ.get("REPRO_QMPI_KERNEL_CACHE"),
    )


def _resolve_provider() -> tuple:
    key = _env_key()
    hit = _PROVIDER_CACHE.get(key)
    if hit is not None:
        return hit
    disabled = (key[0] or "").lower() in ("1", "true", "yes", "on")
    name, provider, compile_time, error = None, None, 0.0, None
    if disabled:
        error = "disabled via REPRO_QMPI_DISABLE_JIT"
    else:
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
    """Forget resolved providers (tests flip env knobs and re-resolve)."""
    _PROVIDER_CACHE.clear()


def provider_name() -> str | None:
    """The native provider the current environment resolves to, if any."""
    return _resolve_provider()[0]


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class KernelDispatch:
    """Per-engine kernel selection, counters and native entry points.

    Modes: ``"numpy"`` never goes native; ``"jit"`` always dispatches
    native when a provider exists (and counts a numpy fallback when it
    doesn't); ``"auto"`` goes native only at or above the break-even
    size ``jit_min_amps``.  A backend built with ``kernels=None``
    (the default) reads ``REPRO_QMPI_KERNELS`` before settling on
    ``"auto"``, which is how the CI jit leg runs the whole tier-1
    suite natively without touching call sites.

    Every arm of every kernel — native or numpy — evaluates the same
    planar float64 expression tree (module docstring), so mode choice
    is observable in the counters and the wall clock, never in the
    amplitudes.
    """

    __slots__ = (
        "mode",
        "jit_min_amps",
        "counters",
        "_provider",
        "_resolved",
        "_error",
        "_stage",
        "_codes1",
        "_arg0_1",
        "_arg1_1",
        "_mats1",
        "_mats1_f4",
    )

    def __init__(self, kernels: str | None = None, jit_min_amps: int | None = None):
        if kernels is None:
            kernels = os.environ.get("REPRO_QMPI_KERNELS") or "auto"
        if kernels not in _MODES:
            raise ValueError(
                f'kernels must be "auto", "numpy" or "jit", got {kernels!r}'
            )
        self.mode = kernels
        self.jit_min_amps = (
            JIT_MIN_AMPS_DEFAULT if jit_min_amps is None else int(jit_min_amps)
        )
        self.counters = {
            "jit_hits": 0,
            "numpy_fallbacks": 0,
            "csel_hits": 0,
            "compile_time": 0.0,
        }
        self._provider = None
        self._resolved = kernels == "numpy"  # numpy mode never resolves
        self._error = None
        self._stage: np.ndarray | None = None  # contract()'s reused buffer
        self._codes1 = np.empty(1, dtype=np.int64)
        self._arg0_1 = np.empty(1, dtype=np.int64)
        self._arg1_1 = np.empty(1, dtype=np.int64)
        self._mats1 = np.empty((1, 8), dtype=np.float64)
        self._mats1_f4 = np.empty((1, 8), dtype=np.float32)

    # -- selection ------------------------------------------------------
    def _ensure(self):
        if not self._resolved:
            name, provider, compile_time, error = _resolve_provider()
            self._provider = provider
            self._error = error
            self.counters["compile_time"] = compile_time
            self._resolved = True
        return self._provider

    def warmup(self) -> None:
        """Resolve (load or build + self-check) the provider eagerly.

        Benchmarks call this before timing, so a cold cffi build never
        lands in the middle of a timed run.
        """
        if self.mode != "numpy":
            self._ensure()

    def native(self, n_amps: int) -> bool:
        """Would a kernel over ``n_amps`` amplitudes dispatch natively?"""
        if self.mode == "numpy":
            return False
        if self.mode == "auto" and n_amps < self.jit_min_amps:
            return False
        return self._ensure() is not None

    def info(self) -> dict:
        """Counters + provenance, mirroring ``cache_info()``."""
        provider = self._provider.name if self._provider is not None else None
        if not self._resolved and self.mode != "numpy":
            # Report what *would* resolve without forcing a compile.
            provider = provider_name()
        out = {"mode": self.mode, "provider": provider, "jit_min_amps": self.jit_min_amps}
        out.update(self.counters)
        out["provider_error"] = self._error
        return out

    # -- native entry points -------------------------------------------
    def _flat(self, chunk):
        """The planar float view matching the chunk's precision."""
        f = np.float32 if chunk.dtype == np.complex64 else np.float64
        return chunk.reshape(-1).view(f)

    def drive(self, chunk, codes, arg0, arg1, mats_f) -> None:
        """Walk one typed step block natively over ``chunk``.

        ``mats_f`` is the planar float view of the per-step 2x2 table;
        its precision must match the chunk's (the frozen-program build
        sites round the matrices to the engine dtype exactly once).
        """
        self._provider.drive(self._flat(chunk), codes, arg0, arg1, mats_f)
        self.counters["jit_hits"] += 1

    def _one(self, chunk, code, a0, a1, u00, u01, u10, u11) -> None:
        self._codes1[0] = code
        self._arg0_1[0] = a0
        self._arg1_1[0] = a1
        # The callers pre-round u/f to the chunk's precision, so filling
        # the float32 scratch from them is exact (no second rounding).
        m = self._mats1_f4 if chunk.dtype == np.complex64 else self._mats1
        m[0, 0] = u00.real
        m[0, 1] = u00.imag
        m[0, 2] = u01.real
        m[0, 3] = u01.imag
        m[0, 4] = u10.real
        m[0, 5] = u10.imag
        m[0, 6] = u11.real
        m[0, 7] = u11.imag
        self._provider.drive(
            self._flat(chunk), self._codes1, self._arg0_1, self._arg1_1, m
        )
        self.counters["jit_hits"] += 1

    # -- dispatched kernels --------------------------------------------
    def sq(self, chunk, u, b: int, diag: bool) -> None:
        """Local-axis single-qubit pass (the "sq"/"sf"/"sd" kernel)."""
        u = np.asarray(u, dtype=chunk.dtype)  # no-op for complex128
        if self.native(chunk.size):
            code = OP_SQ_DIAG if diag else OP_SQ_FULL
            self._one(chunk, code, b, 0, u[0, 0], u[0, 1], u[1, 0], u[1, 1])
            return
        self.counters["numpy_fallbacks"] += 1
        v = chunk.reshape(-1, 2, 1 << b)
        if diag:
            sq_diag_view(v, u)
        else:
            sq_full_view(v, u)

    def scale(self, chunk, f) -> None:
        """Whole-chunk scale (shard-axis diagonal / scalar csel entry)."""
        f = complex(f)
        if chunk.dtype == np.complex64:
            f = complex(np.complex64(f))  # round once; exact thereafter
        if f == 1.0:
            return
        if self.native(chunk.size):
            self._one(chunk, OP_SCALE, 0, 0, f, 0j, 0j, f)
            return
        self.counters["numpy_fallbacks"] += 1
        imul(chunk.reshape(-1), f)

    def cc(self, chunk, u, local_controls, t_bit: int, nl: int, diag: bool) -> None:
        """Locally-targeted controlled 2x2 (the "cc"/"cf"/"cd" kernel)."""
        u = np.asarray(u, dtype=chunk.dtype)  # no-op for complex128
        if self.native(chunk.size):
            lmask = 0
            for b in local_controls:
                lmask |= 1 << b
            code = OP_CC_DIAG if diag else OP_CC_FULL
            self._one(chunk, code, lmask, t_bit, u[0, 0], u[0, 1], u[1, 0], u[1, 1])
            return
        self.counters["numpy_fallbacks"] += 1
        view = chunk.reshape((-1,) + (2,) * nl)
        idx0 = [slice(None)] * (nl + 1)
        for b in local_controls:
            idx0[1 + nl - 1 - b] = 1
        idx1 = list(idx0)
        ax = 1 + nl - 1 - t_bit
        idx0[ax] = 0
        idx1[ax] = 1
        if diag:
            cc_diag_view(view, tuple(idx0), tuple(idx1), u)
        else:
            cc_full_view(view, tuple(idx0), tuple(idx1), u)

    def masked_scale(self, chunk, f, local_controls, nl: int) -> None:
        """Control-sliced scale (shard-axis-targeted "cc" diagonal)."""
        f = complex(f)
        if chunk.dtype == np.complex64:
            f = complex(np.complex64(f))  # round once; exact thereafter
        if f == 1.0:
            return
        if self.native(chunk.size):
            lmask = 0
            for b in local_controls:
                lmask |= 1 << b
            self._one(chunk, OP_MASK_SCALE, lmask, 0, f, 0j, 0j, f)
            return
        self.counters["numpy_fallbacks"] += 1
        view = chunk.reshape((-1,) + (2,) * nl)
        idx = [slice(None)] * (nl + 1)
        for b in local_controls:
            idx[1 + nl - 1 - b] = 1
        imul(view[tuple(idx)], f)

    def contract(self, chunk, u, bits, nl: int) -> None:
        """Contract a ``2^k x 2^k`` window unitary into ``chunk``, in place.

        ``bits`` are chunk-local bit positions, first entry = the
        matrix's most significant index bit (the
        :class:`~repro.sim.plan.ContractionPlan` convention); the chunk
        may carry leading shot-branch rows (flat size a multiple of
        ``2^nl``).  ``u``'s index bits are first permuted to descending
        bit order (a ``2^k x 2^k`` shuffle), so the amplitudes move in
        the longest contiguous runs the window allows.  A window on the
        chunk's ``k`` lowest bits is then a row-major ``(rest, 2^k)``
        matrix as it lies: ``flat @ u.T`` into the stage buffer and one
        contiguous copy back.  Any other window is staged
        window-axes-first with one strided ``np.copyto``, multiplied
        with one ``np.dot(u, stage, out=)`` and copied back through the
        same strided view, so memmap-backed chunks mutate in place.  The buffer is reused across calls (one allocation per
        chunk size and dtype); every mode runs this same BLAS call on
        the same operands.
        """
        k = len(bits)
        dim = 1 << k
        order = sorted(range(k), key=lambda i: -bits[i])
        u = np.asarray(u, dtype=chunk.dtype).reshape((2,) * (2 * k))
        u = u.transpose(order + [k + i for i in order]).reshape(dim, dim)
        n = chunk.size
        buf = self._stage
        if buf is None or buf.size != 2 * n or buf.dtype != chunk.dtype:
            buf = self._stage = np.empty(2 * n, dtype=chunk.dtype)
        self.counters["csel_hits"] += 1
        if bits[order[0]] == k - 1:
            rows = chunk.reshape(-1, dim)
            np.copyto(rows, np.dot(rows, u.T, out=buf[:n].reshape(-1, dim)))
            return
        axes = [nl - bits[i] for i in order]
        rest = [ax for ax in range(nl + 1) if ax not in axes]
        win = chunk.reshape((-1,) + (2,) * nl).transpose(axes + rest)
        stage = buf[:n].reshape(dim, -1)
        np.copyto(stage.reshape(win.shape), win)
        np.copyto(win, np.dot(u, stage, out=buf[n:].reshape(dim, -1)).reshape(win.shape))

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
