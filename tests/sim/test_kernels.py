"""White-box tests of the kernel layer (:mod:`repro.sim.kernels`).

Covers the two native kernels' references against their planar numpy
twins (bitwise, provider-free — this is the executable contract), the
numpy-only arms against ``tests/_dense_oracle.py``, the break-even
and provider resolution, counter accuracy, the provider self-check
demotion, and — when a native provider resolves in this environment —
bit-identity of the native strided pass and phase fill and of
whole-engine runs between the native and numpy arms
(``tests/_kernels.py``).
"""

import functools
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from repro.qmpi.backend import QuantumBackend, ShardedBackend, SharedBackend
from repro.qmpi.ops import Op
from repro.sim import ShardedStateVector, StateVector, coalesce_diagonals
from repro.sim import kernels as K
from repro.sim.kernels import (
    JIT_MIN_AMPS_DEFAULT,
    KernelDispatch,
    provider_name,
    reset_provider_cache,
)
from tests._dense_oracle import embed
from tests._kernels import dispatch

DTYPES = [np.complex128, np.complex64]
#: ``jit_min_amps`` values: native at every size, and never.
NATIVE, NUMPY = 0, float("inf")


@pytest.fixture
def fresh_providers():
    reset_provider_cache()
    yield
    reset_provider_cache()


def _dispatch(jit_min_amps):
    kd = KernelDispatch()
    kd.jit_min_amps = jit_min_amps
    return kd


def _rand_chunk(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _rand_u(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def _diag_u(rng):
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return np.diag(d)


def _bits_equal(a, b):
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def _sq_ref(chunk, b, u):
    """``_sq_py`` on a copy, with ``u`` rounded to the chunk's dtype once."""
    out = chunk.copy()
    K._sq_py(
        KernelDispatch._flat(out),
        b,
        KernelDispatch._flat(np.ascontiguousarray(u, dtype=chunk.dtype)),
    )
    return out


def _dense(chunk, u, bits, nl):
    """``u`` kron-embedded over the chunk's bits, row by shot-branch row."""
    return _apply_full(chunk, embed(u, [nl - 1 - b for b in bits], nl), nl)


def _apply_full(chunk, full, nl):
    """The register unitary ``full`` applied to each shot-branch row."""
    return (chunk.reshape(-1, 1 << nl).astype(np.complex128) @ full.T).reshape(-1)


def _controlled(u, n_controls):
    """``u`` on the target, conditioned on all (leading) controls = 1."""
    out = np.eye(2 << n_controls, dtype=complex)
    out[-2:, -2:] = u
    return out


# ----------------------------------------------------------------------
# references vs the planar numpy twins (no provider)
# ----------------------------------------------------------------------
class TestReferenceVsNumpyArms:
    """The strided pass and phase fill specs match their numpy twins."""

    NL = 6

    def test_sq_full_all_strides(self):
        rng = np.random.default_rng(1)
        for dtype in DTYPES:
            kd = _dispatch(NUMPY)
            for b in range(self.NL):
                chunk = _rand_chunk(rng, 1 << self.NL).astype(dtype)
                u = _rand_u(rng)
                ref = _sq_ref(chunk, b, u)
                got = chunk.copy()
                kd.sq(got, u, b, diag=False)
                assert _bits_equal(got, ref), f"{dtype.__name__} stride bit {b}"
            assert kd.counters["numpy_fallbacks"] == self.NL
            assert kd.counters["jit_hits"] == 0

    def test_branch_axis_rows_are_independent(self):
        """A leading shots axis flows through flat-index bit arithmetic."""
        rng = np.random.default_rng(8)
        kd = _dispatch(NUMPY)
        rows = [_rand_chunk(rng, 1 << self.NL) for _ in range(4)]
        u = _rand_u(rng)
        for b in range(self.NL):
            stacked = np.stack(rows)
            ref = _sq_ref(stacked, b, u)
            kd.sq(stacked, u, b, diag=False)
            assert _bits_equal(stacked, ref), f"stride bit {b}"
            for r, row in enumerate(rows):
                one = row.copy()
                kd.sq(one, u, b, diag=False)
                assert _bits_equal(stacked[r], one)

    def test_phase_py_matches_scalar_product(self):
        """The doubling fill equals a per-element left-to-right product.

        CPython's complex multiply is the same planar expression, so an
        element-wise product in part order is bit-identical by IEEE
        semantics — this pins the fold-order convention.
        """
        rng = np.random.default_rng(9)
        n_live = 4
        # parts: single at level 0, pair at level 2 (pa > pb), single at 3
        v0 = _rand_chunk(rng, 2)
        v1 = _rand_chunk(rng, 4)
        v2 = _rand_chunk(rng, 2)
        lvl = np.array([0, 2, 3], dtype=np.int64)
        kind = np.array([1, 2, 1], dtype=np.int64)
        pa = np.array([0, 2, 3], dtype=np.int64)
        pb = np.array([0, 0, 0], dtype=np.int64)
        nzm = np.array([0b11, 0b1011, 0b10], dtype=np.int64)
        vals = np.zeros(3 * 8)
        for pi, v in enumerate((v0, v1, v2)):
            for i, c in enumerate(v):
                vals[8 * pi + 2 * i] = c.real
                vals[8 * pi + 2 * i + 1] = c.imag
        scalar = complex(0.7, -0.1)
        out = np.empty(1 << n_live, dtype=np.complex128)
        K._phase_py(
            out.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals,
            scalar.real, scalar.imag,
        )
        for e in range(1 << n_live):
            acc = scalar
            for pi in range(3):
                if kind[pi] == 2:
                    i = (((e >> pa[pi]) & 1) << 1) | ((e >> pb[pi]) & 1)
                else:
                    i = (e >> pa[pi]) & 1
                if nzm[pi] & (1 << i):
                    acc = acc * complex(vals[8 * pi + 2 * i], vals[8 * pi + 2 * i + 1])
            assert out[e] == acc
            assert np.signbit(out[e].real) == np.signbit(acc.real)


# ----------------------------------------------------------------------
# numpy-only arms vs the dense oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
class TestNumpyArmsVsDenseOracle:
    """Arms without a native twin, checked against ``tests/_dense_oracle.py``."""

    NL = 6

    @staticmethod
    def _close(got, want, dtype):
        tol = 1e-12 if dtype == np.complex128 else 1e-5
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    def _chunk(self, rng, dtype, rows=1):
        return _rand_chunk(rng, rows << self.NL).astype(dtype)

    def test_sq_diag(self, dtype):
        rng = np.random.default_rng(2)
        kd = _dispatch(NUMPY)
        for u in (_diag_u(rng), np.diag([1.0, 1j]), np.diag([-1j, 1.0])):
            chunk = self._chunk(rng, dtype, rows=2)
            got = chunk.copy()
            kd.sq(got, u, 2, diag=True)
            self._close(got, _dense(chunk, u.astype(dtype), [2], self.NL), dtype)

    def test_cc_full_and_diag(self, dtype):
        rng = np.random.default_rng(3)
        kd = _dispatch(NUMPY)
        controls, t_bit = (1, 3), 0
        for u, diag in ((_rand_u(rng), False), (_diag_u(rng), True)):
            chunk = self._chunk(rng, dtype, rows=2)
            got = chunk.copy()
            kd.cc(got, u, controls, t_bit, self.NL, diag=diag)
            want = _dense(chunk, _controlled(u.astype(dtype), 2), [*controls, t_bit], self.NL)
            self._close(got, want, dtype)

    def test_scale_both_diagonal_entries(self, dtype):
        rng = np.random.default_rng(4)
        kd = _dispatch(NUMPY)
        chunk = self._chunk(rng, dtype)
        f = complex(0.3, -0.8)
        u = np.diag([f, 2 * f])
        for sel in (0, 1):
            got = chunk.copy()
            kd.scale(got, u[sel, sel])
            self._close(got, chunk.astype(np.complex128) * dtype(u[sel, sel]), dtype)

    def test_scale_identity_is_free(self, dtype):
        kd = _dispatch(NUMPY)
        chunk = _rand_chunk(np.random.default_rng(5), 8).astype(dtype)
        before = chunk.copy()
        kd.scale(chunk, 1.0 + 0j)
        assert _bits_equal(chunk, before)

    def test_masked_scale(self, dtype):
        rng = np.random.default_rng(6)
        kd = _dispatch(NUMPY)
        controls = (0, 2)
        chunk = self._chunk(rng, dtype, rows=2)
        f = complex(-0.2, 0.9)
        got = chunk.copy()
        kd.masked_scale(got, f, controls, self.NL)
        want = _dense(chunk, np.diag([1, 1, 1, dtype(f)]), list(controls), self.NL)
        self._close(got, want, dtype)

    def test_multi_step_sequence(self, dtype):
        """Native-able and numpy-only kernels compose like their matrices."""
        rng = np.random.default_rng(7)
        kd = _dispatch(NUMPY)
        chunk = self._chunk(rng, dtype)
        u1, u2, ud = _rand_u(rng), _rand_u(rng), _diag_u(rng)
        got = chunk.copy()
        kd.sq(got, u1, 1, diag=False)
        kd.cc(got, u2, (2,), 1, self.NL, diag=False)
        kd.sq(got, ud, 3, diag=True)
        want = _dense(chunk, u1.astype(dtype), [1], self.NL)
        want = _dense(want, _controlled(u2.astype(dtype), 1), [2, 1], self.NL)
        want = _dense(want, ud.astype(dtype), [3], self.NL)
        self._close(got, want, dtype)


@pytest.mark.parametrize("shape", [(2, 4), (3, 2, 4), (2, 16), (5,), (3, 1, 32)])
def test_slabs_cover_every_element_once_in_tile_blocks(monkeypatch, shape):
    monkeypatch.setattr(K, "TILE_AMPS", 8)
    blocks = K.slabs(shape)
    assert (blocks == [()]) == (int(np.prod(shape)) <= 8)
    seen = np.zeros(shape, dtype=int)
    for sel in blocks:
        assert seen[sel].ndim == len(shape) and seen[sel].size <= 8
        seen[sel] += 1
    assert (seen == 1).all()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("tile", [4, 16])
def test_numpy_sq_and_cc_walk_slabs_bitwise(monkeypatch, dtype, tile):
    # The slab walk changes no element's arithmetic: a walk in many slabs
    # equals the one-slab pass bit for bit, and the strided pass still
    # equals the scalar reference loop.
    rng = np.random.default_rng(21)
    nl = 6
    chunk = _rand_chunk(rng, 3 << nl).astype(dtype)
    us = [_rand_u(rng) for _ in range(3)]

    def run():
        kd = _dispatch(NUMPY)
        out = chunk.copy()
        for b in range(nl):
            kd.sq(out, us[0], b, diag=False)
        kd.cc(out, us[1], (1, 4), 2, nl, diag=False)
        kd.cc(out, us[2], (5,), 0, nl, diag=False)
        return out

    whole = run()
    monkeypatch.setattr(K, "TILE_AMPS", tile)
    assert len(K.slabs((3, 2, 1 << (nl - 1)))) > 1
    assert _bits_equal(run(), whole)
    for b in range(nl):
        got = chunk.copy()
        _dispatch(NUMPY).sq(got, us[0], b, diag=False)
        assert _bits_equal(got, _sq_ref(chunk, b, us[0])), b


# ----------------------------------------------------------------------
# break-even and provider resolution, counters
# ----------------------------------------------------------------------
class TestDispatchResolution:
    def test_default_breakeven(self):
        assert KernelDispatch().jit_min_amps == JIT_MIN_AMPS_DEFAULT

    def test_infinite_breakeven_never_native(self):
        kd = _dispatch(NUMPY)
        assert not kd.native(1 << 30)
        assert not kd._resolved
        assert kd.info()["provider"] is None

    def test_below_breakeven_stays_lazy(self):
        kd = KernelDispatch()
        kd.jit_min_amps = 64
        assert not kd.native(32)
        assert not kd._resolved  # the provider was never compiled/loaded
        assert kd.info()["jit_min_amps"] == 64

    def test_info_never_resolves_a_provider(self, monkeypatch, fresh_providers, tmp_path):
        cache = tmp_path / "qk-cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_QMPI_KERNEL_CACHE", str(cache))
        info = KernelDispatch().info()
        assert info["provider"] is None
        assert os.listdir(cache) == []  # no build, no lock file
        assert K._PROVIDER_CACHE == {}

    def test_failed_provider_falls_back_to_numpy(self, monkeypatch, fresh_providers):
        def broken():
            raise OSError("no C compiler")

        monkeypatch.setattr(K, "_load_cffi", broken)
        assert provider_name() is None
        kd = _dispatch(NATIVE)
        assert not kd.native(1 << 20)
        chunk = _rand_chunk(np.random.default_rng(0), 64)
        kd.sq(chunk, np.eye(2, dtype=complex), 0, diag=False)
        info = kd.info()
        assert info["provider"] is None
        assert info["jit_hits"] == 0
        assert info["numpy_fallbacks"] == 1
        assert info["provider_error"] == "cffi: OSError: no C compiler"

    def test_provider_resolution_is_memoized(self, fresh_providers):
        assert K._resolve_provider() is K._resolve_provider()

    def test_contract_is_one_routine_at_every_breakeven(self):
        for jit_min_amps in (NUMPY, JIT_MIN_AMPS_DEFAULT, NATIVE):
            kd = _dispatch(jit_min_amps)
            chunk = _rand_chunk(np.random.default_rng(1), 64)
            assert kd.contract(chunk, np.eye(4, dtype=complex), K.Window((0, 1), 6)) is None
            assert kd.counters["csel_hits"] == 1  # counts contractions
            assert kd.counters["numpy_fallbacks"] == kd.counters["jit_hits"] == 0

    def test_phase_fill_declines_below_breakeven(self):
        kd = _dispatch(NUMPY)
        assert kd.phase_fill(1.0, 3, [(0, 1, 0, 0, np.ones(2), (0,))]) is None

    def test_numpy_only_arms_count_neither(self):
        """Only kernels with a native twin count a hit or a fallback."""
        rng = np.random.default_rng(14)
        for jit_min_amps in (NUMPY, NATIVE):
            kd = _dispatch(jit_min_amps)
            chunk = _rand_chunk(rng, 64)
            kd.sq(chunk, _diag_u(rng), 1, diag=True)
            kd.cc(chunk, _rand_u(rng), (0,), 2, 6, diag=False)
            kd.cc(chunk, _diag_u(rng), (0,), 2, 6, diag=True)
            kd.scale(chunk, 0.5j)
            kd.masked_scale(chunk, -1.0, (3,), 6)
            assert kd.counters["jit_hits"] == kd.counters["numpy_fallbacks"] == 0

    def test_planar_view_refuses_what_a_pointer_would_misread(self):
        chunk = _rand_chunk(np.random.default_rng(15), 16)
        assert np.shares_memory(KernelDispatch._flat(chunk), chunk)
        for bad in (chunk[::2], chunk.real.copy()):
            with pytest.raises(ValueError, match="C-contiguous"):
                KernelDispatch._flat(bad)

    @pytest.mark.parametrize("jit_min_amps", [NATIVE, NUMPY], ids=["native", "numpy"])
    def test_in_place_kernels_refuse_a_non_contiguous_chunk(self, jit_min_amps):
        # A transposed chunk's flat reshape is a copy: writing into it
        # would leave the caller's array unchanged without a word.
        base = _rand_chunk(np.random.default_rng(16), 16).reshape((2,) * 4)
        chunk = base.transpose(3, 1, 0, 2)
        kd = _dispatch(jit_min_amps)
        calls = (
            lambda: kd.contract(chunk, _rand_window(np.random.default_rng(0), 2), K.Window((1, 0), 4)),
            lambda: kd.cc(chunk, _rand_u(np.random.default_rng(0)), (1,), 0, 4, diag=False),
            lambda: kd.sq(chunk, _rand_u(np.random.default_rng(0)), 2, diag=False),
            lambda: kd.masked_scale(chunk, -1.0, (3,), 4),
        )
        for call in calls:
            with pytest.raises(ValueError, match="C-contiguous"):
                call()
        assert _bits_equal(chunk, base.transpose(3, 1, 0, 2))

    def test_self_check_demotes_a_lying_provider(self):
        class Lying:
            name = "lying"

            def sq(self, af, b, u):
                af[0] += 1.0  # not the reference arithmetic

            def phase(self, *a):
                pass

        assert "not bit-identical" in K._self_check(Lying())


def test_cffi_provider_builds_into_cache_and_self_checks(
    monkeypatch, fresh_providers, tmp_path
):
    pytest.importorskip("cffi")
    monkeypatch.setenv("REPRO_QMPI_KERNEL_CACHE", str(tmp_path / "qk-cache"))
    name, provider, compile_time, error = K._resolve_provider()
    if name is None:
        pytest.skip(f"no working C toolchain: {error}")
    assert name == "cffi" and error is None
    assert compile_time > 0.0
    assert K._self_check(provider) is None
    # a second resolve in a fresh cache-map reuses the on-disk build
    reset_provider_cache()
    name2, provider2, _, _ = K._resolve_provider()
    assert name2 == "cffi" and provider2 is not provider


# ----------------------------------------------------------------------
# the one window contraction
# ----------------------------------------------------------------------
CONTRACT_NL = 6


def _contract_windows():
    """Windows of 1-4 qubits: the lowest bits in every operand order,
    straddling, and at the top local bits."""
    nl = CONTRACT_NL
    out = []
    for k in range(1, 5):
        out += list(itertools.permutations(range(k)))
        out.append(tuple(range(nl - 1, nl - 1 - k, -1)))
        out.append(tuple(range(nl - k, nl)))
    out += [(3,), (0, 4), (4, 1), (5, 0, 2), (1, 3, 5), (4, 0, 5, 2), (2, 3, 4, 1)]
    return out


def _rand_window(rng, k):
    return rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal(
        (1 << k, 1 << k)
    )


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("rows", [1, 3], ids=["flat", "shot-rows"])
def test_contract_matches_dense_oracle(dtype, rows):
    nl = CONTRACT_NL
    rng = np.random.default_rng(11)
    kd, ref = _dispatch(NATIVE), _dispatch(NUMPY)
    windows = _contract_windows()
    for bits in windows:
        u = _rand_window(rng, len(bits))
        base = _rand_chunk(rng, rows << nl).astype(dtype)
        a, b = base.copy(), base.copy()
        win = K.Window(bits, nl)
        kd.contract(a, u, win)
        ref.contract(b, u, win)
        assert _bits_equal(a, b), bits
        want = _dense(base, u.astype(dtype), bits, nl)
        tol = 1e-12 if dtype == np.complex128 else 2e-5
        np.testing.assert_allclose(a, want, rtol=0, atol=tol * np.abs(want).max())
    assert kd.counters["csel_hits"] == ref.counters["csel_hits"] == len(windows)


@pytest.mark.parametrize("jit_min_amps", [NATIVE, NUMPY], ids=["native", "numpy"])
def test_contract_writes_through_a_view_of_a_larger_buffer(jit_min_amps):
    # The sharded engine hands ``contract`` live chunks it does not copy
    # back, so the result must land in the caller's memory, not a rebind.
    nl = CONTRACT_NL
    rng = np.random.default_rng(12)
    kd = _dispatch(jit_min_amps)
    for bits in ((1, 0), (2, 0, 1), (4, 2), (5, 4, 3)):
        base = _rand_chunk(rng, 3 << nl)
        backing = base.copy()
        chunk = backing[1 << nl : 2 << nl]
        u = _rand_window(rng, len(bits))
        kd.contract(chunk, u, K.Window(bits, nl))
        assert np.shares_memory(chunk, backing)
        np.testing.assert_allclose(
            backing[1 << nl : 2 << nl],
            _dense(base[1 << nl : 2 << nl], u, bits, nl),
            rtol=0,
            atol=1e-12,
        )
        # the neighbouring chunks are left alone
        assert _bits_equal(backing[: 1 << nl], base[: 1 << nl])
        assert _bits_equal(backing[2 << nl :], base[2 << nl :])


#: Register and windows of the multi-slab test, one window per path of
#: the slab walk with ``_RUN_MIN_BIT`` moved down to 4: the lowest bits
#: in and out of operand order, adjacent runs at/above the cut-over,
#: middle runs below it, and scattered windows.
SLAB_NL = 7
SLAB_WINDOWS = (
    (1, 0), (0, 2, 1), (3, 2, 1, 0),
    (5, 4), (4, 5), (6, 5, 4),
    (3, 2), (4, 3, 2),
    (6, 0), (5, 1, 3), (6, 2, 4, 0),
)


@functools.cache
def _slab_case(i, dtype):
    """``SLAB_WINDOWS[i]``'s unitary and its oracle embedding (built once:
    the kron embedding is the slow part of the test)."""
    bits = SLAB_WINDOWS[i]
    u = _rand_window(np.random.default_rng((16, i)), len(bits))
    return u, embed(u.astype(dtype), [SLAB_NL - 1 - b for b in bits], SLAB_NL)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [1, 3], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("tile", [4, 16, 1 << SLAB_NL], ids=lambda t: f"tile{t}")
def test_contract_multi_slab_walk_matches_dense_oracle(monkeypatch, dtype, rows, tile):
    # A tile below the chunk sends every path through many slabs: 4 and
    # 16 walk the outer axes (4 is smaller than a 3- or 4-qubit window,
    # whose slab is then the window alone); 2^SLAB_NL walks the
    # shot-branch rows one per slab.
    monkeypatch.setattr(K, "TILE_AMPS", tile)
    monkeypatch.setattr(K, "_RUN_MIN_BIT", 4)
    nl = SLAB_NL
    rng = np.random.default_rng(17)
    kd, ref = _dispatch(NATIVE), _dispatch(NUMPY)
    for i, bits in enumerate(SLAB_WINDOWS):
        u, full = _slab_case(i, dtype)
        base = _rand_chunk(rng, rows << nl).astype(dtype)
        # the chunk is the middle third of a larger buffer
        backing = np.concatenate([base[::-1], base, base[::-1]])
        chunk = backing[len(base) : 2 * len(base)]
        b = base.copy()
        win = K.Window(bits, nl)
        kd.contract(chunk, u, win)
        ref.contract(b, u, win)
        assert _bits_equal(chunk, b), bits
        assert _bits_equal(backing[: len(base)], base[::-1])
        assert _bits_equal(backing[2 * len(base) :], base[::-1])
        want = _apply_full(base, full, nl)
        tol = 1e-12 if dtype == np.complex128 else 2e-5
        np.testing.assert_allclose(chunk, want, rtol=0, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("nl", [16, 18])
def test_contract_transient_is_slab_sized_and_leaves_no_residue(nl):
    rng = np.random.default_rng(13)
    chunk = _rand_chunk(rng, 1 << nl)
    windows = [(3, 2, 1, 0), (9, 8, 7, 6), (15, 14, 13, 12), (13, 12)]
    windows += [(b, (b + 5) % nl) for b in range(nl)]
    windows += [(b, (b + 3) % nl, (b + 7) % nl) for b in range(nl)]
    assert len(set(windows)) == 4 + 2 * nl
    us = [_rand_window(rng, len(bits)) / (1 << len(bits)) for bits in windows]
    # Layouts are frozen before the calls, as the engines freeze them.
    wins = [K.Window(bits, nl) for bits in windows]
    kd = _dispatch(NUMPY)
    # A slab-sized stage and product, plus small change: the same bound
    # at every chunk size (at nl = 18 it is under half the chunk).
    bound = 3 * K.TILE_AMPS * chunk.itemsize
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        held = []
        for bits, win, u in zip(windows, wins, us):
            tracemalloc.reset_peak()
            kd.contract(chunk, u, win)
            after, peak = tracemalloc.get_traced_memory()
            assert peak - before <= bound, bits
            held.append(after - before)
    finally:
        tracemalloc.stop()
    # Nothing buffer-sized stays behind a call, and nothing per distinct
    # window (Python's small-object free lists hold a few KiB).
    assert held[0] < K.TILE_AMPS * chunk.itemsize // 8
    assert held[-1] - held[0] <= 8192
    assert not any(
        isinstance(getattr(kd, name, None), np.ndarray) for name in KernelDispatch.__slots__
    )


def test_contract_walks_blocks_of_short_rows():
    # Many shot rows of a small register (whole rows fit in a slab):
    # the walk takes blocks of rows, never the whole chunk at once.
    nl, rows = 8, 512
    rng = np.random.default_rng(18)
    chunk = _rand_chunk(rng, rows << nl)
    kd = _dispatch(NUMPY)
    for bits, controls in (((5, 2), ()), ((6,), (1, 3))):
        win = K.Window(bits, nl, controls)
        u = _rand_window(rng, len(bits)) / (1 << len(bits))
        want = chunk.copy()
        for r in range(rows):  # one row at a time is one slab each
            kd.contract(want[r << nl : (r + 1) << nl], u, win)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            kd.contract(chunk, u, win)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * K.TILE_AMPS * chunk.itemsize < chunk.nbytes
        assert _bits_equal(chunk, want), (bits, controls)


# ----------------------------------------------------------------------
# native-vs-numpy bit-identity (needs any provider in this environment)
# ----------------------------------------------------------------------
def _jit_or_skip():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    return _dispatch(NATIVE)


class TestNativeBitIdentity:
    NL = 7

    def _pair(self):
        return _jit_or_skip(), _dispatch(NUMPY)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sq_pass_both_dtypes_and_shot_rows(self, dtype):
        jit, ref = self._pair()
        rng = np.random.default_rng(10)
        for rows in (1, 3):
            for b in range(self.NL):
                base = _rand_chunk(rng, rows << self.NL).astype(dtype)
                u = _rand_u(rng)
                a, c = base.copy(), base.copy()
                jit.sq(a, u, b, diag=False)
                ref.sq(c, u, b, diag=False)
                assert _bits_equal(a, c)
                assert _bits_equal(a, _sq_ref(base, b, u))
        assert jit.counters["jit_hits"] == 2 * self.NL
        assert jit.counters["numpy_fallbacks"] == 0
        assert ref.counters["numpy_fallbacks"] == 2 * self.NL

    def test_phase_fill_matches_reference(self):
        jit = _jit_or_skip()
        rng = np.random.default_rng(12)
        n_live = 5
        enc = [
            (0, 1, 0, 0, _rand_chunk(rng, 2), (0, 1)),
            (2, 2, 2, 1, _rand_chunk(rng, 4), (0, 2, 3)),
            (4, 1, 4, 0, _rand_chunk(rng, 2), (1,)),
        ]
        scalar = complex(0.3, 0.4)
        got = jit.phase_fill(scalar, n_live, enc)
        assert got is not None
        lvl = np.array([p for p, *_ in enc], dtype=np.int64)
        kind = np.array([e[1] for e in enc], dtype=np.int64)
        pa = np.array([e[2] for e in enc], dtype=np.int64)
        pb = np.array([e[3] for e in enc], dtype=np.int64)
        nzm = np.array(
            [sum(1 << i for i in e[5]) for e in enc], dtype=np.int64
        )
        vals = np.zeros(8 * len(enc))
        for j, e in enumerate(enc):
            for i in e[5]:
                vals[8 * j + 2 * i] = e[4][i].real
                vals[8 * j + 2 * i + 1] = e[4][i].imag
        ref = np.empty(1 << n_live, dtype=np.complex128)
        K._phase_py(
            ref.view(np.float64), n_live, lvl, kind, pa, pb, nzm, vals,
            scalar.real, scalar.imag,
        )
        assert _bits_equal(got, ref)

    def test_breakeven_gates_native(self):
        jit = _jit_or_skip()
        assert jit.native(2)  # break-even 0: native whenever a provider exists
        auto = KernelDispatch()
        auto.jit_min_amps = 1 << 10
        assert not auto.native(1 << 9)
        assert auto.native(1 << 10)

    def test_compile_time_reported_once_resolved(self):
        jit = _jit_or_skip()
        assert jit.native(0)  # resolves the provider
        info = jit.info()
        assert info["provider"] == "cffi"
        assert info["compile_time"] >= 0.0
        assert info["provider_error"] is None


# ----------------------------------------------------------------------
# whole-engine bit-identity and plumbing
# ----------------------------------------------------------------------
def _engine_ops():
    return [
        Op("h", (0,)),
        Op("rx", (2,), (0.45,)),
        Op("ry", (3,), (0.8,)),
        Op("rz", (1,), (0.3,)),
        Op("cphase", (1, 2), (0.9,)),
        Op("z", (3,)),
        Op("cphase", (0, 3), (0.5,)),
        Op("cnot", (2, 3)),
        Op("t", (0,)),
        Op("crz", (0, 1), (0.7,)),
    ]


def test_sharded_engine_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    with dispatch("native"):
        a = ShardedStateVector(6, seed=0, n_shards=4)
    with dispatch("numpy"):
        b = ShardedStateVector(6, seed=0, n_shards=4)
    ops = coalesce_diagonals(_engine_ops())
    a.apply_ops(ops)
    b.apply_ops(ops)
    assert _bits_equal(a.statevector(), b.statevector())
    assert a._kernels.counters["jit_hits"] > 0
    assert b._kernels.counters["jit_hits"] == 0


def test_shared_engine_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    with dispatch("native"):
        a = StateVector(6, seed=0)
    with dispatch("numpy"):
        b = StateVector(6, seed=0)
    ops = coalesce_diagonals(_engine_ops())
    a.apply_ops(ops)
    b.apply_ops(ops)
    assert _bits_equal(a.statevector(), b.statevector())


@pytest.mark.parametrize("cls", [StateVector, ShardedStateVector])
def test_engine_copy_gets_fresh_counters(cls):
    with dispatch("numpy"):
        sv = cls(4, seed=0)
    sv.apply_ops(coalesce_diagonals(_engine_ops()))
    c = sv.copy()
    assert c._kernels is not sv._kernels
    assert c._kernels.jit_min_amps == sv._kernels.jit_min_amps == NUMPY
    assert c._kernels.counters["numpy_fallbacks"] == 0
    if cls is ShardedStateVector:  # only it runs h as a strided pass
        assert sv._kernels.counters["numpy_fallbacks"] > 0


def test_numpy_arm_end_to_end_on_both_backends():
    """Under the numpy arm no backend goes native or resolves a provider."""
    for cls in (SharedBackend, ShardedBackend):
        with dispatch("numpy"):
            be = cls(seed=0)
        q = be.alloc(0, 6)
        for i in range(6):
            be.h(0, q[i])
        info = be.kernel_info()
        assert info["jit_hits"] == 0 and info["provider"] is None, info
        # Only the sharded engine runs h as a strided pass; the shared
        # engine's h is a BLAS contraction at every size.
        if cls is ShardedBackend:
            assert info["numpy_fallbacks"] > 0, info


def test_backend_kernel_info_keys():
    info = SharedBackend(seed=0).kernel_info()
    assert {"provider", "jit_min_amps", "jit_hits", "numpy_fallbacks", "compile_time"} <= set(
        info
    )
    assert "mode" not in info


def test_backend_kernel_info_none_without_dispatch():
    class Legacy:
        pass

    assert QuantumBackend(Legacy()).kernel_info() is None


def test_frozen_replay_jit_vs_numpy_bitwise():
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")

    def run(arm):
        with dispatch(arm):
            b = ShardedBackend(seed=0, n_shards=4, cache="on")
        q = b.alloc(0, 6)
        for theta in (0.3, 0.9):  # same structure, rebound payload
            ops = [Op("h", (q[i],)) for i in range(6)]
            ops += [Op("crz", (q[i], q[i + 1]), (theta,)) for i in range(5)]
            ops += [Op("rz", (q[0],), (2 * theta,)), Op("cnot", (q[1], q[4]))]
            b.apply_flush(0, ops)
        psi = b._sv.statevector()
        return psi, b.kernel_info(), b.cache_info()

    psi_j, info_j, cache_j = run("native")
    psi_n, info_n, _ = run("numpy")
    assert _bits_equal(psi_j, psi_n)
    assert cache_j["hits"] >= 1  # the second flush replayed a frozen program
    assert info_j["jit_hits"] > 0 and info_j["numpy_fallbacks"] == 0
    assert info_n["jit_hits"] == 0 and info_n["numpy_fallbacks"] > 0


def test_default_dispatch_goes_native_on_large_chunks():
    """Local ``h`` gates on 2^14-amplitude chunks reach the native pass."""
    if provider_name() is None:
        pytest.skip("no native kernel provider in this environment")
    sv = ShardedStateVector(16, seed=0, n_shards=4)
    sv.layout_key(sv.qubit_ids)  # merge the pending qubits
    assert sv.chunk_size == 1 << 14
    sv.apply_ops([Op("h", (q,)) for q in sv.qubit_ids[-4:]])
    info = sv._kernels.info()
    assert info["jit_hits"] == 4 * sv.num_chunks
    assert info["numpy_fallbacks"] == 0
