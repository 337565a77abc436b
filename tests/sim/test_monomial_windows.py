"""Monomial windows: slice moves and scales instead of BLAS products.

A window whose matrix holds one nonzero per column (every gate in
``MONOMIAL``, and plans fused from them) is frozen with its
:func:`repro.sim.schedule.monomial_pattern`, and
``KernelDispatch.contract`` then moves and scales amplitudes with no
product.  These tests pin that route against ``tests/_dense_oracle.py``
on both engines, with and without controls and shot-branch rows, over
one slab and over many (``TILE_AMPS`` patched to 64), in both dtypes:
bitwise for the pure permutations, to rounding for the phases.  With
``np.dot`` and ``np.matmul`` patched to raise inside
``repro.sim.kernels`` and ``repro.sim.moves``, the monomial steps run,
while an ``h`` or ``rx`` window still reaches BLAS.  The sharded
engine's locally targeted controlled ``x`` ("cc" entries, which never
freeze as windows) is pinned the same way: a swap of the slab pair,
with ``kernels.mix_pair`` patched to raise.
"""

import contextlib

import numpy as np
import pytest

from repro.sim import ShardedStateVector, StateVector, kernels, moves, plan_contractions
from repro.sim.cache import ScheduleCache
from repro.sim.gates import GATESET, UNITARY
from repro.sim.ops import Op, controlled_unitary
from repro.sim.plan import ContractionPlan
from repro.sim.schedule import lower_flush, monomial_pattern
from tests import _dense_oracle as oracle

#: The registry gates whose matrices are monomial.
MONOMIAL = {"x", "y", "z", "s", "sdg", "t", "tdg", "rz", "phase", "swap", "cnot", "cz",
            "crz", "cphase", "rzz", "toffoli"}
N = 12
#: Qubit 0 is the shard axis on two shards and the shot-fork ancilla:
#: every tested gate acts on qubits 1..N-1, so the sharded engine runs
#: them chunk-locally.
ANC = 0
PREP = (
    [("ry", (q,), (0.3 + 0.21 * q,)) for q in range(N)]
    + [("cnot", (q, (q + 1) % N), ()) for q in range(N)]
    + [("rx", (q,), (1.1 - 0.17 * q,)) for q in range(N)]
)
X = np.array([[0, 1], [1, 0]], dtype=complex)
#: A permutation with phases over two qubits, as an explicit unitary.
PHASED = np.array([[0, 0, 1j, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, np.exp(0.4j), 0, 0]])
GATES = [
    ("x", (3,), ()), ("y", (11,), ()), ("z", (1,), ()), ("s", (9,), ()), ("sdg", (2,), ()),
    ("t", (10,), ()), ("tdg", (5,), ()), ("rz", (8,), (0.37,)), ("phase", (1,), (1.1,)),
    ("swap", (1, 9), ()), ("swap", (11, 2), ()), ("swap", (7, 6), ()), ("swap", (10, 11), ()),
    ("cnot", (4, 1), ()), ("cnot", (2, 11), ()), ("cnot", (11, 10), ()),
    ("cz", (6, 3), ()), ("crz", (1, 10), (0.8,)), ("cphase", (11, 5), (-0.6,)),
    ("rzz", (2, 7), (0.45,)), ("rzz", (10, 11), (-1.2,)), ("rzz", (1, 8), (0.2,)),
    ("toffoli", (11, 1, 4), ()), ("toffoli", (3, 4, 10), ()),
]
#: Windows whose every factor is exactly 1: these must move bit for bit.
PERMUTATIONS = {"x", "swap", "cnot", "toffoli", "xx"}
ATOL = {"complex128": 1e-12, "complex64": 2e-6}


def _ops():
    """``(op, oracle matrix, oracle qubits, name)`` for every tested step."""
    out = [(Op(name, qs, ps), oracle.GATES[name](*ps), qs, name) for name, qs, ps in GATES]
    # Several targets under a control: the sharded engine runs the full
    # controlled matrix as a "ct" window, the shared one the target
    # matrix on the control's all-ones slice.
    xx = np.kron(X, X)
    op = controlled_unitary(xx, (9,), (2, 5))
    out.append((op, oracle._controlled(xx), op.qubits, "xx"))
    out.append((Op(UNITARY, (8, 3), u=PHASED), PHASED, (8, 3), "phased"))
    return out


def _engine(kind, dtype, rows):
    """A prepared ``N``-qubit engine, forked into two branches when ``rows``."""
    if kind == "shared":
        sv = StateVector(N, seed=1, dtype=dtype)
    else:
        sv = ShardedStateVector(N, seed=1, n_shards=2, dtype=dtype)
    if rows:
        sv.begin_shots(16)
    if kind == "shared":
        sv.layout_key(range(N))  # axes in id order, so rows read in oracle order
    sv.apply_ops([Op(*g) for g in PREP])
    if rows:
        sv.measure(ANC)
        assert sv.n_branches == 2
    return sv


def _rows(sv):
    """The engine's state as ``(branches, 2^N)`` rows in oracle order."""
    if isinstance(sv, StateVector):
        return sv._psi.reshape(sv.n_branches, -1).copy()
    return np.concatenate(
        [sv.chunk(c).reshape(sv.n_branches, -1) for c in range(sv.num_chunks)], axis=1
    )


class _NoBlas:
    """``numpy`` for :mod:`repro.sim.kernels`, with its BLAS products refused."""

    def __getattr__(self, name):
        if name in ("dot", "matmul"):
            raise AssertionError(f"np.{name} called")
        return getattr(np, name)


@contextlib.contextmanager
def _no_blas():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "np", _NoBlas())
        mp.setattr(moves, "np", _NoBlas())
        yield


def _check(got, want, dtype, exact, what):
    if exact:
        np.testing.assert_array_equal(got, want.astype(dtype), err_msg=what)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=ATOL[dtype], err_msg=what)


def test_the_registry_monomials_are_the_listed_gates():
    assert {name for name, gd in GATESET.items() if monomial_pattern(
        Op(name, tuple(range(gd.n_qubits)), (0.3,) * gd.n_params))} >= MONOMIAL
    for name in ("h", "rx", "ry"):
        assert monomial_pattern(Op(name, (0,), (0.3,) * GATESET[name].n_params)) is None
    assert monomial_pattern(Op("swap", (0, 1))) == (0, 2, 1, 3)
    # Controls are the most significant bits of the full matrix only.
    assert monomial_pattern(Op("cnot", (0, 1)), full=False) == (1, 0)
    assert monomial_pattern(Op("cnot", (0, 1))) == (0, 1, 3, 2)
    assert monomial_pattern(Op(UNITARY, (0, 1), u=PHASED)) == (1, 3, 0, 2)
    assert monomial_pattern(Op(UNITARY, (0,), u=np.full((2, 2), 0.5**0.5))) is None


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("rows", [0, 2], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("tile", [None, 64], ids=["one-slab", "tile64"])
@pytest.mark.parametrize("kind", ["shared", "sharded"])
def test_monomial_steps_match_the_oracle_without_blas(monkeypatch, kind, tile, rows, dtype):
    if tile is not None:
        monkeypatch.setattr(kernels, "TILE_AMPS", tile)  # read at freeze and per call
    sv = _engine(kind, dtype, rows)
    kd = sv._kernels
    hits = kd.counters["monomial_hits"]
    for op, u, qs, name in _ops():
        pre = _rows(sv).astype(complex)
        with _no_blas():
            sv.apply_ops([op])
        want = np.stack([oracle.apply(row, u, qs, N) for row in pre])
        _check(_rows(sv), want, dtype, name in PERMUTATIONS, f"{kind} {name}{qs}")
    n_windows = kd.counters["monomial_hits"] - hits
    if kind == "shared":
        assert n_windows == len(_ops())  # every step is one contract call
    else:
        assert n_windows >= 2 * 7  # swaps, rzz, xx, phased: "ct" on both chunks


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("kind", ["shared", "sharded"])
@pytest.mark.parametrize("tile", [None, 64], ids=["one-slab", "tile64"])
@pytest.mark.parametrize("layer", ["x_layer", "cnot_ladder", "swap_network", "phased"])
def test_fused_monomial_plans_run_as_moves(monkeypatch, layer, tile, kind, dtype):
    if tile is not None:
        monkeypatch.setattr(kernels, "TILE_AMPS", tile)
    gates = {
        "x_layer": [("x", (q,), ()) for q in (2, 5, 9, 11)],
        "cnot_ladder": [("cnot", (q, q + 1), ()) for q in (7, 8, 9)] + [("cnot", (10, 7), ())],
        "swap_network": [("swap", (a, b), ()) for a, b in
                         ((1, 2), (2, 3), (3, 4), (1, 2), (2, 3), (1, 2))],
        "phased": [("x", (4,), ()), ("crz", (4, 6), (0.7,)), ("swap", (6, 10), ()),
                   ("cphase", (10, 4), (-0.3,)), ("rz", (6,), (1.3,))],
    }[layer]
    ops = [Op(*g) for g in gates]
    lowered = plan_contractions(ops, max_window=4)
    plans = [rec for rec in lowered if isinstance(rec, ContractionPlan)]
    assert plans and all(monomial_pattern(p) is not None for p in plans)
    sv = _engine(kind, dtype, 0)
    pre = _rows(sv)[0].astype(complex)
    hits = sv._kernels.counters["monomial_hits"]
    with _no_blas():
        sv.apply_ops(lowered)
    assert sv._kernels.counters["monomial_hits"] > hits
    want = pre
    for name, qs, ps in gates:
        want = oracle.apply(want, oracle.GATES[name](*ps), qs, N)
    _check(_rows(sv)[0], want, dtype, layer != "phased", layer)


@pytest.mark.parametrize("gate", [("h", (4,), ()), ("rx", (9,), (0.3,))])
def test_dense_windows_still_reach_blas(gate):
    sv = _engine("shared", "complex128", 0)
    with _no_blas(), pytest.raises(AssertionError, match="np.(dot|matmul) called"):
        sv.apply_ops([Op(*gate)])
    sharded = _engine("sharded", "complex128", 0)
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    with _no_blas(), pytest.raises(AssertionError, match="np.(dot|matmul) called"):
        sharded.apply_ops([Op(UNITARY, (3, 7), u=u)])


@pytest.mark.parametrize("fused", [False, True], ids=["lone", "plan"])
def test_a_crz_rebind_replays_through_the_moves(fused):
    # A cached schedule's frozen window keeps its pattern; every replay
    # rebinds the crz angle and reads the fresh phases.
    n = 16

    def flush(theta):
        if not fused:
            return [Op("crz", (3, 12), (theta,))]
        return [Op("cnot", (2, 5)), Op("crz", (5, 9), (theta,)), Op("swap", (2, 9)),
                Op("x", (5,))]

    lowered = lower_flush(flush(0.1), n)
    assert [type(r).__name__ for r in lowered] == ["ContractionPlan" if fused else "Op"]
    assert monomial_pattern(lowered[0], full=False) is not None
    sv = StateVector(n, seed=0, dtype="complex128")
    sv.layout_key(range(n))
    sv.apply_ops([Op("ry", (q,), (0.1 + 0.05 * q,)) for q in range(n)])
    cache = ScheduleCache()
    want = sv._psi.reshape(-1).copy()
    for theta in (0.4, -1.3, 2.2):
        ops = flush(theta)
        with _no_blas():
            assert cache.execute(sv, ops, num_qubits=n)
        for op in ops:
            want = oracle.apply(want, oracle.GATES[op.gate](*op.params), op.qubits, n)
        np.testing.assert_allclose(sv._psi.reshape(-1), want, rtol=0, atol=1e-12)
    assert cache.info()["hits"] == 2 and cache.info()["misses"] == 1
    assert sv._kernels.counters["monomial_hits"] == 3


@pytest.mark.parametrize("bits,controls,pattern,path", [
    ((10, 3), (), (0, 2, 1, 3), "moves"),  # a high bit: whole-slice moves
    ((1, 0), (), (0, 2, 1, 3), "moves"),  # no free run below: long slices
    ((5, 1), (), (0, 2, 1, 3), "gather"),  # 2-amplitude runs: row gather
    ((6, 2), (), (0, 1, 2, 3), "gather"),  # a diagonal on the low bits
    ((1,), (5,), (1, 0), "gather"),
    ((3,), (8,), (1, 0), "moves"),
])
def test_the_walk_is_chosen_at_freeze(bits, controls, pattern, path):
    assert kernels.Window(bits, 12, controls, pattern).path == path
    assert kernels.Window(bits, 12, controls).path in ("rows", "run", "staged")


#: Locally targeted controlled 2x2s the sharded engine runs as "cc"
#: entries (qubit 0 is its shard axis, so ``(0, ...)`` is shard-controlled).
#: The anti-diagonal ones swap the slab pair instead of mixing it.
CY = np.array([[0, -1j], [1j, 0]])
CC_GATES = [
    ("cnot", (4, 1)), ("cnot", (2, 11)), ("cnot", (11, 10)), ("cnot", (0, 7)),
    ("toffoli", (11, 1, 4)), ("toffoli", (0, 4, 10)), ("cy", (3, 9)), ("cy", (0, 2)),
]


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("rows", [0, 2], ids=["flat", "shot-rows"])
@pytest.mark.parametrize("tile", [None, 4], ids=["one-slab", "tile4"])
def test_sharded_antidiagonal_cc_swaps_the_pair(monkeypatch, tile, rows, dtype):
    if tile is not None:
        monkeypatch.setattr(kernels, "TILE_AMPS", tile)
    sv = _engine("sharded", dtype, rows)

    def refuse(*args):
        raise AssertionError("mix_pair called on an anti-diagonal cc")

    monkeypatch.setattr(kernels, "mix_pair", refuse)
    seen = []
    cc = kernels.KernelDispatch.cc
    monkeypatch.setattr(
        kernels.KernelDispatch, "cc", lambda kd, *a: seen.append(a) or cc(kd, *a)
    )
    for name, qs in CC_GATES:
        pre = _rows(sv).astype(complex)
        if name == "cy":
            op, u = controlled_unitary(CY, qs[:1], qs[1:]), oracle._controlled(CY)
        else:
            op, u = Op(name, qs), oracle.GATES[name]()
        sv.apply_ops([op])
        want = np.stack([oracle.apply(row, u, qs, N) for row in pre])
        _check(_rows(sv), want, dtype, name != "cy", f"{name}{qs}")
    # every gate reached "cc": on both chunks, or on the one its shard control keeps
    assert len(seen) == 2 * 5 + 3

