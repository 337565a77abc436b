"""Differential fuzzing of the schedule cache and the kernel dispatch.

Seeded random circuits (parameterized rz/ry/rx/crz/cphase/rzz + Clifford
h/x/s/cnot/cz/swap + the ``cnot . rz . cnot`` sandwich the stream folds
into ``rzz`` + end-of-circuit measurement) run twice — backend
``cache="on"`` vs ``cache="off"`` — with identical seeds, and every
run must agree **bit-identically**: the same measured bits and
``np.array_equal`` final amplitudes (no tolerance).  Configurations
cycle deterministically over shared/sharded × four modes × 1/2/4
ranks, so the quick-mode corpus covers the full 24-combination matrix
several times over.  A mode is a lowering (``tests/_lowering.py``):
``"auto"`` (the default, which never plans at fuzz sizes),
``"planned"`` (the contraction planner forced on), ``"nodiag"`` (no
diagonal batching, no planning) and ``"off"`` (per-gate dispatch).

A second sweep runs the corpus with native kernels at every size vs
numpy kernels only (``tests/_kernels.py``) on top of the same
configuration cycle (including cache on/off, so the native strided
passes of frozen replay are fuzzed too) under the identical
bit-equality bar — the acceptance contract of
:mod:`repro.sim.kernels`.  When no native provider resolves in the
environment (no cffi or no C toolchain) the sweep skips with a notice
rather than silently passing.

Each circuit applies the same gate *shape* three times with fresh
random angles, flushing between passes: on the cache-on side the
second and third passes replay the compiled schedule with rebound
parameters, which is exactly the path the cache must prove safe.

A third sweep adds the **dtype axis**: the same differential bars
(cache on/off, native vs numpy, per-shot bits) cycled over
``dtype="complex128"`` / ``"complex64"``.  Bit-identity is asserted
*within* a dtype — the mixed-precision contract of
:mod:`repro.sim.kernels` — never across dtypes.

A fourth sweep checks the pipeline against something that is *not*
the pipeline: ``tests/_dense_oracle.py`` (literal gate matrices,
kron-embedded, applied gate by gate; imports nothing from ``repro``).
Every differential bar above compares two configurations that share
``gates.py``, ``lower_flush``, ``compile_segments`` and the frozen
executors; the oracle arm is what would catch a bug in those.

Environment knobs (used by CI):

* ``QMPI_FUZZ_SEED`` — base corpus seed (fixed default for PRs; CI
  rotates it daily on push builds).
* ``QMPI_FUZZ_CIRCUITS`` — corpus size (default 200).

Failures are shrinking-friendly: the assertion message carries the
base seed, circuit index, full configuration, and the op-list repr —
enough to replay one circuit in isolation.
"""

import itertools
import os

import numpy as np
import pytest

from repro.qmpi import ContractionPlan, qmpi_run
from repro.sim.kernels import provider_name
from tests import _dense_oracle
from tests._kernels import dispatch
from tests._lowering import fusion_of, lowering

BASE_SEED = int(os.environ.get("QMPI_FUZZ_SEED", "20260808"))
N_CIRCUITS = int(os.environ.get("QMPI_FUZZ_CIRCUITS", "200"))
N_SHOT_CIRCUITS = max(4, N_CIRCUITS // 20)
N_KERNEL_CIRCUITS = max(8, N_CIRCUITS // 2)
N_DTYPE_CIRCUITS = max(8, N_CIRCUITS // 4)
N_ORACLE_CIRCUITS = max(8, N_CIRCUITS // 4)

ZZ_SANDWICH = "cnot.rz.cnot"

# (gate, arity, n_params) — parameterized rotations + Cliffords.
GATE_POOL = (
    ("h", 1, 0),
    ("x", 1, 0),
    ("s", 1, 0),
    ("t", 1, 0),
    ("rz", 1, 1),
    ("ry", 1, 1),
    ("rx", 1, 1),
    ("cnot", 2, 0),
    ("cz", 2, 0),
    ("swap", 2, 0),
    ("crz", 2, 1),
    ("cphase", 2, 1),
    ("rzz", 2, 1),
    # Expands to cnot(c, t) . rz(t) . cnot(c, t): the idiom the stream's
    # peephole folds into one rzz (in every mode but "off").
    (ZZ_SANDWICH, 2, 1),
)

BACKENDS = ("shared", "sharded")
#: Four values keep the oracle arm's 37-stride over 96 configs full-period.
MODES = ("auto", "planned", "nodiag", "off")
RANKS = (1, 2, 4)
DTYPES = ("complex128", "complex64")
PASSES = 3  # same shape, fresh angles — passes 2..3 replay warm
#: Oracle bar per register dtype: float64 rounding over <= 60 gates vs
#: the float32 short-circuit bar of ``tests/_precision.py``.
ORACLE_ATOL = {"complex128": 1e-10, "complex64": 1e-5}


def _gen_circuit(rng):
    """One random circuit: (n_qubits, ops, measured) with symbolic angles.

    ``ops`` entries are ``(gate, qubit_indices, n_params)``; concrete
    angles are drawn per pass so the same shape replays with a fresh
    payload.
    """
    n_qubits = int(rng.integers(2, 6))
    n_ops = int(rng.integers(6, 19))
    ops = []
    while len(ops) < n_ops:
        gate, arity, n_params = GATE_POOL[int(rng.integers(len(GATE_POOL)))]
        qs = tuple(
            int(q) for q in rng.choice(n_qubits, size=arity, replace=False)
        )
        if gate == ZZ_SANDWICH:
            ops += [("cnot", qs, 0), ("rz", qs[1:], 1), ("cnot", qs, 0)]
        else:
            ops.append((gate, qs, n_params))
    n_meas = int(rng.integers(0, n_qubits + 1))
    measured = sorted(
        int(q) for q in rng.choice(n_qubits, size=n_meas, replace=False)
    )
    return n_qubits, tuple(ops), tuple(measured)


def _angles(rng, ops):
    """One concrete angle vector per parametric site, in op order."""
    return tuple(
        tuple(float(a) for a in rng.uniform(-np.pi, np.pi, size=n_params))
        for _, _, n_params in ops
    )


def _prog(qc, n_qubits, ops, measured, passes):
    """Rank 0 drives the whole circuit; other ranks idle (deterministic)."""
    if qc.rank != 0:
        return None
    q = qc.alloc_qmem(n_qubits)
    for angles in passes:
        for (gate, qs, _), theta in zip(ops, angles):
            getattr(qc, gate)(*(q[i] for i in qs), *theta)
        qc.flush_ops()  # pass boundary: passes 2..n replay the cached shape
    return [qc.measure(q[i]) for i in measured]


def _run(
    circ, passes, backend, mode, n_ranks, cache,
    shots=None, arm="auto", dtype=None,
):
    n_qubits, ops, measured = circ
    kw = {} if dtype is None else {"dtype": dtype}
    with lowering(mode), dispatch(arm):
        w = qmpi_run(
            n_ranks,
            _prog,
            args=(n_qubits, ops, measured, passes),
            seed=7,
            backend=backend,
            fusion=fusion_of(mode),
            shots=shots,
            cache=cache,
            **kw,
        )
    bits = w.results[0]
    if shots is not None:
        return [np.asarray(b).tolist() for b in bits], None, w
    order = sorted(w.backend.qubit_ids())
    return bits, w.backend.statevector(order), w


def _describe(
    i, circ, passes, backend, mode, n_ranks,
    shots=None, cache=None, dtype=None,
):
    n_qubits, ops, measured = circ
    return (
        f"fuzz circuit {i} (QMPI_FUZZ_SEED={BASE_SEED}): "
        f"backend={backend} mode={mode} n_ranks={n_ranks} "
        f"shots={shots} cache={cache} dtype={dtype} "
        f"n_qubits={n_qubits} measured={measured}\n"
        f"ops={ops!r}\n"
        f"passes={passes!r}"
    )


def _corpus(n, tag):
    for i in range(n):
        rng = np.random.default_rng((BASE_SEED, tag, i))
        circ = _gen_circuit(rng)
        passes = tuple(_angles(rng, circ[1]) for _ in range(PASSES))
        yield i, circ, passes


def test_fuzz_cache_on_off_bit_identical():
    """≥200 random circuits: cache replay is bit-identical to no cache.

    The ``planned`` configs must reach the contraction planner: at fuzz
    sizes (2-5 qubits) the default lowering never does.
    """
    checked = 0
    plans = 0
    for i, circ, passes in _corpus(N_CIRCUITS, 0):
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        label = _describe(i, circ, passes, backend, mode, n_ranks)
        bits_on, sv_on, w_on = _run(circ, passes, backend, mode, n_ranks, "on")
        bits_off, sv_off, _ = _run(circ, passes, backend, mode, n_ranks, "off")
        assert bits_on == bits_off, f"measured bits diverged\n{label}"
        assert np.array_equal(sv_on, sv_off), f"amplitudes diverged\n{label}"
        info = w_on.backend.cache_info()
        if mode != "off":
            # The buffered modes must actually exercise the cache.
            assert info is not None and info["misses"] + info["bypasses"] > 0, (
                f"cache never engaged\n{label}"
            )
        if mode == "planned":
            plans += sum(
                isinstance(rec, ContractionPlan)
                for entry in w_on.backend.schedule_cache._entries.values()
                for rec, _ in entry.lowered
            )
        checked += 1
    assert checked >= min(N_CIRCUITS, 200) or checked == N_CIRCUITS
    assert plans > 0, "no planned fuzz config emitted a ContractionPlan"


def test_fuzz_shots_mode_per_shot_bits_identical():
    """Shot-batched subset: per-shot bits and counts are identical."""
    for i, circ, passes in _corpus(N_SHOT_CIRCUITS, 1):
        if not circ[2]:  # need at least one measured qubit
            circ = (circ[0], circ[1], (0,))
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        label = _describe(i, circ, passes, backend, mode, n_ranks, shots=8)
        bits_on, _, w_on = _run(circ, passes, backend, mode, n_ranks, "on", shots=8)
        bits_off, _, w_off = _run(circ, passes, backend, mode, n_ranks, "off", shots=8)
        assert bits_on == bits_off, f"per-shot bits diverged\n{label}"
        assert w_on.counts == w_off.counts, f"shot counts diverged\n{label}"


def test_fuzz_warm_replay_actually_hits():
    """A fusion-proof sweep shape records real warm hits (not bypasses).

    Random circuits may peephole-fuse into value-dependent ``UNITARY``
    records (correctly uncacheable across angle changes), so warm-hit
    accounting is asserted on a shape built to survive fusion:
    rotation layers separated by entangler layers.
    """
    n_qubits = 4
    ops = []
    for layer in range(3):
        ops.extend(("ry", (q,), 1) for q in range(n_qubits))
        ops.extend(("cnot", (q, q + 1), 0) for q in range(n_qubits - 1))
        ops.extend(("crz", (q, q + 1), 1) for q in range(0, n_qubits - 1, 2))
    circ = (n_qubits, tuple(ops), (0, 1))
    rng = np.random.default_rng((BASE_SEED, 2))
    passes = tuple(_angles(rng, circ[1]) for _ in range(PASSES))
    for backend in BACKENDS:
        bits_on, sv_on, w_on = _run(circ, passes, backend, "auto", 2, "on")
        bits_off, sv_off, _ = _run(circ, passes, backend, "auto", 2, "off")
        assert bits_on == bits_off and np.array_equal(sv_on, sv_off)
        info = w_on.backend.cache_info()
        assert info["hits"] >= PASSES - 1, info
        assert info["bypasses"] == 0, info


def _require_provider():
    name = provider_name()
    if name is None:
        pytest.skip(
            "native kernel sweep skipped: no native kernel provider resolves "
            "in this environment (install the [jit] extra for cffi and a "
            "C toolchain)"
        )
    return name


def _assert_all_native(w, label):
    info = w.backend.kernel_info()
    assert info["jit_min_amps"] == 0 and info["numpy_fallbacks"] == 0, (
        f"native run fell back to numpy\n{label}\n{info}"
    )


def test_fuzz_kernels_jit_vs_numpy_bit_identical():
    """Native-vs-numpy kernels over the cache/mode/rank matrix, bitwise.

    The native arm has a break-even of 0, so even these small fuzz
    circuits exercise the compiled strided pass and phase fill; cycling
    ``cache`` alongside fuzzes warm frozen replay as well as cold
    freeze-and-run.
    """
    _require_provider()
    caches = ("on", "off")
    for i, circ, passes in _corpus(N_KERNEL_CIRCUITS, 3):
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        cache = caches[i % len(caches)]
        label = "native vs numpy kernels\n" + _describe(
            i, circ, passes, backend, mode, n_ranks, cache=cache
        )
        bits_j, sv_j, w_j = _run(
            circ, passes, backend, mode, n_ranks, cache, arm="native"
        )
        bits_n, sv_n, _ = _run(
            circ, passes, backend, mode, n_ranks, cache, arm="numpy"
        )
        assert bits_j == bits_n, f"measured bits diverged\n{label}"
        assert np.array_equal(sv_j, sv_n), f"amplitudes diverged\n{label}"
        _assert_all_native(w_j, label)


def test_fuzz_kernels_shots_per_shot_bits_identical():
    """Shot-batched kernels sweep: per-shot bits and counts identical."""
    _require_provider()
    for i, circ, passes in _corpus(N_SHOT_CIRCUITS, 4):
        if not circ[2]:  # need at least one measured qubit
            circ = (circ[0], circ[1], (0,))
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        label = "native vs numpy kernels\n" + _describe(
            i, circ, passes, backend, mode, n_ranks, shots=8
        )
        bits_j, _, w_j = _run(
            circ, passes, backend, mode, n_ranks, "on", shots=8, arm="native"
        )
        bits_n, _, w_n = _run(
            circ, passes, backend, mode, n_ranks, "on", shots=8, arm="numpy"
        )
        assert bits_j == bits_n, f"per-shot bits diverged\n{label}"
        assert w_j.counts == w_n.counts, f"shot counts diverged\n{label}"


def test_fuzz_dtype_axis_cache_bit_identical():
    """Dtype sweep: cache replay stays bit-identical within each dtype.

    Cycles ``dtype`` alongside the backend/mode/rank matrix; the
    cache-on vs cache-off comparison is within one dtype, so the bar
    stays exact bit-equality even for complex64.
    """
    for i, circ, passes in _corpus(N_DTYPE_CIRCUITS, 5):
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        dtype = DTYPES[i % len(DTYPES)]
        label = _describe(i, circ, passes, backend, mode, n_ranks, dtype=dtype)
        bits_on, sv_on, w_on = _run(
            circ, passes, backend, mode, n_ranks, "on", dtype=dtype
        )
        bits_off, sv_off, _ = _run(
            circ, passes, backend, mode, n_ranks, "off", dtype=dtype
        )
        assert bits_on == bits_off, f"measured bits diverged\n{label}"
        assert np.array_equal(sv_on, sv_off), f"amplitudes diverged\n{label}"
        assert sv_on.dtype == np.dtype(dtype), f"wrong state dtype\n{label}"


def test_fuzz_dtype_kernels_jit_vs_numpy_bit_identical():
    """Dtype sweep: native vs numpy stays bit-identical within each dtype."""
    _require_provider()
    caches = ("on", "off")
    for i, circ, passes in _corpus(N_DTYPE_CIRCUITS, 6):
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        cache = caches[i % len(caches)]
        dtype = DTYPES[i % len(DTYPES)]
        label = "native vs numpy kernels\n" + _describe(
            i, circ, passes, backend, mode, n_ranks, cache=cache, dtype=dtype
        )
        bits_j, sv_j, w_j = _run(
            circ, passes, backend, mode, n_ranks, cache,
            arm="native", dtype=dtype,
        )
        bits_n, sv_n, _ = _run(
            circ, passes, backend, mode, n_ranks, cache,
            arm="numpy", dtype=dtype,
        )
        assert bits_j == bits_n, f"measured bits diverged\n{label}"
        assert np.array_equal(sv_j, sv_n), f"amplitudes diverged\n{label}"
        _assert_all_native(w_j, label)


def test_fuzz_dtype_shots_per_shot_bits_identical():
    """Shot-batched dtype sweep: per-shot bits identical within a dtype."""
    for i, circ, passes in _corpus(N_SHOT_CIRCUITS, 7):
        if not circ[2]:  # need at least one measured qubit
            circ = (circ[0], circ[1], (0,))
        backend = BACKENDS[i % len(BACKENDS)]
        mode = MODES[i % len(MODES)]
        n_ranks = RANKS[i % len(RANKS)]
        dtype = DTYPES[i % len(DTYPES)]
        label = _describe(
            i, circ, passes, backend, mode, n_ranks, shots=8, dtype=dtype
        )
        bits_on, _, w_on = _run(
            circ, passes, backend, mode, n_ranks, "on", shots=8, dtype=dtype
        )
        bits_off, _, w_off = _run(
            circ, passes, backend, mode, n_ranks, "off", shots=8, dtype=dtype
        )
        assert bits_on == bits_off, f"per-shot bits diverged\n{label}"
        assert w_on.counts == w_off.counts, f"shot counts diverged\n{label}"


def test_fuzz_against_independent_dense_oracle():
    """Final amplitudes match a reference that shares no code with repro.

    Measurement-free corpus circuits, one configuration each, strided
    through the full backend x mode x ranks x cache x dtype product
    so every axis value meets every other within the quick corpus.
    """
    configs = list(itertools.product(BACKENDS, MODES, RANKS, ("on", "off"), DTYPES))
    for i, circ, passes in _corpus(N_ORACLE_CIRCUITS, 8):
        n_qubits, ops, _ = circ
        circ = (n_qubits, ops, ())
        # 37 is coprime to len(configs) == 96: a full-period stride.
        backend, mode, n_ranks, cache, dtype = configs[(37 * i) % len(configs)]
        label = "engine vs dense oracle\n" + _describe(
            i, circ, passes, backend, mode, n_ranks, cache=cache, dtype=dtype
        )
        _, sv, _ = _run(circ, passes, backend, mode, n_ranks, cache, dtype=dtype)
        expected = _dense_oracle.run(
            n_qubits,
            [
                (gate, qs, theta)
                for angles in passes
                for (gate, qs, _), theta in zip(ops, angles)
            ],
        )
        worst = float(np.max(np.abs(sv - expected)))
        assert worst <= ORACLE_ATOL[dtype], (
            f"amplitudes off the oracle by {worst:.3e}\n{label}"
        )
