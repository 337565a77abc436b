"""The names ``benchmarks/e2e`` pins, checked in tier-1.

The end-to-end benchmark times layers from the outside: ``layers.py``
replaces ``vars(owner)[attr]`` with a timing wrapper, so every
``(owner, attr)`` it lists must be defined on that class / module
*itself* (an inherited or re-exported-elsewhere name is not enough),
and ``layers.metrics`` indexes fixed keys of ``cache_info()`` /
``kernel_info()``.  A rename would otherwise surface only in the
benchmark's traced pass; here it fails in under a second.  Reads
``benchmarks/e2e``, changes nothing in it.
"""

from pathlib import Path

import pytest

from repro.qmpi import QmpiComm, ShardedBackend, SharedBackend

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

pytestmark = pytest.mark.skipif(
    not (E2E / "layers.py").is_file(), reason="benchmarks/e2e is not in this checkout"
)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    import layers

    return layers


def test_every_span_owner_defines_its_attribute_itself(layers):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span in layers.SPANS
        if attr not in vars(owner)
    ]
    assert not missing, f"benchmarks/e2e/layers.py cannot wrap: {missing}"


def test_every_gate_is_defined_on_qmpicomm_itself(layers):
    missing = [g for g in layers.GATESET if g not in vars(QmpiComm)]
    assert not missing, f"layers.install counts gates via vars(QmpiComm): {missing}"


@pytest.mark.parametrize("backend", [SharedBackend, ShardedBackend])
def test_info_snapshots_carry_the_keys_metrics_reads(backend):
    be = backend(seed=0)
    assert {"hits", "misses", "bypasses"} <= set(be.cache_info())
    assert {"jit_hits", "numpy_fallbacks", "compile_time"} <= set(be.kernel_info())
