"""The declared runtime closure: ``repro.qmpi`` and an ``inproc`` run load
only the standard library, numpy and (for a native kernel) cffi.

``pyproject.toml`` declares numpy alone (cffi through ``[jit]``), so a
clean install must import and run without any other third-party package.
A fresh interpreter blocks ``networkx`` with a meta-path finder, runs a
4-rank cat-state tree over the in-process transport, and reports which
top-level modules the run added to ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from tests._precision import PROB_ABS

_CHILD = r"""
import json, sys


class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ImportError(f"{name} is not a declared dependency")
        return None


sys.meta_path.insert(0, _Blocked())
preloaded = set(sys.modules)

import numpy as np

import repro.qmpi
from repro.qmpi import cat_state_tree, qmpi_run


def prog(qc):
    q = qc.alloc_qmem(1)
    cat_state_tree(qc, q[0])
    qc.barrier()
    return q[0]


w = qmpi_run(4, prog, seed=0, transport="inproc")
vec = w.backend.statevector(list(w.results))
added = {name.partition(".")[0] for name in set(sys.modules) - preloaded}
print(json.dumps({
    "fidelity": float(abs(vec[0] + vec[-1]) ** 2 / 2),
    "added": sorted(added),
    "multiprocessing": "multiprocessing" in sys.modules,
}))
"""

#: Third-party top-level modules the runtime may load: numpy (with the
#: Cython runtime modules its extensions register), cffi and the native
#: kernel module it builds.
_ALLOWED = {"repro", "numpy", "cython_runtime", "cffi", "_cffi_backend"}


def _allowed(name: str) -> bool:
    return (
        name in sys.stdlib_module_names
        or name in _ALLOWED
        or name.startswith(("_cython_", "_repro_qk_"))
    )


def test_inproc_run_loads_only_the_declared_closure():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["fidelity"] == pytest.approx(1.0, abs=PROB_ABS)
    assert [m for m in report["added"] if not _allowed(m)] == []
    assert not report["multiprocessing"]
