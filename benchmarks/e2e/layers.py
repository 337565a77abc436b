"""Which callable stands for which layer, and the per-layer metrics of one run.

Layer names are module names. A class method is wrapped on the class;
a module function is wrapped at the name its caller looks up (``from
.schedule import lower_flush`` binds a copy of the name in the
importing module, so that copy is the one to replace). The engine rows
are ``sim.statevector.*`` on ``shared`` workloads and ``sim.sharded.*``
on ``sharded`` ones; both sets are installed and the idle one reads 0.
"""

import numpy as np
from spans import by_layer

import repro.qmpi.backend as qmpi_backend
import repro.qmpi.stream as qmpi_stream
import repro.sim.cache as sim_cache
from repro.mpi.fabric import Fabric
from repro.mpi.mp import MpTransport
from repro.mpi.runtime import InprocTransport
from repro.qmpi import GATESET, QmpiComm, QuantumBackend
from repro.qmpi.epr import EprService
from repro.qmpi.service import QmpiServiceHost
from repro.qmpi.stream import OpStream
from repro.sim.cache import CompiledLayout, ScheduleCache
from repro.sim.kernels import KernelDispatch
from repro.sim.sharded import ShardedStateVector
from repro.sim.statevector import StateVector

#: The span every rank's call tree hangs from (the program function itself).
ROOT = "qmpi.api.rank_fn"

ENGINE_METHODS = ("freeze_segments", "execute_frozen", "execute_segments", "apply_ops")
KERNELS = ("drive", "sq", "cc", "contract", "phase_fill", "scale", "masked_scale")
BACKEND_METHODS = (
    "apply_flush",
    "apply_ops",
    "alloc",
    "free",
    "measure",
    "measure_and_release",
    "apply_pauli_if",
    "entangle_pair",
    "prob_one",
)
P2P_METHODS = ("send", "recv", "unsend", "unrecv")

#: (owner, attribute, span name) of every wrapped callable.
SPANS = [
    (OpStream, "append", "qmpi.stream.append"),
    (OpStream, "flush", "qmpi.stream.flush"),
    (ScheduleCache, "execute", "sim.cache.execute"),
    (sim_cache, "structural_key", "sim.cache.structural_key"),
    (CompiledLayout, "bind", "sim.cache.bind"),
    (sim_cache, "lower_flush", "sim.schedule.lower_flush"),
    (qmpi_backend, "lower_flush", "sim.schedule.lower_flush"),
    (qmpi_stream, "lower_flush", "sim.schedule.lower_flush"),
    # compile_segments has no caller-side name to replace: the engines
    # reach it through their own compile_batch, which does nothing else.
    (StateVector, "compile_batch", "sim.schedule.compile_segments"),
    (ShardedStateVector, "compile_batch", "sim.schedule.compile_segments"),
    *((StateVector, m, f"sim.statevector.{m}") for m in ENGINE_METHODS),
    *((ShardedStateVector, m, f"sim.sharded.{m}") for m in ENGINE_METHODS),
    *((KernelDispatch, k, f"sim.kernels.{k}") for k in KERNELS),
    *((QuantumBackend, m, f"qmpi.backend.{m}") for m in BACKEND_METHODS),
    (EprService, "prepare", "qmpi.epr.prepare"),
    (EprService, "iprepare", "qmpi.epr.iprepare"),
    *((QmpiComm, m, "qmpi.p2p") for m in P2P_METHODS),
    (QmpiComm, "bcast", "qmpi.collectives.bcast"),
    (Fabric, "send", "mpi.fabric.send"),
    (Fabric, "recv", "mpi.fabric.recv"),
    (InprocTransport, "run_spmd", "mpi.runtime.run_spmd"),
    (MpTransport, "run_spmd", "mpi.mp.run_spmd"),
    (QmpiServiceHost, "handle", "qmpi.service.handle"),
]

#: Layers reported as ``.self_s`` and ``.calls``; the rest of SPANS report ``.self_s`` only.
CALLS = (
    ["qmpi.stream.append", "qmpi.stream.flush", "sim.schedule.lower_flush"]
    + ["sim.schedule.compile_segments", "qmpi.epr.prepare", "qmpi.epr.iprepare"]
    + [f"sim.{engine}.{m}" for engine in ("statevector", "sharded") for m in ENGINE_METHODS]
    + [f"sim.kernels.{k}" for k in KERNELS]
    + [f"qmpi.backend.{m}" for m in BACKEND_METHODS]
    + ["qmpi.p2p", "qmpi.collectives.bcast", "mpi.fabric.send", "mpi.fabric.recv"]
    + ["qmpi.service.handle"]
)
SELF_ONLY = [
    ROOT,
    "qmpi.api.qmpi_run",
    "sim.cache.execute",
    "sim.cache.structural_key",
    "sim.cache.bind",
    "mpi.runtime.run_spmd",
    "mpi.mp.run_spmd",
]
PEAKS = ("qmpi.backend.peak_qubits", "sim.shots.n_branches_peak")


def _tally_qubits(counters, args, result):
    key = "qmpi.backend.peak_qubits"
    counters[key] = max(counters[key], args[0].num_qubits)


def _tally_branches(counters, args, result):
    key = "sim.shots.n_branches_peak"
    counters[key] = max(counters[key], args[0].raw().n_branches)


def _tally_bytes(counters, args, result):
    payload = args[5]  # Fabric.send(self, context, source, dest, tag, payload)
    if isinstance(payload, np.ndarray):
        counters["mpi.fabric.bytes_sent"] += payload.nbytes


#: Counts taken where the work happens, after the named span's call returns.
TALLIES = {
    "qmpi.backend.alloc": _tally_qubits,
    "qmpi.backend.measure": _tally_branches,
    "qmpi.backend.measure_and_release": _tally_branches,
    "mpi.fabric.send": _tally_bytes,
}


def install(recorder):
    """Wrap every layer's callable; ``recorder.uninstall()`` removes them all."""
    for owner, attr, name in SPANS:
        recorder.install(
            owner, attr, lambda fn, name=name: recorder.wrap(fn, name, TALLIES.get(name))
        )
    for gate in GATESET:
        recorder.install(QmpiComm, gate, lambda fn: recorder.counted(fn, "qmpi.api.gates"))


def metrics(spans, counters, world):
    """The per-layer metrics of one traced repetition (all but ``trace.*``/``host.*``)."""
    table = by_layer(spans)
    out = {f"{name}.self_s": table.get(name, (0.0, 0))[0] for name in CALLS + SELF_ONLY}
    out.update({f"{name}.calls": table.get(name, (0.0, 0))[1] for name in CALLS})
    for key in ("qmpi.api.gates", "mpi.fabric.bytes_sent", *PEAKS):
        out[key] = counters[key]
    cache = world.backend.cache_info()
    looked_up = cache["hits"] + cache["misses"] + cache["bypasses"]
    for key in ("hits", "misses", "bypasses"):
        out[f"sim.cache.{key}"] = cache[key]
    out["sim.cache.hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    kernels = world.backend.kernel_info()
    out["sim.kernels.jit_hits"] = kernels["jit_hits"]
    out["sim.kernels.numpy_fallbacks"] = kernels["numpy_fallbacks"]
    out["sim.kernels.cold_build_s"] = kernels["compile_time"]
    ledger = world.ledger.snapshot()
    for key in ("epr_pairs", "classical_bits", "classical_messages"):
        out[f"ledger.{key}"] = getattr(ledger, key)
    return out
