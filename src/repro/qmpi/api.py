"""The QMPI programming interface.

:class:`QmpiComm` is the per-rank handle a distributed quantum program
uses: qubit memory management, local gates (rank-checked), EPR
preparation, all point-to-point and collective operations of Tables 2-3,
and access to the classical MPI communicator (§4.1: classical and quantum
communication are separate; classical data goes through MPI).

The Table 2-3 operations and their ``un*`` inverses are the functions of
:mod:`~repro.qmpi.p2p` and :mod:`~repro.qmpi.collectives`, bound as
class attributes (each takes the handle first), so their signatures,
defaults and docstrings live only there. The v-variants' inverses are
their collective's inverse (``ungatherv is ungather``, and likewise
``unscatterv``, ``unalltoallv`` and ``unexscan``).

:func:`qmpi_run` is the ``mpiexec`` of this package: it builds the
quantum backend (shared or sharded, via ``backend=``), EPR service, and
resource ledger, then runs the SPMD function on N ranks.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..mpi.comm import Communicator
from ..mpi.runtime import run_spmd
from .backend import QuantumBackend, make_backend
from .epr import EprRequest, EprService
from . import collectives as _coll
from . import ops as _ops
from . import p2p as _p2p
from .ops import GateDef, Op
from .qubit import Qureg, as_qureg
from .resource import BitChannel, Ledger
from .stream import OpStream

__all__ = ["QmpiComm", "qmpi_run", "QmpiWorld"]


class QmpiComm:
    """Per-rank endpoint of a QMPI world.

    Attributes
    ----------
    comm:
        The user's classical MPI communicator (use freely for classical
        data; QMPI protocol traffic travels on a private dup).
    bits:
        The ledgered classical channel on that private dup
        (:class:`~repro.qmpi.resource.BitChannel`): every protocol's
        measurement outcomes and fixups travel, and are counted, here.
    backend:
        The quantum backend (rank-checked gate access; shared or sharded).
    epr:
        The EPR rendezvous service.
    ledger:
        Shared resource ledger (EPR pairs, classical bits).
    stream:
        This rank's :class:`~repro.qmpi.stream.OpStream`. Local gate
        calls append typed :class:`~repro.qmpi.ops.Op` records here; the
        buffer is fused, diagonal runs coalesce into
        :class:`~repro.qmpi.ops.DiagBatch` phase vectors, batches are
        dispatched through ``apply_flush``, and everything auto-flushes at
        every semantic boundary (measurement, ``prob_one``, EPR
        preparation, p2p/collective entry, barrier, qubit release,
        program exit).
    """

    def __init__(
        self,
        comm: Communicator,
        backend: QuantumBackend,
        epr: EprService,
        ledger: Ledger,
        fusion="auto",
    ):
        self.comm = comm
        self._pcomm = comm.dup()  # protocol traffic, isolated context
        self.backend = backend
        self.epr = epr
        self.ledger = ledger
        self.bits = BitChannel(self._pcomm, ledger)
        self.context = self._pcomm.context
        self.stream = OpStream(backend, comm.rank, fusion=fusion)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    # ------------------------------------------------------------------
    # memory (QMPI_Alloc_qmem / QMPI_Free_qmem)
    # ------------------------------------------------------------------
    def alloc_qmem(self, n: int = 1) -> Qureg:
        """Allocate ``n`` local |0> qubits."""
        return self.backend.alloc(self.rank, n)

    def free_qmem(self, qubits) -> None:
        """Free local qubits (must be disentangled |0>)."""
        self.flush_ops()
        self.backend.free(self.rank, list(as_qureg(qubits)))

    # ------------------------------------------------------------------
    # local gates & measurement (recorded on the op stream, §6)
    # ------------------------------------------------------------------
    # Named gate methods — h(q), cnot(c, t), crz(c, t, theta), ... — are
    # generated from the GATESET registry at the bottom of this module:
    # each appends one typed Op to self.stream instead of issuing an
    # eager backend call.

    def flush_ops(self) -> None:
        """Dispatch this rank's buffered gate stream (one apply_flush batch).

        Called automatically at every semantic boundary; manual calls are
        only needed before white-box backend inspection mid-program.
        """
        self.stream.flush()

    def measure(self, q: int) -> int:
        self.flush_ops()
        return self.backend.measure(self.rank, q)

    def measure_and_release(self, q: int) -> int:
        self.flush_ops()
        return self.backend.measure_and_release(self.rank, q)

    def prob_one(self, q: int) -> float:
        self.flush_ops()
        return self.backend.prob_one(self.rank, q)

    def statevector(self, qubits=None):
        """Global state for verification/debugging (not part of QMPI).

        Flushes this rank's stream first; other ranks flush their own
        at their boundaries — coordinate with :meth:`barrier` for a
        consistent global view mid-program.
        """
        self.flush_ops()
        return self.backend.statevector(qubits)

    # ------------------------------------------------------------------
    # EPR (§4.3)
    # ------------------------------------------------------------------
    def prepare_epr(self, qubit: int, dest: int, tag: int = 0) -> None:
        """Blocking QMPI_Prepare_EPR (symmetric rendezvous)."""
        self.flush_ops()
        with self.ledger.scope("prepare_epr"):
            self.epr.prepare(self.rank, qubit, dest, tag, self.context, direction=0)

    def iprepare_epr(self, qubit: int, dest: int, tag: int = 0) -> EprRequest:
        """Non-blocking QMPI_Iprepare_EPR."""
        self.flush_ops()
        with self.ledger.scope("prepare_epr"):
            return self.epr.iprepare(self.rank, qubit, dest, tag, self.context, direction=0)

    def epr_buffered(self) -> int:
        """Number of EPR halves currently occupying this rank's buffer."""
        return self.epr.buffered(self.rank)

    # ------------------------------------------------------------------
    # point-to-point (Table 2) and collectives (Table 3): every
    # implementation takes this handle first, so it binds as a method.
    # ------------------------------------------------------------------
    send = _p2p.send
    recv = _p2p.recv
    unsend = _p2p.unsend
    unrecv = _p2p.unrecv
    send_move = _p2p.send_move
    recv_move = _p2p.recv_move
    unsend_move = _p2p.unsend_move
    unrecv_move = _p2p.unrecv_move
    sendrecv = _p2p.sendrecv
    unsendrecv = _p2p.unsendrecv
    sendrecv_replace = _p2p.sendrecv_replace
    unsendrecv_replace = _p2p.unsendrecv_replace

    # Buffered/synchronous/ready variants are semantically identical on
    # the eager in-process fabric; aliases keep Table 2 one-to-one.
    bsend = ssend = rsend = send
    mrecv = recv
    bunsend = sunsend = runsend = unsend
    munrecv = unrecv

    def cancel(self) -> None:
        """QMPI_Cancel: a no-op marker — Table 2 note (b): resources may
        already have been used."""

    bcast = _coll.bcast
    unbcast = _coll.unbcast
    gather = _coll.gather
    gatherv = _coll.gatherv
    gather_move = _coll.gather_move
    ungather = ungatherv = _coll.ungather
    scatter = _coll.scatter
    scatterv = _coll.scatterv
    scatter_move = _coll.scatter_move
    unscatter = unscatterv = _coll.unscatter
    allgather = _coll.allgather
    unallgather = _coll.unallgather
    alltoall = _coll.alltoall
    alltoallv = _coll.alltoallv
    alltoall_move = _coll.alltoall_move
    unalltoall = unalltoallv = _coll.unalltoall
    reduce = _coll.reduce
    unreduce = _coll.unreduce
    allreduce = _coll.allreduce
    unallreduce = _coll.unallreduce
    reduce_scatter_block = _coll.reduce_scatter_block
    unreduce_scatter_block = _coll.unreduce_scatter_block
    scan = _coll.scan
    exscan = _coll.exscan
    unscan = unexscan = _coll.unscan

    def barrier(self) -> None:
        """Classical barrier across the QMPI world (flushes the stream)."""
        self.flush_ops()
        self._pcomm.barrier()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<QmpiComm rank={self.rank}/{self.size}>"


# ----------------------------------------------------------------------
# GATESET-generated gate methods (h, x, ..., swap, crz, cphase, ...)
# ----------------------------------------------------------------------
def _install_comm_shim(gd: GateDef) -> None:
    n_args = gd.n_qubits + gd.n_params

    def shim(self: QmpiComm, *args):
        if len(args) != n_args:
            raise TypeError(
                f"{gd.name}({gd.signature()}) takes {n_args} operands, "
                f"got {len(args)}"
            )
        self.stream.append(Op(gd.name, args[: gd.n_qubits], args[gd.n_qubits :]))

    _ops.install_gate_method(
        QmpiComm,
        gd,
        shim,
        f"``{gd.name}({gd.signature()})`` — recorded on this rank's op "
        f"stream (fused/batched; applied no later than the next flush "
        f"boundary).",
    )


_ops.bind_gateset(_install_comm_shim)


class QmpiWorld:
    """First-class result of a :func:`qmpi_run`.

    Indexing and iteration yield the per-rank return values
    (``world[rank]``, ``list(world)``, ``len(world)``); the
    :attr:`results` list, :attr:`backend`, and :attr:`ledger` attributes
    remain available for inspection as before. Runs started with
    ``shots=N`` expose the sampled measurement histogram as
    :attr:`counts`. The world is a context manager (``with
    qmpi_run(...) as world:``), and :meth:`close` is a no-op.
    """

    def __init__(
        self,
        results: list,
        backend: QuantumBackend,
        ledger: Ledger,
        shots: int | None = None,
    ):
        self.results = results
        self.backend = backend
        self.ledger = ledger
        #: Shot count of the run, or ``None`` for a single trajectory.
        self.shots = shots

    def __getitem__(self, rank: int):
        return self.results[rank]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def counts(self):
        """Per-shot measurement histogram (:class:`collections.Counter`).

        Keys are bitstrings of every measurement in the run, stably
        ordered by measuring rank (program order within a rank).
        Requires the run to have been started with ``shots=``.
        """
        if self.shots is None:
            raise RuntimeError(
                "counts requires a shot-batched run: qmpi_run(..., shots=N)"
            )
        return self.backend.counts()

    def close(self) -> None:
        """A no-op, kept so ``world.close()`` and ``with`` blocks work.

        Every engine holds its state in RAM only, so the backend stays
        usable and nothing is released.
        """

    def __enter__(self) -> "QmpiWorld":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shots = f" shots={self.shots}" if self.shots is not None else ""
        return f"<QmpiWorld ranks={len(self.results)}{shots}>"


def _execute(
    backend: QuantumBackend,
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    s_limit: int | None = None,
    timeout: float = 120.0,
    fusion="auto",
    transport="inproc",
) -> tuple[list, Ledger]:
    """Run ``fn`` SPMD on a ready backend (the body of :func:`qmpi_run`)."""
    from ..mpi.transport import make_transport

    t = make_transport(transport)
    if not t.inprocess:
        # Process transports cannot share the backend object with the
        # ranks: the parent keeps it behind a service endpoint and the
        # ranks drive it through proxies (see repro.qmpi.service).
        from .service import execute_mp

        return execute_mp(
            backend, n_ranks, fn, args, kwargs, s_limit, timeout, fusion, t
        )
    ledger = Ledger()
    epr = EprService(backend, ledger, s_limit=s_limit)

    def wrapper(comm: Communicator, *a: Any, **k: Any) -> Any:
        epr.abort = comm.fabric.abort
        qc = QmpiComm(comm, backend, epr, ledger, fusion=fusion)
        try:
            return fn(qc, *a, **k)
        finally:
            qc.flush_ops()

    results = run_spmd(n_ranks, wrapper, args, kwargs, timeout, transport=t)
    return results, ledger


def qmpi_run(
    n_ranks: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    s_limit: int | None = None,
    seed: int | None = 0,
    timeout: float = 120.0,
    backend: "str | type[QuantumBackend] | QuantumBackend" = "shared",
    fusion="auto",
    shots: int | None = None,
    transport="inproc",
    **backend_kw,
) -> QmpiWorld:
    """Run ``fn(qcomm, *args, **kwargs)`` on ``n_ranks`` quantum ranks.

    Parameters
    ----------
    s_limit:
        Optional per-rank EPR buffer capacity (the SENDQ ``S`` parameter),
        enforced functionally: protocols that need more concurrent EPR
        halves raise :class:`~repro.qmpi.epr.EprBufferFull`.
    seed:
        Measurement RNG seed for reproducible runs. Ignored (along with
        backend options) when ``backend`` is a prebuilt instance, which
        keeps its own RNG and configuration; passing a non-default seed
        alongside a prebuilt instance warns.
    backend:
        Engine selection: ``"shared"`` (the paper's §6 rank-0 state
        vector), ``"sharded"`` / ``"sharded:<n>"`` (amplitudes chunked
        across simulation ranks), a backend class, or a prebuilt
        :class:`~repro.qmpi.backend.QuantumBackend` instance. Plain
        ``"sharded"`` sizes the chunk count to ``n_ranks`` (next power of
        two). See :func:`repro.qmpi.backend.make_backend`.
    fusion:
        Per-rank gate-stream fusion: ``"auto"`` (default, every
        ``BENCHMARK.json`` row) buffers, fuses, coalesces diagonal
        runs into :class:`~repro.qmpi.ops.DiagBatch` phase vectors,
        and on large registers fuses small-op runs into
        :class:`~repro.qmpi.ops.ContractionPlan` window unitaries;
        ``"off"`` forwards every gate eagerly as a one-op batch (the
        per-gate debug and test reference — identical semantics, no
        batching). See :class:`~repro.qmpi.stream.OpStream`.
    shots:
        Sample ``N`` trajectories in *one* execution of the program:
        unitary segments run once, measurement-free circuits sample all
        outcomes from the final state, and mid-circuit measurements fork
        batched trajectories inside the engine (see
        :mod:`repro.sim.shots`). Measurement calls then return per-shot
        :class:`~repro.sim.shots.ShotBits` and the world exposes
        :attr:`QmpiWorld.counts`.
    transport:
        Rank placement (see :mod:`repro.mpi.transport`): ``"inproc"``
        (default) runs ranks as threads; ``"mp"`` forks one OS process
        per rank — the backend stays in the calling process behind a
        service endpoint and the ranks drive it over RPC (the paper's
        §6 forwarding discipline made literal), so per-shot outcomes
        are identical between transports at equal seed. ``"mp"``
        requires ``fn`` and its arguments to be picklable (module-level
        function). Also accepts a
        :class:`~repro.mpi.transport.Transport` class or instance.
    **backend_kw:
        Backend constructor options as plain keywords, e.g.
        ``qmpi_run(..., backend="sharded", n_shards=8)`` —
        ``n_shards`` (sharded engine only), ``cache`` and ``dtype``;
        the constructors' fourth keyword, ``seed``, is the parameter
        above. ``dtype="complex64"`` selects the half-footprint
        mixed-precision tier.

    A parameter sweep reuses one prebuilt backend: its schedule cache
    survives across calls, and ``backend.reseed(seed)`` before each call
    gives every sweep point its own reproducible measurement stream
    (``prog`` releases its qubits, so the next shot batch can start)::

        be = make_backend("shared")
        for seed, theta in enumerate(grid):
            be.reseed(seed)
            counts = qmpi_run(2, prog, args=(theta,), backend=be,
                              shots=256).counts
    """
    if isinstance(backend, QuantumBackend) and seed == 0:
        # The default seed must not trigger the prebuilt-instance
        # warning in make_backend; only an explicit seed should.
        seed = None
    backend = make_backend(backend, seed=seed, n_ranks=n_ranks, **backend_kw)
    if shots is not None:
        backend.begin_shots(shots)
    results, ledger = _execute(
        backend, n_ranks, fn, args, kwargs, s_limit, timeout, fusion, transport
    )
    return QmpiWorld(results, backend, ledger, shots=shots)

