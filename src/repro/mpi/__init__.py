"""In-process classical MPI substrate.

QMPI (§4.1) "leverages MPI for classical communication"; this package is
that MPI. Ranks are threads, messages are Python objects, semantics follow
the MPI standard (tag/source matching, non-overtaking per peer,
communicator isolation, collective algorithms as in real implementations).

Rank *placement* is pluggable (:mod:`repro.mpi.transport`): ranks run as
threads over the in-memory fabric (``transport="inproc"``, the default)
or as one forked OS process each with a pipe control plane and a
shared-memory data plane (``transport="mp"``).
"""

from . import reduce_ops
from .comm import Communicator
from .errors import (
    DeadlockError,
    MpiAbort,
    MpiError,
    RankFailure,
    RecvTimeout,
    TransportError,
)
from .fabric import Fabric
from .request import Request, testall, waitall
from .runtime import InprocTransport, run_spmd, world_of
from .status import ANY_SOURCE, ANY_TAG, Status
from .transport import TRANSPORTS, Transport, make_transport, register_transport

__all__ = [
    "Communicator",
    "Fabric",
    "run_spmd",
    "world_of",
    "Status",
    "Request",
    "waitall",
    "testall",
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiError",
    "MpiAbort",
    "DeadlockError",
    "RankFailure",
    "RecvTimeout",
    "TransportError",
    "Transport",
    "TRANSPORTS",
    "make_transport",
    "register_transport",
    "InprocTransport",
    "reduce_ops",
]
