"""Persistent communication requests (§4.7, the paper's future extension).

"All required EPR pairs can be prepared before starting communication and,
in particular, before the data to be sent is available. Point-to-point or
collective quantum communication can then be performed with purely
classical communication."

A :class:`PersistentChannel` pre-establishes a pool of EPR pairs between
two ranks. ``send``/``recv`` (copy semantics) and ``send_move``/
``recv_move`` then consume pooled halves: at transfer time the only
traffic is classical fixup bits — zero quantum communication depth. The
pool occupies the S-limited EPR buffer, so over-provisioning fails fast,
exactly the constraint §4.7 names ("possible only if sufficient qubits
are available to store the established EPR pairs").
"""

from __future__ import annotations

from collections import deque

from .qubit import Qureg

__all__ = ["PersistentChannel"]


class PersistentChannel:
    """A pre-entangled FIFO channel between ``rank`` and ``peer``.

    Both endpoints construct the channel collectively with the same
    ``slots`` and ``tag``; construction performs all EPR preparations
    (possibly overlapped with compute via ``eager=False`` + ``start()``).
    """

    def __init__(self, qc, peer: int, slots: int, tag: int = 0, eager: bool = True):
        self.qc = qc
        self.peer = peer
        self.tag = tag
        self._halves: deque[int] = deque()
        self._requests: list = []
        self._slots = slots
        if eager:
            self.start()
            self.wait()

    # -- pool management -------------------------------------------------
    def start(self) -> None:
        """Post all EPR preparations asynchronously (QMPI_Iprepare_EPR)."""
        qc = self.qc
        for i in range(self._slots):
            (q,) = qc.backend.alloc(qc.rank, 1)
            req = qc.epr.iprepare(
                qc.rank, q, self.peer, self.tag + i, qc.context, direction=30_000
            )
            self._halves.append(q)
            self._requests.append(req)

    def wait(self) -> None:
        """Block until the whole pool is entangled."""
        for req in self._requests:
            req.wait()
        self._requests.clear()

    @property
    def available(self) -> int:
        return len(self._halves)

    def _take(self) -> int:
        if not self._halves:
            raise RuntimeError("persistent channel exhausted; call refill()")
        return self._halves.popleft()

    def refill(self, slots: int) -> None:
        """Top the pool back up (quantum communication happens here, not
        at transfer time)."""
        self._slots = slots
        self.start()
        self.wait()

    # -- transfers (classical communication only) -------------------------
    def send(self, qubits) -> None:
        """Entangled-copy send using pooled pairs: only classical bits move."""
        qc = self.qc
        qubits = Qureg(qubits) if not isinstance(qubits, int) else Qureg((qubits,))
        qc.flush_ops()
        with qc.ledger.scope("persistent_send"):
            for q in qubits:
                e = self._take()
                m = qc.backend.measure_and_release(qc.rank, e, control=q)
                qc.epr.consume(qc.rank)
                qc.bits.send(m, 1, self.peer, self.tag)

    def recv(self, n: int = 1) -> Qureg:
        """Receive entangled copies into pooled halves; returns them."""
        qc = self.qc
        out = []
        qc.flush_ops()
        with qc.ledger.scope("persistent_recv"):
            for _ in range(n):
                q = self._take()
                m = qc.bits.recv(1, self.peer, self.tag)
                if m:
                    qc.backend.x(qc.rank, q)
                qc.epr.consume(qc.rank)
                out.append(q)
        return Qureg(out)

    def send_move(self, qubits) -> None:
        """Teleport using pooled pairs (2 classical bits per qubit)."""
        qc = self.qc
        qubits = Qureg(qubits) if not isinstance(qubits, int) else Qureg((qubits,))
        qc.flush_ops()
        with qc.ledger.scope("persistent_send_move"):
            for q in qubits:
                e = self._take()
                r = qc.backend.measure_and_release(qc.rank, e, control=q)
                qc.epr.consume(qc.rank)
                r |= 2 * qc.backend.measure_and_release(qc.rank, q, basis="X")
                qc.bits.send(r, 2, self.peer, self.tag)

    def recv_move(self, n: int = 1) -> Qureg:
        """Receive teleported qubits into pooled halves."""
        qc = self.qc
        out = []
        qc.flush_ops()
        with qc.ledger.scope("persistent_recv_move"):
            for _ in range(n):
                q = self._take()
                r = qc.bits.recv(2, self.peer, self.tag)
                if r & 1:
                    qc.backend.x(qc.rank, q)
                if r & 2:
                    qc.backend.z(qc.rank, q)
                qc.epr.consume(qc.rank)
                out.append(q)
        return Qureg(out)

    def drain(self) -> None:
        """Release unused pooled halves (measuring them out)."""
        qc = self.qc
        while self._halves:
            q = self._halves.popleft()
            qc.backend.measure_and_release(qc.rank, q)
            qc.epr.consume(qc.rank)
