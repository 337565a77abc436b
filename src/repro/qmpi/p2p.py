"""QMPI point-to-point communication (§4.4, Table 2, Appendix A.1).

Two modes, both built on EPR pairs:

* **copy semantics** (``send``/``recv``) — fanout, Fig. 3(a): the qubit's
  value is exposed on both nodes as an entangled copy. Cost per qubit:
  1 EPR pair + 1 classical bit.
* **move semantics** (``send_move``/``recv_move``) — teleportation,
  Fig. 3(c) / Appendix A.1. Cost per qubit: 1 EPR pair + 2 classical bits.

Inverses: ``unsend``/``unrecv`` uncompute a fanned-out copy with *no* EPR
pair and one classical bit (Fig. 1(b): X-basis measurement + conditional
Z); ``unsend_move``/``unrecv_move`` teleport back (1 EPR pair + 2 bits).

Both measurements are one backend call each:
``measure_and_release(rank, e, control=q)`` is Fig. 3(a)'s "CNOT the
data qubit onto the EPR half, measure the half", and
``measure_and_release(rank, q, basis="X")`` Fig. 1(b)'s X-basis
measurement — so no other rank's call lands between the gate and the
measurement, and the engine never materialises the half a ``send``
consumes (see :meth:`repro.sim.register.Register.measure_and_release`).

Every function takes the per-rank :class:`~repro.qmpi.api.QmpiComm` as its
first argument; ``api.py`` binds them as methods. Registers (Qureg) are
processed qubit-by-qubit — resources scale with message size exactly as
Table 1 states ("per qubit in the message").
"""

from __future__ import annotations

from .qubit import Qureg, as_qureg

__all__ = [
    "send",
    "recv",
    "isend",
    "irecv",
    "QmpiRequest",
    "unsend",
    "unrecv",
    "send_move",
    "recv_move",
    "isend_move",
    "unsend_move",
    "unrecv_move",
    "sendrecv",
    "unsendrecv",
    "sendrecv_replace",
    "unsendrecv_replace",
]

# Directed stream ids for EPR matching (see epr.EprKey.direction).
def _dir(src_rank: int) -> int:
    return src_rank + 1


class QmpiRequest:
    """Completion handle for non-blocking QMPI operations.

    ``wait()`` guarantees the operation's quantum side effects have been
    applied (for isend: the fanout/teleport measurements happened and the
    classical fixup bits are in flight) and runs any deferred local
    finishers (for irecv: the Pauli fixups).
    """

    def __init__(self, epr_requests, finisher=None, value=None):
        self._epr_requests = list(epr_requests)
        self._finisher = finisher
        self._value = value
        self._done = False

    def wait(self):
        if not self._done:
            for req in self._epr_requests:
                req.wait()
            if self._finisher is not None:
                self._value = self._finisher()
            self._done = True
        return self._value

    def test(self) -> bool:
        if self._done:
            return True
        if all(r.test() for r in self._epr_requests):
            self.wait()
            return True
        return False


def isend(
    qc, qubits, dest: int, tag: int = 0, move: bool = False, *, _op: str | None = None
) -> QmpiRequest:
    """Non-blocking copy (or move) send.

    The EPR half and a continuation carrying the rest of the protocol are
    posted to the rendezvous service; the transfer completes whenever the
    receiver shows up — no blocking, so head-to-head exchanges are safe.
    The caller must not touch the sent qubits again before ``wait()``.
    """
    qc.flush_ops()
    qubits = as_qureg(qubits)
    op = _op or ("isend_move" if move else "isend")
    reqs = []
    for q in qubits:
        e = qc.backend.alloc(qc.rank, 1)[0]

        def continuation(q=q, e=e):
            with qc.ledger.scope(op):
                m = qc.backend.measure_and_release(qc.rank, e, control=q)
                qc.epr.consume(qc.rank)
                if move:
                    m |= 2 * qc.backend.measure_and_release(qc.rank, q, basis="X")
                    qc.bits.send(m, 2, dest, tag)
                else:
                    qc.bits.send(m, 1, dest, tag)

        reqs.append(
            qc.epr.iprepare(
                qc.rank, e, dest, tag, qc.context, _dir(qc.rank), on_match=continuation
            )
        )
    return QmpiRequest(reqs)


def isend_move(qc, qubits, dest: int, tag: int = 0) -> QmpiRequest:
    """Non-blocking teleport send."""
    return isend(qc, qubits, dest, tag, move=True)


def irecv(qc, qubits, source: int, tag: int = 0, move: bool = False) -> QmpiRequest:
    """Non-blocking receive; ``wait()`` returns the register after fixups."""
    qc.flush_ops()
    qubits = as_qureg(qubits)
    op = "irecv_move" if move else "irecv"
    reqs = [
        qc.epr.iprepare(qc.rank, q, source, tag, qc.context, _dir(source))
        for q in qubits
    ]

    def finisher():
        with qc.ledger.scope(op):
            for q in qubits:
                if move:
                    r = qc.bits.recv(2, source, tag)
                    qc.backend.apply_pauli_if(qc.rank, r & 1, "X", q)
                    qc.backend.apply_pauli_if(qc.rank, r & 2, "Z", q)
                else:
                    m = qc.bits.recv(1, source, tag)
                    qc.backend.apply_pauli_if(qc.rank, m, "X", q)
                qc.epr.consume(qc.rank)
            return qubits

    return QmpiRequest(reqs, finisher=finisher)


# ----------------------------------------------------------------------
# copy semantics (fanout)
# ----------------------------------------------------------------------
def send(qc, qubits, dest: int, tag: int = 0, *, _op: str = "send") -> None:
    """Entangled-copy send (fanout) of one or more qubits to ``dest``.

    Fig. 3(a): per qubit, CNOT the data qubit onto the local EPR half,
    measure it (parity measurement), and ship the outcome; the receiver
    fixes its half with X if the parity was 1.
    """
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            e = qc.backend.alloc(qc.rank, 1)[0]
            qc.epr.prepare(qc.rank, e, dest, tag, qc.context, _dir(qc.rank))
            m = qc.backend.measure_and_release(qc.rank, e, control=q)
            qc.epr.consume(qc.rank)
            qc.bits.send(m, 1, dest, tag)


def recv(qc, qubits, source: int, tag: int = 0, *, _op: str = "recv") -> Qureg:
    """Receive an entangled copy into fresh |0> ``qubits``."""
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            qc.epr.prepare(qc.rank, q, source, tag, qc.context, _dir(source))
            m = qc.bits.recv(1, source, tag)
            qc.backend.apply_pauli_if(qc.rank, m, "X", q)
            qc.epr.consume(qc.rank)  # the half is now data, not buffer
    return qubits


def unrecv(qc, qubits, source: int, tag: int = 0, *, _op: str = "unrecv") -> None:
    """Uncompute a previously received copy (receiver side).

    Fig. 1(b): measure in the X basis; the *sender* must apply Z on
    outcome 1. No EPR pair needed — one classical bit per qubit. The copy
    qubits are measured out and released.
    """
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            m = qc.backend.measure_and_release(qc.rank, q, basis="X")
            qc.bits.send(m, 1, source, tag)


def unsend(qc, qubits, dest: int, tag: int = 0, *, _op: str = "unsend") -> None:
    """Complete the uncopy on the original sender: conditional Z fixup."""
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            m = qc.bits.recv(1, dest, tag)
            qc.backend.apply_pauli_if(qc.rank, m, "Z", q)


# ----------------------------------------------------------------------
# move semantics (teleportation)
# ----------------------------------------------------------------------
def send_move(qc, qubits, dest: int, tag: int = 0, *, _op: str = "send_move") -> None:
    """Teleport qubits to ``dest`` (Appendix A.1 QMPI_Send_move).

    The local qubits are measured out and released; ownership of the state
    transfers to the receiver's target qubits.
    """
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            e = qc.backend.alloc(qc.rank, 1)[0]
            qc.epr.prepare(qc.rank, e, dest, tag, qc.context, _dir(qc.rank))
            r = qc.backend.measure_and_release(qc.rank, e, control=q)
            qc.epr.consume(qc.rank)
            r |= 2 * qc.backend.measure_and_release(qc.rank, q, basis="X")
            qc.bits.send(r, 2, dest, tag)


def recv_move(qc, qubits, source: int, tag: int = 0, *, _op: str = "recv_move") -> Qureg:
    """Receive teleported qubits into fresh |0> targets (QMPI_Recv_move)."""
    qc.flush_ops()  # stream boundary: buffered gates precede the protocol
    qubits = as_qureg(qubits)
    with qc.ledger.scope(_op):
        for q in qubits:
            qc.epr.prepare(qc.rank, q, source, tag, qc.context, _dir(source))
            r = qc.bits.recv(2, source, tag)
            qc.backend.apply_pauli_if(qc.rank, r & 1, "X", q)
            qc.backend.apply_pauli_if(qc.rank, r & 2, "Z", q)
            qc.epr.consume(qc.rank)
    return qubits


def unrecv_move(qc, qubits, source: int, tag: int = 0) -> None:
    """Inverse of recv_move: teleport the qubits back to ``source``.

    Appendix A.1: once moved, sender and receiver roles are symmetric, so
    the inverse is a move in the opposite direction (1 EPR + 2 bits).
    """
    send_move(qc, qubits, source, tag, _op="unrecv_move")


def unsend_move(qc, n_or_qubits, dest: int, tag: int = 0) -> Qureg:
    """Inverse of send_move: receive the qubits back from ``dest``.

    ``n_or_qubits`` is either an int (fresh targets are allocated) or a
    Qureg of |0> target qubits.
    """
    if isinstance(n_or_qubits, int):
        qubits = qc.backend.alloc(qc.rank, n_or_qubits)
    else:
        qubits = as_qureg(n_or_qubits)
    return recv_move(qc, qubits, dest, tag, _op="unsend_move")


# ----------------------------------------------------------------------
# combined send+receive
# ----------------------------------------------------------------------
def sendrecv(
    qc,
    send_qubits,
    dest: int,
    recv_qubits,
    source: int,
    sendtag: int = 0,
    recvtag: int = 0,
) -> Qureg:
    """Exchange entangled copies with two peers (QMPI_Sendrecv).

    Deadlock-free like its MPI namesake: the send side is posted
    non-blocking, so mutual sendrecv pairs always make progress.
    """
    with qc.ledger.scope("sendrecv"):
        req = isend(qc, send_qubits, dest, sendtag, _op="sendrecv")
        out = recv(qc, recv_qubits, source, recvtag)
        req.wait()
        return out


def unsendrecv(
    qc,
    send_qubits,
    dest: int,
    recv_qubits,
    source: int,
    sendtag: int = 0,
    recvtag: int = 0,
) -> None:
    """Inverse of sendrecv: unrecv our copy, complete peer's uncopy."""
    with qc.ledger.scope("unsendrecv"):
        unrecv(qc, recv_qubits, source, recvtag)
        unsend(qc, send_qubits, dest, sendtag)


def sendrecv_replace(
    qc, qubits, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
) -> Qureg:
    """Move our qubits to ``dest`` while receiving replacements from
    ``source`` (Table 2 note (a): sendrecv with move semantics).

    Returns the replacement register; the input register is consumed.
    """
    qubits = as_qureg(qubits)
    with qc.ledger.scope("sendrecv_replace"):
        fresh = qc.backend.alloc(qc.rank, len(qubits))
        req = isend(qc, qubits, dest, sendtag, move=True, _op="sendrecv_replace")
        recv_move(qc, fresh, source, recvtag)
        req.wait()
        return fresh


def unsendrecv_replace(
    qc, qubits, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
) -> Qureg:
    """Inverse of sendrecv_replace (moves in the opposite directions)."""
    qubits = as_qureg(qubits)
    with qc.ledger.scope("unsendrecv_replace"):
        fresh = qc.backend.alloc(qc.rank, len(qubits))
        req = isend(qc, qubits, source, sendtag, move=True, _op="unsendrecv_replace")
        recv_move(qc, fresh, dest, recvtag)
        req.wait()
        return fresh
