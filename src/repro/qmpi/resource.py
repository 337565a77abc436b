"""Resource ledger: EPR pairs and classical bits.

Tables 1-3 of the paper state the cost of every QMPI operation in terms of
EPR pairs established and classical bits communicated. The ledger is the
measured counterpart: the EPR service reports every pair here, every
protocol bit travels through one :class:`BitChannel`, and the table
benches read deltas around single operations.

Classical cost model
--------------------
A bit is counted once, by the rank that sends it, and each send is one
message. Collectives are counted in their flat form, whatever algorithm
the classical substrate runs underneath (its binomial trees and
distance-doubling scans are not counted):

* ``send``: the sender sends ``nbits`` to ``dest``;
* ``bcast`` / ``scatter``: the root sends ``nbits`` to each other rank;
* ``reduce`` / ``gather``: each non-root sends ``nbits`` to the root;
* ``exscan``: rank r sends ``nbits`` to rank r + 1.

A p2p receive also attributes its ``nbits`` to the receiving operation's
row (not to the totals), so both endpoints' rows show their Table 1-3
cost; collective rows are shared by name and get no receipt.

The ledger is shared by all ranks (thread-safe); per-operation attribution
uses named scopes so concurrent collectives aggregate into one row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..mpi import reduce_ops

__all__ = ["BitChannel", "Ledger", "LedgerSnapshot", "OpRow"]


@dataclass
class LedgerSnapshot:
    """Immutable view of ledger totals."""

    epr_pairs: int
    classical_bits: int
    classical_messages: int

    def delta(self, earlier: "LedgerSnapshot") -> "LedgerSnapshot":
        return LedgerSnapshot(
            self.epr_pairs - earlier.epr_pairs,
            self.classical_bits - earlier.classical_bits,
            self.classical_messages - earlier.classical_messages,
        )


@dataclass
class OpRow:
    """Accumulated resources attributed to one named operation."""

    name: str
    epr_pairs: int = 0
    classical_bits: int = 0
    calls: int = 0


@dataclass
class Ledger:
    """Thread-safe resource counters."""

    epr_pairs: int = 0
    classical_bits: int = 0
    classical_messages: int = 0
    rows: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _scopes: dict = field(default_factory=dict, repr=False)  # thread id -> op name

    # -- scoping ---------------------------------------------------------
    def push_scope(self, name: str) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._scopes.setdefault(tid, []).append(name)
            row = self.rows.setdefault(name, OpRow(name))
            row.calls += 1

    def pop_scope(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._scopes[tid].pop()

    def scope(self, name: str):
        """Context manager attributing resources to ``name`` on this thread."""
        ledger = self

        class _Scope:
            def __enter__(self):
                ledger.push_scope(name)
                return ledger

            def __exit__(self, *exc):
                ledger.pop_scope()
                return False

        return _Scope()

    def _current_rows(self) -> list[OpRow]:
        tid = threading.get_ident()
        names = self._scopes.get(tid) or []
        return [self.rows[n] for n in names]

    # -- recording --------------------------------------------------------
    def record_epr(self, n: int = 1) -> None:
        with self._lock:
            self.epr_pairs += n
            for row in self._current_rows():
                row.epr_pairs += n

    def record_classical(self, bits: int, messages: int = 1) -> None:
        """Count ``messages`` sent messages of ``bits`` classical bits each
        (sending side only: each bit increments the totals exactly once)."""
        with self._lock:
            self.classical_bits += bits * messages
            self.classical_messages += messages
            for row in self._current_rows():
                row.classical_bits += bits * messages

    def record_classical_receipt(self, bits: int) -> None:
        """Attribute ``bits`` *received* classical bits to the current
        scope's rows without touching the global totals.

        Bits are counted once, on the sending side
        (:meth:`record_classical`); a p2p receiving operation still shows
        its Table 1-3 classical cost on its own row. Row sums may
        therefore exceed the global totals — a bit lands on both
        endpoints' rows but is transmitted once.
        """
        with self._lock:
            for row in self._current_rows():
                row.classical_bits += bits

    # -- reading ----------------------------------------------------------
    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            return LedgerSnapshot(self.epr_pairs, self.classical_bits, self.classical_messages)

    def row(self, name: str) -> OpRow:
        with self._lock:
            return self.rows.get(name, OpRow(name))


class BitChannel:
    """The ledgered classical channel every QMPI protocol sends its bits on.

    It wraps a communicator reserved for protocol traffic (so protocol
    messages never match the user's) and counts each operation at its
    senders under the cost model of this module's docstring. ``nbits`` is
    the size of this rank's contribution; ``reduce`` and ``exscan``
    combine the values by XOR.
    """

    def __init__(self, comm, ledger: Ledger):
        self._comm = comm
        self._ledger = ledger

    def send(self, value: int, nbits: int, dest: int, tag: int = 0) -> None:
        self._ledger.record_classical(nbits)
        self._comm.send(value, dest, tag)

    def recv(self, nbits: int, source: int, tag: int = 0) -> int:
        value = self._comm.recv(source=source, tag=tag)
        self._ledger.record_classical_receipt(nbits)
        return value

    def bcast(self, value, nbits: int, root: int = 0):
        if self._comm.rank == root:
            self._ledger.record_classical(nbits, self._comm.size - 1)
        return self._comm.bcast(value, root=root)

    def scatter(self, values, nbits: int, root: int = 0):
        if self._comm.rank == root:
            self._ledger.record_classical(nbits, self._comm.size - 1)
        return self._comm.scatter(values, root=root)

    def reduce(self, value: int, nbits: int, root: int = 0):
        if self._comm.rank != root:
            self._ledger.record_classical(nbits)
        return self._comm.reduce(value, reduce_ops.BXOR, root=root)

    def gather(self, value, nbits: int, root: int = 0):
        if self._comm.rank != root:
            self._ledger.record_classical(nbits)
        return self._comm.gather(value, root=root)

    def exscan(self, value: int, nbits: int):
        if self._comm.rank < self._comm.size - 1:
            self._ledger.record_classical(nbits)
        return self._comm.exscan(value, reduce_ops.BXOR)
