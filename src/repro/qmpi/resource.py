"""Resource ledger: EPR pairs and classical bits.

Tables 1-3 of the paper state the cost of every QMPI operation in terms of
EPR pairs established and classical bits communicated. The ledger is the
measured counterpart: the EPR service and every protocol's classical sends
report here, and the table benches read deltas around single operations.

The ledger is shared by all ranks (thread-safe); per-operation attribution
uses named scopes so concurrent collectives aggregate into one row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Ledger", "LedgerSnapshot", "OpRow"]


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

    def record_classical(self, bits: int) -> None:
        """Count ``bits`` transmitted classical bits (sending side only:
        each bit increments the global totals exactly once)."""
        with self._lock:
            self.classical_bits += bits
            self.classical_messages += 1
            for row in self._current_rows():
                row.classical_bits += bits

    def record_classical_receipt(self, bits: int) -> None:
        """Attribute ``bits`` *received* classical bits to the current
        scope's rows without touching the global totals.

        Convention: bits are counted once, on the sending side
        (:meth:`record_classical`); the receiving operation still shows
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
