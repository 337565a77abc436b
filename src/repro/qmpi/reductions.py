"""Reversible reduction operations for QMPI collectives (§4.5).

A :class:`QuantumOp` updates an accumulator register from a source
register *reversibly* — QMPI_Reduce "only accepts reversible operations",
and the inverse is required for QMPI_Unreduce. Two operations ship:

* :data:`PARITY` — per-qubit XOR (the paper's QMPI_PARITY example),
  implemented with transversal CNOTs.
* :data:`SUM` — modular integer addition on little-endian registers,
  implemented with the Cuccaro ripple-carry adder (Toffoli-based), whose
  exact inverse is modular subtraction.
"""

from __future__ import annotations

from .qubit import Qureg, as_qureg

__all__ = ["QuantumOp", "PARITY", "SUM"]


class QuantumOp:
    """A named reversible accumulator update ``acc <- op(acc, src)``.

    ``apply``/``unapply`` receive the per-rank QmpiComm (for rank-checked
    gate access) and two equal-length, disjoint registers. ``src`` is
    always preserved.
    """

    def __init__(self, name: str, apply_fn, unapply_fn):
        self.name = name
        self._apply = apply_fn
        self._unapply = unapply_fn

    def apply(self, qc, src: Qureg, acc: Qureg) -> None:
        self._apply(qc, *self._check(src, acc))

    def unapply(self, qc, src: Qureg, acc: Qureg) -> None:
        self._unapply(qc, *self._check(src, acc))

    def _check(self, src: Qureg, acc: Qureg) -> tuple[Qureg, Qureg]:
        src, acc = as_qureg(src), as_qureg(acc)
        if len(src) != len(acc):
            raise ValueError(f"{self.name}: register sizes differ")
        # A partial overlap passes every gate's own check and silently
        # computes garbage, so both registers are checked as sets.
        if set(src) & set(acc):
            raise ValueError(f"{self.name}: registers overlap")
        return src, acc

    def __repr__(self) -> str:
        return f"<QuantumOp {self.name}>"


def _parity_apply(qc, src: Qureg, acc: Qureg) -> None:
    for s, a in zip(src, acc):
        qc.backend.cnot(qc.rank, s, a)


#: Per-qubit XOR; self-inverse.
PARITY = QuantumOp("PARITY", _parity_apply, _parity_apply)


def _sum_apply(qc, src: Qureg, acc: Qureg) -> None:
    _cuccaro(qc, src, acc, inverse=False)


def _sum_unapply(qc, src: Qureg, acc: Qureg) -> None:
    _cuccaro(qc, src, acc, inverse=True)


def _cuccaro(qc, a: Qureg, b: Qureg, inverse: bool) -> None:
    """``b <- (b ± a) mod 2**n`` with one local ancilla.

    The Cuccaro/CDKM MAJ/UMA network: the carry into bit ``i`` lives on
    ``a[i-1]`` (the ancilla for ``i = 0``), and the modular variant omits
    the carry-out.  It runs through the rank-checked backend, so it is a
    legal *local* circuit (all qubits must be on the calling rank —
    reductions fan remote data in first).
    """
    n = len(a)
    if n == 0:
        return
    (anc,) = qc.backend.alloc(qc.rank, 1)
    carries = [anc] + list(a[:-1])
    rank = qc.rank
    be = qc.backend

    def maj(c, bq, aq):
        be.cnot(rank, aq, bq)
        be.cnot(rank, aq, c)
        be.toffoli(rank, c, bq, aq)

    def maj_inv(c, bq, aq):
        be.toffoli(rank, c, bq, aq)
        be.cnot(rank, aq, c)
        be.cnot(rank, aq, bq)

    def uma(c, bq, aq):
        be.toffoli(rank, c, bq, aq)
        be.cnot(rank, aq, c)
        be.cnot(rank, c, bq)

    def uma_inv(c, bq, aq):
        be.cnot(rank, c, bq)
        be.cnot(rank, aq, c)
        be.toffoli(rank, c, bq, aq)

    if not inverse:
        for i in range(n):
            maj(carries[i], b[i], a[i])
        for i in reversed(range(n)):
            uma(carries[i], b[i], a[i])
    else:
        for i in range(n):
            uma_inv(carries[i], b[i], a[i])
        for i in reversed(range(n)):
            maj_inv(carries[i], b[i], a[i])
    be.free(rank, anc)


#: Modular sum over little-endian registers; inverse = modular subtraction.
SUM = QuantumOp("SUM", _sum_apply, _sum_unapply)
