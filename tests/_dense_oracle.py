"""Dense reference simulator that shares no code with ``repro``.

Every gate is a literal matrix written out below; a gate on arbitrary
qubits is embedded into the full ``2^n x 2^n`` register unitary by
Kronecker products and applied by one matrix-vector product.  No op IR,
no lowering, no fusion, no segments, no kernels — and no import from
``repro`` — so a bug in ``gates.py`` / ``lower_flush`` /
``compile_segments`` / the frozen executors cannot cancel out against
itself here.  Exponential in memory: keep registers at <= 10 qubits.

Convention (the one ``backend.statevector(ids)`` uses): qubit 0 is the
most significant bit of the state index, and the first qubit operand of
a gate is the most significant bit of its matrix index.
"""

import cmath
import math

import numpy as np

_R = 1 / math.sqrt(2)
_I2 = np.array([[1, 0], [0, 1]], dtype=complex)


def _controlled(u):
    """``|0><0| (x) I + |1><1| (x) u`` with the control as the MSB."""
    d = len(u)
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


def _rx(t):
    return [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]]


def _ry(t):
    return [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]]


def _rz(t):
    return [[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]]


def _phase(lam):
    return [[1, 0], [0, cmath.exp(1j * lam)]]


def _rzz(t):
    e, ec = cmath.exp(-0.5j * t), cmath.exp(0.5j * t)
    return [[e, 0, 0, 0], [0, ec, 0, 0], [0, 0, ec, 0], [0, 0, 0, e]]


_X = [[0, 1], [1, 0]]
_Z = [[1, 0], [0, -1]]

#: name -> function(*params) returning the full matrix over the operands.
GATES = {
    "h": lambda: [[_R, _R], [_R, -_R]],
    "x": lambda: _X,
    "y": lambda: [[0, -1j], [1j, 0]],
    "z": lambda: _Z,
    "s": lambda: [[1, 0], [0, 1j]],
    "sdg": lambda: [[1, 0], [0, -1j]],
    "t": lambda: [[1, 0], [0, cmath.exp(0.25j * math.pi)]],
    "tdg": lambda: [[1, 0], [0, cmath.exp(-0.25j * math.pi)]],
    "rx": _rx,
    "ry": _ry,
    "rz": _rz,
    "phase": _phase,
    "swap": lambda: [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "cnot": lambda: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "cz": lambda: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "crz": lambda t: _controlled(np.array(_rz(t))),
    "cphase": lambda lam: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, cmath.exp(1j * lam)]],
    "rzz": _rzz,
    "toffoli": lambda: _controlled(_controlled(np.array(_X))),
}


def embed(u, qubits, n):
    """The ``2^n x 2^n`` unitary acting as ``u`` on ``qubits``.

    ``u = sum_rc u[r, c] |r><c|`` and each ``|r><c|`` over the operands
    is a Kronecker product of single-qubit ``|r_i><c_i|`` factors, with
    identities on the untouched qubits.
    """
    u = np.asarray(u, dtype=complex)
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(2**k):
        for c in range(2**k):
            if u[r, c] == 0:
                continue
            factors = [_I2] * n
            for pos, q in enumerate(qubits):
                e = np.zeros((2, 2), dtype=complex)
                e[(r >> (k - 1 - pos)) & 1, (c >> (k - 1 - pos)) & 1] = 1
                factors[q] = e
            term = np.ones((1, 1), dtype=complex)
            for f in factors:
                term = np.kron(term, f)
            full += u[r, c] * term
    return full


def run(n, gates):
    """Final state of ``|0...0>`` after ``gates``, applied one by one.

    ``gates`` is an iterable of ``(name, qubits, params)`` with qubit
    *indices* ``0..n-1``.
    """
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1
    for name, qubits, params in gates:
        psi = embed(GATES[name](*params), qubits, n) @ psi
    return psi
