"""Quantum gate matrix library.

All gates are dense complex128 NumPy arrays. Single-qubit gates are 2x2,
two-qubit gates 4x4 with the convention that the *first* qubit argument of
:meth:`repro.sim.statevector.StateVector.apply` is the most significant
axis of the matrix (row-major Kronecker ordering ``U = U_q0 ⊗ U_q1``).

The set matches the paper's §2: Hadamard, S, T, the Paulis, controlled
Paulis, and Pauli rotations ``R_P(theta) = exp(-i theta P / 2)``.

The :data:`GATESET` registry at the bottom is the canonical description
of every *named* gate — operand signature, control count, target matrix,
diagonality — and the one table every per-gate method in the repository
is generated from: the ``h``/``cnot``/... methods of the engines
(:func:`repro.sim.ops.bind_engine_gates`: each runs its registry
:class:`~repro.sim.ops.Op` as a one-op batch) and, one layer up, the op-recording shims of ``QmpiComm``, ``QuantumBackend``
and ``BackendProxy`` (:mod:`repro.qmpi.ops` re-exports these same
objects).  It lives here,
beside the matrices, so that :mod:`repro.sim` stays importable without
:mod:`repro.qmpi`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GateDef",
    "GATESET",
    "UNITARY",
    "register_gate",
    "bind_gateset",
    "install_gate_method",
    "measurement_prelude",
    "I2",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "T",
    "TDG",
    "SX",
    "rx",
    "ry",
    "rz",
    "rzz",
    "phase",
    "CX",
    "CY",
    "CZ",
    "SWAP",
    "controlled",
    "is_unitary",
    "kron_all",
    "PAULIS",
]

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDG = T.conj().T
#: Square root of X (up to global phase); completes the common gate set.
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)

#: Name -> matrix for the single-qubit Paulis (identity included).
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def rx(theta: float) -> np.ndarray:
    """Rotation about X: ``exp(-i theta X / 2)``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """Rotation about Y: ``exp(-i theta Y / 2)``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    """Rotation about Z: ``exp(-i theta Z / 2)``."""
    e = np.exp(-0.5j * theta)
    return np.array([[e, 0], [0, np.conj(e)]], dtype=np.complex128)


def rzz(theta: float) -> np.ndarray:
    """ZZ coupling ``exp(-i theta Z⊗Z / 2)`` — what ``cnot . rz . cnot`` spells."""
    e = np.exp(-0.5j * theta)
    return np.diag([e, np.conj(e), np.conj(e), e])


def phase(lam: float) -> np.ndarray:
    """Diagonal phase gate ``diag(1, e^{i lam})``."""
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=np.complex128)


def controlled(u: np.ndarray, n_controls: int = 1) -> np.ndarray:
    """Build the controlled version of unitary ``u`` with the control(s) as
    the most significant qubits: ``|1..1><1..1| ⊗ u + rest ⊗ I``."""
    if n_controls < 1:
        raise ValueError("n_controls must be >= 1")
    dim = u.shape[0]
    total = dim * 2**n_controls
    out = np.eye(total, dtype=np.complex128)
    out[total - dim :, total - dim :] = u
    return out


CX = controlled(X)
CY = controlled(Y)
CZ = controlled(Z)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of the given matrices, left to right."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def is_unitary(u: np.ndarray, atol: float = 1e-10) -> bool:
    """Check ``U† U = I`` within tolerance."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol))


# ----------------------------------------------------------------------
# the canonical gate set
# ----------------------------------------------------------------------
#: Pseudo-gate name for an op carrying an explicit unitary payload
#: (generic ``apply`` calls and fused single-qubit products).
UNITARY = "unitary"


@dataclass(frozen=True)
class GateDef:
    """Registry entry describing one named gate.

    ``qubit_args``/``param_args`` name the operands (used for generated
    method signatures and error messages); the first ``n_controls``
    qubit operands are control qubits, the rest are targets. ``const``
    or ``builder`` supplies the matrix *on the targets only* —
    ``Op.matrix()`` extends it with the controls. ``diagonal`` states
    whether the full operator (controls included) is diagonal in the
    computational basis, which is what the fusion and sharded-dispatch
    layers key on.
    """

    name: str
    qubit_args: tuple[str, ...]
    param_args: tuple[str, ...] = ()
    n_controls: int = 0
    const: np.ndarray | None = None
    builder: Callable[..., np.ndarray] | None = None
    diagonal: bool = False

    @property
    def n_qubits(self) -> int:
        """Number of qubit operands (controls included)."""
        return len(self.qubit_args)

    @property
    def n_params(self) -> int:
        """Number of rotation-parameter operands."""
        return len(self.param_args)

    def signature(self) -> str:
        """Human-readable operand list, e.g. ``"c, t, theta"``."""
        return ", ".join(self.qubit_args + self.param_args)

    def target_matrix(self, params: Sequence[float]) -> np.ndarray:
        """The unitary on the target qubits for the given parameters."""
        if self.builder is not None:
            return self.builder(*params)
        assert self.const is not None
        return self.const


GATESET: dict[str, GateDef] = {}

#: Method installers (the three engines, ``QuantumBackend``,
#: ``QmpiComm``, ``BackendProxy``) notified on every registration; see
#: :func:`bind_gateset`.
_BINDERS: list[Callable[[GateDef], None]] = []


def register_gate(gd: GateDef) -> None:
    """Add a gate to the registry and install its convenience methods.

    The name must be a valid identifier and must not shadow an existing
    non-gate attribute of a bound class (``measure``, ``barrier``,
    ``send``, ...) — a collision would silently replace protocol methods
    with a gate shim.
    """
    if gd.name == UNITARY:
        raise ValueError(f"{UNITARY!r} is reserved for explicit-matrix ops")
    if gd.name in GATESET:
        raise ValueError(f"gate {gd.name!r} already registered")
    if not gd.name.isidentifier():
        raise ValueError(f"gate name {gd.name!r} is not a valid identifier")
    GATESET[gd.name] = gd
    try:
        for binder in _BINDERS:
            binder(gd)
    except Exception:
        del GATESET[gd.name]
        raise


def bind_gateset(binder: Callable[[GateDef], None]) -> None:
    """Subscribe a method installer to the gate registry.

    The installer is applied to every already-registered gate
    immediately and to each future :func:`register_gate`.
    """
    _BINDERS.append(binder)
    for gd in GATESET.values():
        binder(gd)


def install_gate_method(cls, gd: GateDef, method, doc: str) -> None:
    """Install a generated per-gate ``method`` as ``cls.<gd.name>``.

    The one place the shadowing rule lives: a gate may replace an
    earlier generated method (re-binding, subclass wrappers) but never
    a hand-written attribute of ``cls``.
    """
    existing = getattr(cls, gd.name, None)
    if existing is not None and not getattr(existing, "_gateset_shim", False):
        raise ValueError(
            f"gate name {gd.name!r} would shadow {cls.__name__}.{gd.name}"
        )
    method.__name__ = gd.name
    method.__qualname__ = f"{cls.__name__}.{gd.name}"
    method.__doc__ = doc
    method._gateset_shim = True
    setattr(cls, gd.name, method)


def measurement_prelude(engine, qubit: int, basis: str, control) -> None:
    """The gates ``measure_and_release(qubit, basis, control)`` stands for
    ahead of its Z measurement, on either engine: ``cnot(control, qubit)``
    if ``control`` is given, then ``h(qubit)`` if ``basis`` is ``"X"``."""
    if basis not in ("Z", "X"):
        raise ValueError(f'basis must be "Z" or "X", got {basis!r}')
    if control is not None:
        engine.cnot(control, qubit)
    if basis == "X":
        engine.h(qubit)


for _gd in [
    # single-qubit constants
    GateDef("h", ("q",), const=H),
    GateDef("x", ("q",), const=X),
    GateDef("y", ("q",), const=Y),
    GateDef("z", ("q",), const=Z, diagonal=True),
    GateDef("s", ("q",), const=S, diagonal=True),
    GateDef("sdg", ("q",), const=SDG, diagonal=True),
    GateDef("t", ("q",), const=T, diagonal=True),
    GateDef("tdg", ("q",), const=TDG, diagonal=True),
    # single-qubit rotations
    GateDef("rx", ("q",), ("theta",), builder=rx),
    GateDef("ry", ("q",), ("theta",), builder=ry),
    GateDef("rz", ("q",), ("theta",), builder=rz, diagonal=True),
    GateDef("phase", ("q",), ("lam",), builder=phase, diagonal=True),
    # two-qubit
    GateDef("swap", ("a", "b"), const=SWAP),
    GateDef("cnot", ("c", "t"), n_controls=1, const=X),
    GateDef("cz", ("c", "t"), n_controls=1, const=Z, diagonal=True),
    GateDef("crz", ("c", "t"), ("theta",), n_controls=1, builder=rz, diagonal=True),
    GateDef("cphase", ("c", "t"), ("lam",), n_controls=1, builder=phase, diagonal=True),
    GateDef("rzz", ("a", "b"), ("theta",), builder=rzz, diagonal=True),
    # three-qubit
    GateDef("toffoli", ("c1", "c2", "t"), n_controls=2, const=X),
]:
    GATESET[_gd.name] = _gd
