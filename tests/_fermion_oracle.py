"""Dense Fock-basis oracle for the JW / BK encodings, sharing no code with
``MajoranaMasks`` or ``bk_sets`` (``tests/chem/test_fermion_oracle.py``
guards its imports): H over the occupation basis from the MO integrals,
the BK basis permutation from ``FenwickTree.children``, and Pauli
coefficients from a Walsh-Hadamard transform.

Bit ``i`` of a basis index is mode / qubit ``i``; under JW the qubit basis
is the occupation basis. A Pauli string is a bitmask pair ``(x, z)``,
``P(x, z) = i^{|x&z|} X^x Z^z``: a qubit in both masks carries ``Y``.
"""

import numpy as np

from repro.chem import FenwickTree

I_POW = np.array([1, 1j, -1, -1j])  # i^k, exact


def popcount(a) -> np.ndarray:
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


def annihilators(n: int) -> list[np.ndarray]:
    """Dense ``a_j`` for j < n, signed by the parity of the occupied modes below j."""
    b = np.arange(1 << n)
    out = []
    for j in range(n):
        occ = b[(b >> j) & 1 == 1]
        a = np.zeros((1 << n, 1 << n))
        a[occ ^ (1 << j), occ] = (-1.0) ** popcount(occ & ((1 << j) - 1))
        out.append(a)
    return out


def fock_hamiltonian(ham) -> np.ndarray:
    """``E_nn + sum h_PQ a†_P a_Q + 1/2 sum (PQ|RS) a†_P a†_R a_S a_Q``.

    Spin orbital ``P = 2p + sigma``; integrals vanish across spin.
    """
    n = ham.n_spin_orbitals
    h = np.zeros((n, n))
    g = np.zeros((n, n, n, n))
    for P in range(n):
        for Q in range(n):
            if P % 2 != Q % 2:
                continue
            h[P, Q] = ham.hcore[P // 2, Q // 2]
            for R in range(n):
                for S in range(n):
                    if R % 2 == S % 2:
                        g[P, Q, R, S] = ham.eri_chem[P // 2, Q // 2, R // 2, S // 2]
    a = annihilators(n)
    dim = 1 << n
    E = np.array([[a[p].T @ a[q] for q in range(n)] for p in range(n)])  # a†_p a_q
    # a†_P a†_R a_S a_Q = E_PQ E_RS - delta_QR E_PS
    GE = np.tensordot(g, E, axes=([2, 3], [0, 1]))
    EGE = E.transpose(2, 0, 1, 3).reshape(dim, -1) @ GE.reshape(-1, dim)
    k = np.trace(g, axis1=1, axis2=2)
    one = np.tensordot(h, E, axes=2)
    return ham.constant * np.eye(dim) + one + 0.5 * (EGE - np.tensordot(k, E, axes=2))


def bk_beta(n: int) -> np.ndarray:
    """``beta[i, j] = 1`` iff mode j lies in subtree(i) of the BK tree."""
    children = FenwickTree(n).children
    beta = np.eye(n, dtype=np.int64)
    for i in range(n):  # children are smaller, so their rows are complete
        for c in children[i]:
            beta[i] |= beta[c]
    return beta


def basis_map(n: int, encoding: str) -> np.ndarray:
    """Qubit basis index of each occupation vector b: b (JW), beta.b mod 2 (BK)."""
    b = np.arange(1 << n)
    if encoding == "jw":
        return b
    assert encoding == "bk", encoding
    bits = (b[:, None] >> np.arange(n)) & 1
    return ((bits @ bk_beta(n).T) % 2) @ (1 << np.arange(n))


def in_encoding(M: np.ndarray, encoding: str) -> np.ndarray:
    """An occupation-basis operator written in the encoding's qubit basis."""
    img = basis_map(len(M).bit_length() - 1, encoding)
    out = np.empty_like(M)
    out[np.ix_(img, img)] = M
    return out


def pauli_matrix(x: int, z: int, n: int) -> np.ndarray:
    b = np.arange(1 << n)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[b ^ x, b] = I_POW[popcount(x & z) % 4] * (-1.0) ** popcount(b & z)
    return m


def pauli_terms(M: np.ndarray, tol: float = 1e-10) -> dict[tuple[int, int], complex]:
    """``{(x, z): c}`` with ``M = sum c P(x, z)`` over the nonzero strings.

    With ``V[x, b] = M[b^x, b]``, ``c = V . Hadamard / 2^n . conj(i^{|x&z|})``.
    """
    b = np.arange(len(M))
    V = M[b[None, :] ^ b[:, None], b[None, :]]
    overlap = popcount(b[:, None] & b[None, :])
    c = V @ (-1.0) ** overlap / len(M) * I_POW[-overlap % 4]
    return {(int(x), int(z)): c[x, z] for x, z in zip(*np.nonzero(np.abs(c) > tol))}
