"""H2 energies on the oracle Hamiltonian; Eq. (1)'s Trotter circuit vs expm."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.chem import build_hamiltonian, h2, run_rhf
from repro.qmpi import qmpi_run
from tests._fermion_oracle import basis_map, fock_hamiltonian, in_encoding, pauli_terms

HF = 0b0011  # spin orbitals 0 and 1 (the bonding orbital, both spins) occupied


@pytest.fixture(scope="module")
def h2_fock():
    rhf = run_rhf(h2(1.4))
    return rhf, fock_hamiltonian(build_hamiltonian(rhf))


def test_h2_fci_energy(h2_fock):
    _, H = h2_fock
    idx = [i for i in range(len(H)) if bin(i).count("1") == 2]
    e_fci = np.linalg.eigvalsh(H[np.ix_(idx, idx)])[0]
    assert e_fci == pytest.approx(-1.13728, abs=5e-4)


def test_hf_expectation_matches_rhf(h2_fock):
    rhf, H = h2_fock
    assert H[HF, HF] == pytest.approx(rhf.energy, abs=1e-8)


def _rotate(qc, q, x, z, theta):
    """exp(-i theta/2 P(x, z)): basis change, CNOT parity ladder, rz, uncompute."""
    support = [i for i in range(len(q)) if (x | z) >> i & 1]
    ys = [i for i in support if x >> i & z >> i & 1]
    xs = [i for i in support if x >> i & 1]
    ladder = list(zip(support, support[1:]))
    for i in ys:
        qc.sdg(q[i])
    for i in xs:
        qc.h(q[i])
    for c, t in ladder:
        qc.cnot(q[c], q[t])
    qc.rz(q[support[-1]], theta)
    for c, t in reversed(ladder):
        qc.cnot(q[c], q[t])
    for i in xs:
        qc.h(q[i])
    for i in ys:
        qc.s(q[i])


@pytest.mark.parametrize("enc", ["jw", "bk"])
def test_trotter_vs_exact(h2_fock, enc):
    _, H = h2_fock
    H_enc = in_encoding(H, enc)
    n = len(H).bit_length() - 1
    terms = sorted((x, z, c.real) for (x, z), c in pauli_terms(H_enc).items() if x | z)
    start = int(basis_map(n, enc)[HF])
    t, n_steps = 0.08, 48

    def prog(qc):
        q = qc.alloc_qmem(n)
        for i in range(n):
            if start >> i & 1:
                qc.x(q[i])
        for _ in range(n_steps):
            for x, z, c in terms:
                _rotate(qc, q, x, z, 2.0 * c * t / n_steps)
        return list(q)

    w = qmpi_run(1, prog, seed=0)
    vec = w.backend.statevector(list(reversed(w.results[0])))  # qubit 0 = LSB
    ref = np.zeros(len(H), dtype=complex)
    ref[start] = 1.0
    expect = expm(-1j * t * H_enc) @ ref
    assert abs(np.vdot(expect, vec)) ** 2 >= 0.9999
