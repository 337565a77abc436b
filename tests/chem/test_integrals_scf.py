"""Integrals vs Szabo–Ostlund references; RHF energies; geometry."""

import numpy as np
import pytest

from repro.chem import (
    basis_for,
    boys_f0,
    build_hamiltonian,
    eri_tensor,
    h2,
    hydrogen_chain,
    hydrogen_ring,
    kinetic_matrix,
    nuclear_matrix,
    overlap_matrix,
    run_rhf,
)
from tests._fermion_oracle import fock_hamiltonian, popcount


@pytest.fixture(scope="module")
def h2_integrals():
    mol = h2(1.4)
    b = basis_for(mol)
    return (
        mol,
        overlap_matrix(b),
        kinetic_matrix(b),
        nuclear_matrix(b, mol),
        eri_tensor(b),
    )


def test_szabo_ostlund_h2_values(h2_integrals):
    """Table 3.5 / App. B reference values for H2/STO-3G at R = 1.4 a0."""
    mol, S, T, V, eri = h2_integrals
    assert S[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert S[0, 1] == pytest.approx(0.6593, abs=2e-4)
    assert T[0, 0] == pytest.approx(0.7600, abs=2e-4)
    assert T[0, 1] == pytest.approx(0.2365, abs=2e-4)
    assert V[0, 0] == pytest.approx(-1.8804, abs=3e-4)
    assert eri[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-4)
    assert eri[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-4)
    assert eri[0, 1, 0, 1] == pytest.approx(0.2970, abs=2e-4)
    assert eri[0, 0, 0, 1] == pytest.approx(0.4441, abs=2e-4)


def test_eri_eightfold_symmetry(h2_integrals):
    _, _, _, _, eri = h2_integrals
    n = eri.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = eri[i, j, k, l]
                    for perm in (
                        eri[j, i, k, l],
                        eri[i, j, l, k],
                        eri[k, l, i, j],
                        eri[l, k, j, i],
                    ):
                        assert v == pytest.approx(perm, abs=1e-12)


def test_boys_limits():
    assert boys_f0(np.array([0.0]))[0] == pytest.approx(1.0)
    assert boys_f0(np.array([1e-14]))[0] == pytest.approx(1.0, abs=1e-9)
    x = np.array([30.0])
    assert boys_f0(x)[0] == pytest.approx(0.5 * np.sqrt(np.pi / 30.0), rel=1e-6)


def test_h2_rhf_energy():
    r = run_rhf(h2(1.4))
    assert r.converged
    assert r.energy == pytest.approx(-1.1167, abs=2e-4)
    assert r.mo_energies[0] == pytest.approx(-0.5782, abs=2e-3)
    assert r.mo_energies[1] == pytest.approx(0.6703, abs=2e-3)
    assert r.nuclear_repulsion == pytest.approx(1.0 / 1.4)


def test_h4_ring_rhf_converges():
    r = run_rhf(hydrogen_ring(4, 1.8))
    assert r.converged
    assert -3.0 < r.energy < -1.0


def test_rhf_rejects_odd_electrons():
    mol = hydrogen_chain(3, 1.8)
    with pytest.raises(ValueError):
        run_rhf(mol)


def test_geometry_builders():
    ring = hydrogen_ring(6, 2.0)
    d = np.linalg.norm(ring.coords[0] - ring.coords[1])
    assert d == pytest.approx(2.0)
    chain = hydrogen_chain(3, 1.5)
    assert np.linalg.norm(chain.coords[2] - chain.coords[1]) == pytest.approx(1.5)
    assert ring.nuclear_repulsion() > 0
    with pytest.raises(ValueError):
        hydrogen_ring(1)


def test_basis_rejects_non_hydrogen():
    from repro.chem.geometry import Molecule

    mol = Molecule([2.0], [[0, 0, 0]])
    with pytest.raises(ValueError):
        basis_for(mol)


def test_mo_hamiltonian_hermiticity():
    ham = build_hamiltonian(run_rhf(h2(1.4)))
    assert np.allclose(ham.hcore, ham.hcore.T)


@pytest.mark.parametrize("mol", [h2(1.4), hydrogen_ring(4, 1.8)], ids=["H2", "H4"])
def test_fock_hamiltonian_conserves_each_spin(mol):
    # Spin orbital 2p + sigma. The commutators check the oracle's own
    # spin-orbital loops: a term that crossed spins would move an electron
    # between the alpha and beta counts. H == H.T checks the symmetry of
    # the MO integrals themselves.
    H = fock_hamiltonian(build_hamiltonian(run_rhf(mol)))
    b = np.arange(len(H))
    for spin_mask in (0x5555, 0xAAAA):
        N = np.diag(popcount(b & spin_mask).astype(float))
        assert np.abs(H @ N - N @ H).max() < 1e-10
    assert np.allclose(H, H.T)
