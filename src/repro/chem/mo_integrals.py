"""AO -> MO transforms and the molecular Hamiltonian container.

``MolecularHamiltonian`` is the second-quantized Hamiltonian

    H = E_nn + sum_pq h_pq a†_p a_q
             + 1/2 sum_pqrs <pq|rs> a†_p a†_q a_r a_s   (physicists')

over *spin orbitals* (even index = alpha, odd = beta of spatial p//2).
Spatial tensors are stored (n^2 / n^4); spin structure is applied
analytically where needed so the 64-spin-orbital ring never materializes
a 64^4 tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scf import RHFResult

__all__ = ["MolecularHamiltonian", "build_hamiltonian"]


@dataclass
class MolecularHamiltonian:
    """MO-basis Hamiltonian data.

    ``hcore``: (n, n) spatial one-body integrals h_pq.
    ``eri_chem``: (n, n, n, n) spatial (pq|rs), chemists' notation.
    ``constant``: nuclear repulsion.
    """

    hcore: np.ndarray
    eri_chem: np.ndarray
    constant: float

    @property
    def n_spatial(self) -> int:
        return self.hcore.shape[0]

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * self.n_spatial


def build_hamiltonian(rhf: RHFResult) -> MolecularHamiltonian:
    """Transform the converged RHF AO integrals into the MO basis."""
    C = rhf.mo_coeff
    hcore_mo = C.T @ rhf.hcore @ C
    # Four-index transform, O(n^5) via staged einsums.
    eri = rhf.eri
    eri = np.einsum("pi,pqrs->iqrs", C, eri, optimize=True)
    eri = np.einsum("qj,iqrs->ijrs", C, eri, optimize=True)
    eri = np.einsum("rk,ijrs->ijks", C, eri, optimize=True)
    eri = np.einsum("sl,ijks->ijkl", C, eri, optimize=True)
    return MolecularHamiltonian(hcore_mo, eri, rhf.nuclear_repulsion)
