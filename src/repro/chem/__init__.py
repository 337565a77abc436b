"""Quantum-chemistry substrate for the paper's §7.3 workloads.

Pipeline: geometry -> STO-3G basis -> analytic integrals -> RHF ->
MO-basis second-quantized Hamiltonian -> JW/BK majorana bitmasks ->
Pauli-string supports: per-term qubit counts (Fig. 5) and distributed
EPR costs per Trotter step (Fig. 7).
"""

from .basis import ContractedGaussian, basis_for, sto3g_hydrogen
from .bravyi_kitaev import FenwickTree, bk_sets
from .epr_cost import TrotterEprResult, epr_sweep, trotter_step_epr
from .geometry import Molecule, h2, hydrogen_chain, hydrogen_ring
from .integrals import boys_f0, eri_tensor, kinetic_matrix, nuclear_matrix, overlap_matrix
from .majorana_masks import MajoranaMasks
from .mo_integrals import MolecularHamiltonian, build_hamiltonian
from .placement import block_placement, nodes_touched, round_robin_placement
from .scf import RHFResult, run_rhf
from .weights import support_histogram

__all__ = [
    "Molecule",
    "hydrogen_ring",
    "hydrogen_chain",
    "h2",
    "basis_for",
    "sto3g_hydrogen",
    "ContractedGaussian",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_matrix",
    "eri_tensor",
    "boys_f0",
    "run_rhf",
    "RHFResult",
    "MolecularHamiltonian",
    "build_hamiltonian",
    "bk_sets",
    "FenwickTree",
    "MajoranaMasks",
    "support_histogram",
    "block_placement",
    "round_robin_placement",
    "nodes_touched",
    "trotter_step_epr",
    "epr_sweep",
    "TrotterEprResult",
]
