"""Fig. 5 — per-term qubit counts of the encoded molecular Hamiltonian.

For every term of the second-quantized Hamiltonian (Eq. (1) form after
the encoding), compute how many qubits the resulting Pauli strings act
on, and histogram the counts for Jordan–Wigner vs Bravyi–Kitaev.

Term-counting convention: one-body terms are unique pairs p <= q expanded
over spin; two-body terms are the unique chemist integrals (pq|rs) under
8-fold permutation symmetry expanded over the 4 spin channels; each is
expanded into its distinct Pauli strings via the majorana rules of
:mod:`majorana_masks`. Strings are deduplicated within a term group, not
globally, and a string whose coefficients cancel across groups is still
counted: the supports cover every nonzero string of the summed
Hamiltonian, plus those few cancelling ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .majorana_masks import EVEN_D_PATTERNS, MajoranaMasks
from .mo_integrals import MolecularHamiltonian

__all__ = ["support_histogram", "iter_support_masks", "SupportBatch"]


@dataclass
class SupportBatch:
    """A batch of Pauli-string support masks (uint64 array)."""

    masks: np.ndarray
    origin: str  # 'one_body' | 'two_body:<case>'


def _unique_quadruples(eri: np.ndarray, tol: float):
    """Unique (p,q,r,s) under 8-fold symmetry with |(pq|rs)| > tol."""
    n = eri.shape[0]
    p_, q_ = np.tril_indices(n)  # p >= q
    pair_idx = np.arange(len(p_))
    # pairs of pairs with ij >= kl
    a_, b_ = np.tril_indices(len(pair_idx))
    P = p_[a_]
    Q = q_[a_]
    R = p_[b_]
    S = q_[b_]
    vals = eri[P, Q, R, S]
    keep = np.abs(vals) > tol
    return P[keep], Q[keep], R[keep], S[keep]


def iter_support_masks(
    ham: MolecularHamiltonian, encoding: str, tol: float = 1e-10
):
    """Yield :class:`SupportBatch` for every term group of ``ham``."""
    n_sp = ham.n_spatial
    n_so = ham.n_spin_orbitals
    mm = MajoranaMasks(n_so, encoding)

    # ---- one-body: pairs p <= q over both spins -------------------------
    pu, qu = np.triu_indices(n_sp)
    vals = ham.hcore[pu, qu]
    keep = np.abs(vals) > tol
    pu, qu = pu[keep], qu[keep]
    for spin in (0, 1):
        P = (2 * pu + spin).astype(np.int64)
        Q = (2 * qu + spin).astype(np.int64)
        diag = P == Q
        if np.any(diag):
            yield SupportBatch(
                mm.pair_support(0, P[diag], 1, Q[diag]), "one_body:number"
            )
        off = ~diag
        if np.any(off):
            # a†p aq + h.c. = (i/2)(c_p d_q + c_q d_p): the cc/dd parts
            # cancel because distinct majoranas anticommute.
            yield SupportBatch(mm.pair_support(0, P[off], 1, Q[off]), "one_body:cd")
            yield SupportBatch(mm.pair_support(0, Q[off], 1, P[off]), "one_body:dc")

    # ---- two-body: unique chemist integrals x 4 spin channels -----------
    p, q, r, s = _unique_quadruples(ham.eri_chem, tol)
    for sigma in (0, 1):
        for tau in (0, 1):
            # a†_{p sigma} a†_{r tau} a_{s tau} a_{q sigma}
            Pc = (2 * p + sigma).astype(np.int64)
            Rc = (2 * r + tau).astype(np.int64)
            Sa = (2 * s + tau).astype(np.int64)
            Qa = (2 * q + sigma).astype(np.int64)
            valid = (Pc != Rc) & (Sa != Qa)
            Pc, Rc, Sa, Qa = Pc[valid], Rc[valid], Sa[valid], Qa[valid]
            if len(Pc) == 0:
                continue
            in_ann_P = (Pc == Sa) | (Pc == Qa)
            in_ann_R = (Rc == Sa) | (Rc == Qa)
            ncommon = in_ann_P.astype(int) + in_ann_R.astype(int)

            # case 0: four distinct modes -> 8 even-d strings
            c0 = ncommon == 0
            if np.any(c0):
                for pattern in EVEN_D_PATTERNS:
                    yield SupportBatch(
                        mm.quad_support(pattern, Pc[c0], Rc[c0], Sa[c0], Qa[c0]),
                        "two_body:distinct",
                    )
            # case 1: one shared mode m; hopping on (u, v). The hopping
            # expands into the cross pairs c_u d_v / c_v d_u (see the
            # one-body comment), each alone and dressed with Z̃_m.
            c1 = ncommon == 1
            if np.any(c1):
                P1, R1, S1, Q1 = Pc[c1], Rc[c1], Sa[c1], Qa[c1]
                m = np.where(in_ann_P[c1], P1, R1)
                u = np.where(in_ann_P[c1], R1, P1)  # the unshared creation
                v = np.where((S1 != m), S1, Q1)  # the unshared annihilation
                zx, zz = mm.number_xz(m)
                for a, b in ((u, v), (v, u)):
                    x, z = mm.pair_xz(0, a, 1, b)
                    yield SupportBatch(x | z, "two_body:hopZ0")
                    yield SupportBatch((x ^ zx) | (z ^ zz), "two_body:hopZ1")
            # case 2: both shared -> number-number
            c2 = ncommon == 2
            if np.any(c2):
                m1, m2 = Pc[c2], Rc[c2]
                x1, z1 = mm.number_xz(m1)
                x2, z2 = mm.number_xz(m2)
                yield SupportBatch(x1 | z1, "two_body:nn")
                yield SupportBatch(x2 | z2, "two_body:nn")
                yield SupportBatch((x1 ^ x2) | (z1 ^ z2), "two_body:nn")


def support_histogram(
    ham: MolecularHamiltonian, encoding: str, tol: float = 1e-10
) -> np.ndarray:
    """Histogram of Pauli-string weights: index w = number of strings
    acting on exactly w qubits (Fig. 5's series for one encoding)."""
    n_so = ham.n_spin_orbitals
    counts = np.zeros(n_so + 1, dtype=np.int64)
    for batch in iter_support_masks(ham, encoding, tol):
        w = np.bitwise_count(batch.masks)
        counts += np.bincount(w.astype(np.int64), minlength=n_so + 1)
    return counts
