"""Vectorized majorana bitmasks for large-system support analysis.

For up to 64 spin orbitals (the paper's H32 ring), a Pauli string's x/z
masks fit one machine word each. Per mode j we precompute the masks of the
majorana pair (c_j, d_j) under JW or BK; products of majoranas then reduce
to XORs and supports to ``bitwise_count`` — the whole Fig. 5/7 pipeline
runs as a handful of NumPy array passes over millions of terms, no
symbolic algebra (guide rule: vectorize, never loop over amplitudes).

The per-term Pauli-string expansion rule (checked in the tests against
the Pauli strings of a dense Fock-basis Hamiltonian):

* ``a†_p a_q + h.c.`` (p != q) -> 2 strings: ``c_p d_q`` and ``c_q d_p``
  (the cc/dd parts cancel since distinct majoranas anticommute);
* ``a†_p a_p``                 -> 1 non-identity string: ``c_p d_p``;
* 4 distinct modes             -> 8 strings: majorana choices with an
  even number of d's;
* one shared mode m            -> 4 strings: {1, Z̃_m} x {c_u d_v, c_v d_u};
* two shared modes             -> 3 strings: Z̃_m, Z̃_u, Z̃_m Z̃_u,

with ``Z̃_m = i c_m d_m`` the encoded number-operator string.
"""

from __future__ import annotations

import numpy as np

from .bravyi_kitaev import bk_sets

__all__ = ["MajoranaMasks", "EVEN_D_PATTERNS"]

#: The 8 majorana choice patterns (0=c, 1=d) with an even number of d's.
EVEN_D_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    (a, b, c, d)
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
    for d in (0, 1)
    if (a + b + c + d) % 2 == 0
)


class MajoranaMasks:
    """Per-mode (c_j, d_j) x/z masks for one encoding on n modes."""

    def __init__(self, n_modes: int, encoding: str):
        if n_modes > 64:
            raise ValueError("mask fast path supports at most 64 modes")
        encoding = encoding.lower()
        if encoding not in ("jw", "bk"):
            raise ValueError(f"unknown encoding {encoding!r} (use 'jw' or 'bk')")
        self.n_modes = n_modes
        self.encoding = encoding
        cx = np.zeros(n_modes, dtype=np.uint64)
        cz = np.zeros(n_modes, dtype=np.uint64)
        dx = np.zeros(n_modes, dtype=np.uint64)
        dz = np.zeros(n_modes, dtype=np.uint64)
        for j in range(n_modes):
            if encoding == "jw":
                low = (1 << j) - 1
                cx[j] = 1 << j
                cz[j] = low
                dx[j] = 1 << j
                dz[j] = low | (1 << j)
            else:
                U, F, P, R = bk_sets(j, n_modes)
                um = _mask(U) | (1 << j)
                cx[j] = um
                cz[j] = _mask(P)
                dx[j] = um
                dz[j] = _mask(R) | (1 << j)
        self.cx, self.cz, self.dx, self.dz = cx, cz, dx, dz

    # -- mask combinators (all vectorized over index arrays) ---------------
    def pair_xz(self, kind_a: int, a: np.ndarray, kind_b: int, b: np.ndarray):
        """x/z masks of the product (majorana kind_a on a) * (kind_b on b)."""
        xa = (self.dx if kind_a else self.cx)[a]
        za = (self.dz if kind_a else self.cz)[a]
        xb = (self.dx if kind_b else self.cx)[b]
        zb = (self.dz if kind_b else self.cz)[b]
        return xa ^ xb, za ^ zb

    def pair_support(self, kind_a: int, a: np.ndarray, kind_b: int, b: np.ndarray) -> np.ndarray:
        x, z = self.pair_xz(kind_a, a, kind_b, b)
        return x | z

    def number_xz(self, m: np.ndarray):
        """x/z masks of Z̃_m = i c_m d_m (the encoded number-op string)."""
        return self.cx[m] ^ self.dx[m], self.cz[m] ^ self.dz[m]

    def quad_support(self, pattern, p, q, r, s) -> np.ndarray:
        """Support of the 4-majorana product with the given c/d pattern."""
        x = np.zeros(len(p), dtype=np.uint64)
        z = np.zeros(len(p), dtype=np.uint64)
        for kind, idx in zip(pattern, (p, q, r, s)):
            x ^= (self.dx if kind else self.cx)[idx]
            z ^= (self.dz if kind else self.cz)[idx]
        return x | z

    def weight(self, support: np.ndarray) -> np.ndarray:
        return np.bitwise_count(support)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m
