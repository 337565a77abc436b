"""Bravyi–Kitaev index sets via the Fenwick-tree construction.

Each qubit stores the parity of a subtree of modes; occupation and parity
are then both O(log n) look-ups, so every transformed ladder operator
touches O(log n) qubits — the concentration at low weights the paper's
Fig. 5 shows against Jordan–Wigner.

Set definitions follow Seeley, Richard & Love (J. Chem. Phys. 137, 224109):

* update set ``U(j)`` — ancestors of j in the Fenwick tree,
* flip set ``F(j)`` — children of j,
* parity set ``P(j)`` — disjoint subtrees covering modes ``< j``,
* remainder set ``R(j) = P(j) \\ F(j)``.

Majoranas: ``c_j = X_{U(j)} X_j Z_{P(j)}``, ``d_j = X_{U(j)} Y_j Z_{R(j)}``,
built as x/z bitmasks by :class:`~repro.chem.majorana_masks.MajoranaMasks`.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["FenwickTree", "bk_sets"]


class FenwickTree:
    """The BK binary tree over ``n`` modes (root = n-1)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one mode")
        self.n = n
        self.parent = [-1] * n
        self.children: list[list[int]] = [[] for _ in range(n)]

        def build(left: int, right: int) -> None:
            if left >= right:
                return
            mid = (left + right) >> 1
            self.parent[mid] = right
            self.children[right].append(mid)
            build(left, mid)
            build(mid + 1, right)

        build(0, n - 1)
        for c in self.children:
            c.sort()

    def ancestors(self, j: int) -> list[int]:
        out = []
        p = self.parent[j]
        while p != -1:
            out.append(p)
            p = self.parent[p]
        return out

    def parity_set(self, j: int) -> list[int]:
        """Disjoint subtree roots covering exactly the modes < j.

        Children of j (all < j) plus, while climbing to the root, every
        smaller child of each ancestor. Each node is the maximum of its
        subtree in this construction, so ``c < j`` iff subtree(c) ⊂ [0, j).
        """
        out = [c for c in self.children[j] if c < j]
        node = j
        p = self.parent[node]
        while p != -1:
            out.extend(c for c in self.children[p] if c < j and c < node)
            node = p
            p = self.parent[p]
        return sorted(set(out))


@lru_cache(maxsize=None)
def _tree(n: int) -> FenwickTree:
    return FenwickTree(n)


def bk_sets(j: int, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(U, F, P, R) index sets for mode j of an n-mode register."""
    t = _tree(n)
    U = t.ancestors(j)
    F = list(t.children[j])
    P = t.parity_set(j)
    R = sorted(set(P) - set(F))
    return U, F, P, R
