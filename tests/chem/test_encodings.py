"""JW and BK majorana masks vs the dense Fock-basis oracle; BK tree sets."""

import numpy as np
import pytest

from repro.chem import MajoranaMasks
from repro.chem.bravyi_kitaev import FenwickTree, bk_sets
from repro.chem.majorana_masks import EVEN_D_PATTERNS
from tests._fermion_oracle import annihilators, bk_beta, in_encoding, pauli_matrix, pauli_terms


@pytest.mark.parametrize("enc", ["jw", "bk"])
@pytest.mark.parametrize("n", range(1, 9))
def test_majoranas_match_oracle(enc, n):
    # c_j = a_j + a_j†, d_j = i(a_j† - a_j): equal as matrices, which
    # is stronger than the anticommutation relations alone.
    mm = MajoranaMasks(n, enc)
    for j, a in enumerate(annihilators(n)):
        c = in_encoding(a + a.T, enc)
        d = in_encoding(1j * (a.T - a), enc)
        assert np.array_equal(pauli_matrix(int(mm.cx[j]), int(mm.cz[j]), n), c)
        assert np.array_equal(pauli_matrix(int(mm.dx[j]), int(mm.dz[j]), n), d)


@pytest.mark.parametrize("enc", ["jw", "bk"])
def test_string_counts(enc):
    n = 4
    a = annihilators(n)
    mm = MajoranaMasks(n, enc)
    idx = [np.array([j]) for j in range(n)]

    def strings(op):
        return set(pauli_terms(in_encoding(op, enc)))

    def one(xz):
        return int(xz[0][0]), int(xz[1][0])

    hop = a[0].T @ a[2] + a[2].T @ a[0]
    pairs = {one(mm.pair_xz(0, idx[0], 1, idx[2])), one(mm.pair_xz(0, idx[2], 1, idx[0]))}
    assert strings(hop) == pairs and len(pairs) == 2
    number = a[1].T @ a[1]
    assert strings(number) == {(0, 0), one(mm.number_xz(idx[1]))}  # identity + Z̃_1
    body2 = a[0].T @ a[1].T @ a[2] @ a[3]
    assert len(strings(body2 + body2.T)) == len(EVEN_D_PATTERNS) == 8


def test_jw_locality_vs_bk_locality():
    # JW hopping between distant modes touches everything in between;
    # BK touches O(log n).
    n = 16
    lo, hi = np.array([0]), np.array([n - 1])

    def widest(enc):
        mm = MajoranaMasks(n, enc)
        supports = np.concatenate([mm.pair_support(0, lo, 1, hi), mm.pair_support(0, hi, 1, lo)])
        return int(mm.weight(supports).max())

    jw_w, bk_w = widest("jw"), widest("bk")
    assert jw_w == n
    assert bk_w <= 2 * int(np.ceil(np.log2(n))) + 2
    assert bk_w < jw_w


def _srl_beta(n):
    """Seeley-Richard-Love's recursive BK matrix, modes in ascending order:
    beta_1 = [1], beta_2m = [[beta_m, 0], [B, beta_m]] with B's last row ones."""
    if n == 1:
        return np.ones((1, 1), dtype=np.int64)
    half = _srl_beta(n // 2)
    lower = np.zeros_like(half)
    lower[-1] = 1
    return np.block([[half, np.zeros_like(half)], [lower, half]])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bk_beta_matches_recursive_construction(n):
    assert np.array_equal(bk_beta(n), _srl_beta(n))


def test_fenwick_tree_structure():
    t = FenwickTree(4)
    assert t.parent[3] == -1  # root
    assert t.parent[1] == 3 and t.parent[0] == 1 and t.parent[2] == 3
    assert sorted(t.children[3]) == [1, 2]
    U, Fl, P, R = bk_sets(2, 4)
    assert U == [3]
    assert Fl == []
    assert P == [1]
    assert R == [1]
    U, Fl, P, R = bk_sets(3, 4)
    assert U == []
    assert sorted(Fl) == [1, 2]
    assert sorted(P) == [1, 2]
    assert R == []


def test_parity_sets_cover_prefix_exactly():
    # subtree(c) unions over P(j) must equal {0..j-1} disjointly
    for n in (3, 4, 7, 8, 13):
        t = FenwickTree(n)

        def subtree(v):
            out = {v}
            for c in t.children[v]:
                out |= subtree(c)
            return out

        for j in range(n):
            cover = set()
            for node in t.parity_set(j):
                s = subtree(node)
                assert not (cover & s), "parity subtrees must be disjoint"
                cover |= s
            assert cover == set(range(j)), (n, j, cover)
