"""Mask fast path vs the dense Fock-basis oracle; Fig. 5 histograms; Fig. 7 costs."""

import numpy as np
import pytest

from repro.chem import (
    MajoranaMasks,
    block_placement,
    build_hamiltonian,
    epr_sweep,
    h2,
    hydrogen_ring,
    nodes_touched,
    round_robin_placement,
    run_rhf,
    support_histogram,
    trotter_step_epr,
)
from repro.chem.majorana_masks import EVEN_D_PATTERNS
from repro.chem.weights import iter_support_masks
from tests._fermion_oracle import annihilators, fock_hamiltonian, in_encoding, pauli_terms

N_MODES = 8
HOP_MODES = 10  # the pair (2, 9) spans the root of the 10-mode BK tree


@pytest.fixture(scope="module")
def h4_ham():
    return build_hamiltonian(run_rhf(hydrogen_ring(4, 1.8)))


@pytest.fixture(scope="module")
def ladder():
    a = annihilators(N_MODES)
    return a, [m.T for m in a]


@pytest.fixture(scope="module")
def hop_ladder():
    a = annihilators(HOP_MODES)
    return a, [m.T for m in a]


def _oracle_supports(op, enc):
    """Sorted supports of the nonzero non-identity strings of ``op + h.c.``."""
    terms = pauli_terms(in_encoding(op + op.T, enc))
    return sorted(x | z for x, z in terms if x | z)


def _one(*modes):
    return [np.array([m]) for m in modes]


@pytest.mark.parametrize("enc", ["jw", "bk"])
def test_quad_supports_match_oracle(enc, ladder, rng):
    a, ad = ladder
    mm = MajoranaMasks(N_MODES, enc)
    for _ in range(15):
        p, r, s, q = (int(i) for i in rng.choice(N_MODES, 4, replace=False))
        oracle = _oracle_supports(ad[p] @ ad[r] @ a[s] @ a[q], enc)
        fast = sorted(int(mm.quad_support(pat, *_one(p, r, s, q))[0]) for pat in EVEN_D_PATTERNS)
        assert oracle == fast


@pytest.mark.parametrize("enc", ["jw", "bk"])
def test_shared_mode_supports_match_oracle(enc, ladder, rng):
    a, ad = ladder
    mm = MajoranaMasks(N_MODES, enc)
    for _ in range(15):
        m_, u, v = (int(i) for i in rng.choice(N_MODES, 3, replace=False))
        oracle = _oracle_supports(ad[m_] @ ad[u] @ a[m_] @ a[v], enc)
        ma, ua, va = _one(m_, u, v)
        zx, zz = mm.number_xz(ma)
        fast = []
        for x_, y_ in ((ua, va), (va, ua)):
            x, z = mm.pair_xz(0, x_, 1, y_)
            fast += [int((x | z)[0]), int(((x ^ zx) | (z ^ zz))[0])]
        assert oracle == sorted(fast)


@pytest.mark.parametrize("enc", ["jw", "bk"])
def test_hopping_supports_match_oracle(enc, hop_ladder):
    a, ad = hop_ladder
    mm = MajoranaMasks(HOP_MODES, enc)
    for p, q in ((0, 5), (2, 9), (3, 4)):
        fast = sorted(
            [
                int(mm.pair_support(0, *_one(p), 1, *_one(q))[0]),
                int(mm.pair_support(0, *_one(q), 1, *_one(p))[0]),
            ]
        )
        assert _oracle_supports(ad[p] @ a[q], enc) == fast


def _hamiltonian_supports(ham, enc):
    """(oracle supports of the summed Hamiltonian, mask supports), as sets."""
    terms = pauli_terms(in_encoding(fock_hamiltonian(ham), enc))
    oracle = {x | z for x, z in terms if x | z}
    masks = {int(m) for batch in iter_support_masks(ham, enc) for m in batch.masks}
    return oracle, masks


@pytest.mark.parametrize("enc, n_supports", [("jw", 11), ("bk", 10)])
def test_h2_mask_supports_equal_oracle_strings(enc, n_supports):
    oracle, masks = _hamiltonian_supports(build_hamiltonian(run_rhf(h2(1.4))), enc)
    assert oracle == masks
    assert len(oracle) == n_supports


@pytest.mark.parametrize("enc, n_masks", [("jw", 72), ("bk", 74)])
def test_h4_oracle_strings_within_mask_supports(enc, n_masks, h4_ham):
    # The per-group expansion also lists strings whose coefficients
    # cancel once every term group is summed.
    oracle, masks = _hamiltonian_supports(h4_ham, enc)
    assert oracle <= masks
    assert (len(oracle), len(masks)) == (70, n_masks)


def test_masks_validate_inputs():
    with pytest.raises(ValueError):
        MajoranaMasks(65, "jw")
    with pytest.raises(ValueError):
        MajoranaMasks(4, "xyz")


def test_h2_histograms():
    ham = build_hamiltonian(run_rhf(h2(1.4)))
    for enc in ("jw", "bk"):
        counts = support_histogram(ham, enc)
        assert counts.sum() > 0
        assert counts[0] == 0  # identities excluded


def test_fig5_shape_jw_heavy_tail_bk_concentrated(h4_ham):
    jw = support_histogram(h4_ham, "jw")
    bk = support_histogram(h4_ham, "bk")
    assert jw.sum() == bk.sum()  # same term-count convention
    n_so = h4_ham.n_spin_orbitals
    jw_max = max(i for i, c in enumerate(jw) if c)
    bk_max = max(i for i, c in enumerate(bk) if c)
    assert jw_max == n_so  # JW strings reach the full register
    assert bk_max < n_so  # BK stays strictly narrower
    # mean weight comparison is the figure's visual message at scale
    mean = lambda h: sum(i * c for i, c in enumerate(h)) / h.sum()
    assert mean(jw) > 0 and mean(bk) > 0


def test_fig7_invariants(h4_ham):
    res = epr_sweep(
        h4_ham, node_counts=(1, 2, 4, 8), encodings=("bk", "jw"), methods=("inplace", "constdepth")
    )
    by = {(r.encoding, r.method, r.n_nodes): r.epr_pairs for r in res}
    for enc in ("bk", "jw"):
        assert by[(enc, "inplace", 1)] == 0
        assert by[(enc, "constdepth", 1)] == 0
        for n in (2, 4, 8):
            # const-depth = exactly half of in-place (2(m-1) vs m-1 per term)
            assert by[(enc, "inplace", n)] == 2 * by[(enc, "constdepth", n)]
        # more nodes -> more (or equal) communication
        assert by[(enc, "inplace", 2)] <= by[(enc, "inplace", 4)] <= by[(enc, "inplace", 8)]


def test_placements():
    bp = block_placement(8, 4)
    assert bp[0] == 0b11 and bp[3] == 0b11000000
    rr = round_robin_placement(8, 4)
    assert rr[0] == 0b00010001
    with pytest.raises(ValueError):
        block_placement(10, 4)
    sup = np.array([0b11, 0b10000001], dtype=np.uint64)
    assert nodes_touched(sup, bp).tolist() == [1, 2]
    assert nodes_touched(sup, rr).tolist() == [2, 2]


def test_trotter_step_epr_validates(h4_ham):
    with pytest.raises(ValueError):
        trotter_step_epr(h4_ham, "jw", 2, "bogus")
    with pytest.raises(ValueError):
        trotter_step_epr(h4_ham, "jw", 2, "inplace", placement="bogus")
    r = trotter_step_epr(h4_ham, "jw", 2, "inplace", placement="round_robin")
    assert r.epr_pairs > 0 and r.n_strings > 0
