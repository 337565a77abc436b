"""Fig. 4 — cat states in constant quantum depth.

Functional: the chain construction yields |cat(n)> with fidelity 1 and
n-1 EPR pairs. Model: the SENDQ makespan is 2E + D_M + D_F independent
of n (the paper's headline), vs E*ceil(log2 n) for the tree broadcast.
"""

import pytest

from repro.apps.ghz import run_ghz_fidelity
from repro.sendq import SendqParams, analysis, programs, schedule
from tests._precision import PROB_ABS


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cat_state_functional(benchmark, n):
    fid = benchmark(lambda: run_ghz_fidelity(n, "chain", seed=3))
    assert fid == pytest.approx(1.0, abs=PROB_ABS)
    print(f"\nFig. 4 (functional): |cat({n})> fidelity = {fid:.9f}, "
          f"EPR pairs = {n - 1}")


def test_cat_constant_quantum_depth(benchmark):
    params = [SendqParams(N=n, S=2, E=1.0, D_M=0.2, D_F=0.1) for n in (4, 8, 16, 32, 64)]

    def run():
        return [schedule(programs.bcast_cat_program(p.N), p).makespan for p in params]

    spans = benchmark(run)
    print("\nFig. 4 (SENDQ): cat-state preparation time vs n:")
    print(f"{'n':>6} {'cat (2E+D_M+D_F)':>18} {'tree (E log2 n)':>16}")
    for p, s in zip(params, spans):
        assert s == pytest.approx(analysis.bcast_cat_time(p))
        print(f"{p.N:>6} {s:>18.2f} {analysis.bcast_tree_time(p):>16.2f}")
    assert len(set(spans)) == 1  # constant in n — the figure's point
