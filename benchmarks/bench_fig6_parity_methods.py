"""Fig. 6 — three implementations of exp(-i t Z...Z) over k nodes.

For each method we report the SENDQ runtime and EPR-pair count across k
(the columns the paper's analysis derives), validate the event engine
against the closed forms, and run the k=4 circuits functionally on the
simulator through QMPI.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.apps.parity import (
    rotate_parity_constdepth,
    rotate_parity_inplace,
    rotate_parity_outofplace,
)
from repro.exact import pauli_matrix
from repro.qmpi import qmpi_run
from repro.sendq import SendqParams, analysis, programs, schedule
from repro.sim import StateVector
from tests._precision import PROB_ABS

KS = (2, 4, 8, 16, 32, 64)


def test_fig6_sendq_series(benchmark):
    p_base = SendqParams(E=1.0, D_R=0.5, S=2)

    def run():
        rows = []
        for k in KS:
            p = p_base.with_(N=k + 1)
            rows.append(
                (
                    k,
                    analysis.parity_inplace_time(k, p),
                    analysis.parity_inplace_epr(k),
                    analysis.parity_outofplace_time(k, p),
                    analysis.parity_outofplace_epr(k),
                    analysis.parity_constdepth_time(k, p),
                    analysis.parity_constdepth_epr(k, aux_colocated=True),
                )
            )
        return rows

    rows = benchmark(run)
    print("\nFig. 6 (SENDQ, E=1, D_R=0.5):")
    print(f"{'k':>4} | {'in-place t':>10} {'EPR':>5} | {'out-of-place t':>14} "
          f"{'EPR':>5} | {'const-depth t':>13} {'EPR':>5}")
    for k, ta, ea, tb, eb, tc, ec in rows:
        print(f"{k:>4} | {ta:>10.1f} {ea:>5} | {tb:>14.1f} {eb:>5} | {tc:>13.1f} {ec:>5}")
    # Paper's conclusions: const-depth is O(1) in time; in-place uses 2x EPR.
    assert rows[-1][5] == rows[0][5]  # constant time
    assert all(r[2] == 2 * (r[0] - 1) for r in rows)


@pytest.mark.parametrize("k", [4, 8])
def test_fig6_engine_matches_formulas(benchmark, k):
    p = SendqParams(N=k + 1, S=2, E=1.0, D_R=0.5)

    def run():
        return (
            schedule(programs.parity_inplace_program(k), p).makespan,
            schedule(programs.parity_outofplace_program(k), p).makespan,
            schedule(programs.parity_constdepth_program(k, aux_colocated=True), p).makespan,
        )

    ta, tb, tc = benchmark(run)
    assert ta == pytest.approx(analysis.parity_inplace_time(k, p))
    assert tb == pytest.approx(analysis.parity_outofplace_time(k, p))
    assert tc == pytest.approx(analysis.parity_constdepth_time(k, p))
    print(f"\nFig. 6 engine check k={k}: in-place {ta}, out-of-place {tb}, "
          f"const-depth {tc} (all = closed forms)")


def _prog(qc, method, theta):
    q = qc.alloc_qmem(1)
    qc.h(q[0])
    if method == "a":
        rotate_parity_inplace(qc, q[0], theta)
    elif method == "b":
        rotate_parity_outofplace(qc, q[0], theta)
    else:
        rotate_parity_constdepth(qc, q[0], theta)
    qc.barrier()
    return q[0]


@pytest.mark.parametrize("method,label", [("a", "in-place"), ("b", "out-of-place"), ("c", "const-depth")])
def test_fig6_functional(benchmark, method, label):
    k, t = 4, 0.45
    sv = StateVector(k, seed=0)
    for i in range(k):
        sv.h(i)
    ref = sv.statevector()
    expect = expm(-1j * t * pauli_matrix(" ".join(f"Z{i}" for i in range(k)), k)) @ ref

    world = benchmark(lambda: qmpi_run(k, _prog, args=(method, 2 * t), seed=5))
    vec = world.backend.statevector(list(world.results))
    fid = abs(np.vdot(expect, vec)) ** 2
    snap = world.ledger.snapshot()
    assert fid > 1 - PROB_ABS
    print(f"\nFig. 6({method}) [{label}] k={k}: fidelity={fid:.9f}, "
          f"EPR={snap.epr_pairs}, classical bits={snap.classical_bits}")
