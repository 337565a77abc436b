"""Application-level tests: teleport, GHZ, Fig. 6 parity, Listing-1 TFIM."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from repro.apps.ghz import run_ghz, run_ghz_fidelity
from repro.apps.parity import (
    rotate_parity_constdepth,
    rotate_parity_inplace,
    rotate_parity_outofplace,
)
from repro.apps.teleport import run_relay_demo, run_teleport_demo
from repro.apps.tfim import tfim_program
from repro.exact import evolve, fidelity, pauli_matrix, tfim_hamiltonian
from repro.qmpi import qmpi_run
from repro.sim import StateVector
from tests._precision import PROB_ABS


def test_teleport_demo():
    p1, snap = run_teleport_demo(theta=1.234, phi=0.5)
    assert p1 == pytest.approx(math.sin(0.617) ** 2, abs=PROB_ABS)
    assert (snap.epr_pairs, snap.classical_bits) == (1, 2)


def test_relay_resources_scale_with_hops():
    p1, snap = run_relay_demo(theta=0.777, n_ranks=4)
    assert p1 == pytest.approx(math.sin(0.777 / 2) ** 2, abs=PROB_ABS)
    assert (snap.epr_pairs, snap.classical_bits) == (3, 6)


@pytest.mark.parametrize("algo", ["chain", "tree"])
def test_ghz_agreement_and_fidelity(algo):
    outs, snap = run_ghz(5, algo, seed=11)
    assert len(set(outs)) == 1
    assert snap.epr_pairs == 4
    assert run_ghz_fidelity(5, algo, seed=3) == pytest.approx(1.0, abs=PROB_ABS)


def _parity_prog(qc, method, theta):
    q = qc.alloc_qmem(1)
    qc.h(q[0])
    qc.ry(q[0], 0.3 * (qc.rank + 1))
    if method == "a":
        rotate_parity_inplace(qc, q[0], theta)
    elif method == "b":
        rotate_parity_outofplace(qc, q[0], theta)
    else:
        rotate_parity_constdepth(qc, q[0], theta)
    qc.barrier()
    return q[0]


@pytest.mark.parametrize("method", ["a", "b", "c"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fig6_methods_match_exact(method, k):
    t = 0.45
    sv = StateVector(k, seed=0)
    for i in range(k):
        sv.h(i)
        sv.ry(i, 0.3 * (i + 1))
    ref = sv.statevector()
    zz = pauli_matrix(" ".join(f"Z{i}" for i in range(k)), k)
    expect = expm(-1j * t * zz) @ ref
    w = qmpi_run(k, _parity_prog, args=(method, 2 * t), seed=5)
    vec = w.backend.statevector(list(w.results))
    assert abs(np.vdot(expect, vec)) ** 2 > 1 - PROB_ABS


@pytest.mark.parametrize(
    "method,epr_of_k", [("a", lambda k: 2 * (k - 1)), ("b", lambda k: k - 1), ("c", lambda k: k - 1)]
)
def test_fig6_epr_budgets(method, epr_of_k):
    for k in (3, 4):
        w = qmpi_run(k, _parity_prog, args=(method, 0.9), seed=5)
        assert w.ledger.snapshot().epr_pairs == epr_of_k(k), (method, k)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("method", ["b", "c"])
def test_fig6_classical_bits(method, k):
    # (b): k-1 distributed CNOTs (a copy bit and an uncopy bit each), then
    # the ancilla's outcome broadcast to the k-1 other ranks.
    # (c): the cat chain's exscan, the unfanout's XOR reduce and the
    # outcome broadcast, k-1 bits each.
    w = qmpi_run(k, _parity_prog, args=(method, 0.9), seed=5)
    assert w.ledger.snapshot().classical_bits == 3 * (k - 1)


def _tfim_fidelity(n_ranks, m, J, g, time, steps):
    w = qmpi_run(n_ranks, tfim_program, args=(J, g, time, m, steps), seed=0, timeout=300)
    qubits = [q for block in w.results for q in block]
    vec = w.backend.statevector(qubits)
    n = n_ranks * m
    H = tfim_hamiltonian(n, J, g, periodic=True)
    plus = np.ones(2**n) / 2 ** (n / 2)
    return fidelity(evolve(H, plus, time), vec)


def test_tfim_two_ranks_matches_exact():
    assert _tfim_fidelity(2, 2, 0.7, 0.4, 0.3, 48) > 0.9999


def test_tfim_three_ranks_matches_exact():
    assert _tfim_fidelity(3, 1, 0.5, 0.8, 0.25, 32) > 0.9999


def test_tfim_single_rank_ring():
    w = qmpi_run(1, tfim_program, args=(0.6, 0.3, 0.2, 3, 24), seed=0)
    vec = w.backend.statevector(list(w.results[0]))
    H = tfim_hamiltonian(3, 0.6, 0.3, periodic=True)
    plus = np.ones(8) / 8**0.5
    assert fidelity(evolve(H, plus, 0.2), vec) > 0.9999


def test_tfim_epr_budget_per_step():
    # N ring-boundary terms per Trotter step, 1 EPR each (copy semantics)
    n_ranks, steps = 3, 2
    w = qmpi_run(n_ranks, tfim_program, args=(0.5, 0.5, 0.1, 1, steps), seed=0)
    assert w.ledger.snapshot().epr_pairs == n_ranks * steps


def test_annealing_smoke():
    from repro.apps.tfim import run_annealing

    outcomes, snap = run_annealing(
        n_ranks=2, num_local_spins=1, num_annealing_steps=4, num_trotter=1, time=0.5, seed=1
    )
    assert len(outcomes) == 2
    assert all(b in (0, 1) for b in outcomes)
    assert snap.epr_pairs > 0
