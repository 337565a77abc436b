"""Independent oracle for the end-to-end benchmark.

Dense gate-by-gate numpy on one flat state vector: no op IR, no
fusion, no schedule, and no import from ``repro`` — a bug in
``repro.sim.gates``, ``lower_flush`` or ``compile_segments`` cannot
cancel out here. Conventions are the textbook ones the paper uses:
qubit 0 is the most significant bit of the basis index, rank r's
register precedes rank r+1's, and ``R_P(theta) = exp(-i theta P / 2)``.

Every function returns a dict of plain numbers / arrays that
``numpy.savez`` can hand to the launch processes: the expected final
``state`` (or per-round ``p_one``), the number of ``gates`` the program
issues through the ``QmpiComm`` gate shims, and the exact ledger.
"""

import math

import numpy as np


def _bit(n, q):
    """0/1 value of qubit ``q`` for every basis index of an ``n``-qubit register."""
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _apply_1q(psi, n, q, u):
    """``psi <- (1 (x) u (x) 1) psi`` in place, ``u`` acting on qubit ``q``."""
    v = psi.reshape(1 << q, 2, -1)
    a = v[:, 0, :].copy()
    b = v[:, 1, :]
    v[:, 0, :] = u[0][0] * a + u[0][1] * b
    v[:, 1, :] = u[1][0] * a + u[1][1] * b


def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return ((c, -1j * s), (-1j * s, c))


def _ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return ((c, -s), (s, c))


def anneal(n_ranks, spins, couplings, time):
    """Listing-1 annealing on a ring of ``n_ranks * spins`` spins.

    One first-order Trotter step per coupling J (field g = 1 - J):
    ``exp(-i J t Z_i Z_j)`` on every ring edge as one diagonal phase
    (the terms commute, so the program's cnot/rz/cnot order is
    immaterial), then ``exp(+i g t X)`` on every spin. A single rank
    closes the ring only when it holds more than two spins, as
    ``tfim_time_evolution`` does.
    """
    n = n_ranks * spins
    edges = [(i, i + 1) for i in range(n - 1)]
    if n_ranks > 1 or spins > 2:
        edges.append((n - 1, 0))
    z = [1 - 2 * _bit(n, q).astype(np.int8) for q in range(n)]
    energy = sum(z[i] * z[j] for i, j in edges)
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    for coupling in couplings:
        psi *= np.exp(-1j * coupling * time * energy)
        u = _rx(-2.0 * (1.0 - coupling) * time)
        for q in range(n):
            _apply_1q(psi, n, q, u)
    out = {
        "state": psi,
        "gates": n + len(couplings) * (3 * len(edges) + n),
        "epr_pairs": 0,
        "classical_bits": 0,
    }
    if n_ranks > 1:
        # One fanned-out copy per rank per step: 1 EPR pair and 1 bit to
        # send it, 1 more bit to uncompute it (Table 1).
        out["epr_pairs"] = n_ranks * len(couplings)
        out["classical_bits"] = 2 * n_ranks * len(couplings)
    return out


def qft(n, values):
    """Every rank's register holds the DFT column of its basis value."""
    k = np.arange(1 << n)
    state = np.ones(1, dtype=np.complex128)
    gates = 0
    for x in values:
        state = np.kron(state, np.exp(2j * math.pi * k * x / (1 << n)) / math.sqrt(1 << n))
        gates += bin(x).count("1") + n + n * (n - 1) // 2 + n // 2
    return {"state": state, "gates": gates, "epr_pairs": 0, "classical_bits": 0}


def sweep(n, angles):
    """``ry`` on every qubit, a ``cnot`` chain, ``crz`` on the even pairs, per row."""
    idx = np.arange(1 << n)
    bits = [_bit(n, q) for q in range(n)]
    cnot_perm = [idx ^ (bits[i] << (n - 2 - i)) for i in range(n - 1)]
    crz_sign = [bits[2 * i] * (2 * bits[2 * i + 1] - 1) for i in range(n // 2)]
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    for row in angles:
        for q in range(n):
            _apply_1q(psi, n, q, _ry(row[q]))
        for perm in cnot_perm:
            psi = psi[perm]
        for i, sign in enumerate(crz_sign):
            psi *= np.exp(0.5j * row[n + i] * sign)
    gates = len(angles) * (n + (n - 1) + n // 2)
    return {"state": psi, "gates": gates, "epr_pairs": 0, "classical_bits": 0}


def cat_broadcast(n_ranks, thetas, shots):
    """Per-round P(1) = sin^2(theta/2) and its binomial standard deviation."""
    p = np.sin(np.asarray(thetas) / 2.0) ** 2
    return {
        "p_one": p,
        "p_sigma": np.sqrt(p * (1.0 - p) / shots),
        "gates": len(thetas),  # rank 0's ry; the protocol's own gates bypass the shims
        "epr_pairs": (n_ranks - 1) * len(thetas),
    }
