"""The dense fermion oracle is sound and stays independent of the masks."""

import ast
from pathlib import Path

import numpy as np
import pytest

from tests import _fermion_oracle
from tests._fermion_oracle import annihilators, pauli_matrix, pauli_terms

#: The only ``repro`` names the oracle may use: the BK tree shape and
#: the integrals container. Anything else (``bk_sets``,
#: ``MajoranaMasks``, ...) would let one bug pass both sides.
ALLOWED_CHEM = {"FenwickTree", "MolecularHamiltonian"}


def test_oracle_imports_nothing_else_from_repro_chem():
    tree = ast.parse(Path(_fermion_oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert node.level == 0, "relative import in the oracle"
            if module == "repro" or module.startswith("repro."):
                assert module.startswith("repro.chem"), module
                names = {alias.name for alias in node.names}
                assert names <= ALLOWED_CHEM, names - ALLOWED_CHEM


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_annihilators_satisfy_car(n):
    a = annihilators(n)
    eye = np.eye(2**n)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(a[i] @ a[j].T + a[j].T @ a[i], eye if i == j else 0 * eye)
            assert not np.any(a[i] @ a[j] + a[j] @ a[i])


def test_pauli_terms_round_trip(rng):
    n = 3
    xs, zs = rng.integers(0, 2**n, (2, 6))
    strings = {(int(x), int(z)): float(c) for x, z, c in zip(xs, zs, rng.normal(size=6))}
    M = sum(c * pauli_matrix(x, z, n) for (x, z), c in strings.items())
    got = pauli_terms(M)
    assert got.keys() == strings.keys()
    assert np.allclose([got[k] for k in strings], list(strings.values()), atol=1e-12)
    # Y = i X Z on the one qubit set in both masks.
    assert np.array_equal(pauli_matrix(1, 1, 1), np.array([[0, -1j], [1j, 0]]))
