import subprocess
import sys

import numpy as np
import pytest

import liecs.search as search_module
from liecs import (
    Matrix,
    builtin,
    catalog_names,
    change_of_basis,
    find_complex_structure,
    is_integrable,
)


def test_search_succeeds_on_abelian():
    entry = builtin("a4")
    cs = find_complex_structure(entry.algebra, seed=0, budget=100)
    assert cs is not None
    assert is_integrable(cs).integrable


def test_search_succeeds_on_kt4():
    entry = builtin("kt4")
    cs = find_complex_structure(entry.algebra, seed=0, budget=100)
    assert cs is not None
    assert is_integrable(cs).integrable
    square = cs.matrix @ cs.matrix
    assert square == Matrix.identity(4).scale(-1)


def test_search_rejects_odd_dimension():
    entry = builtin("nn3")
    with pytest.raises(ValueError, match="odd dimension"):
        find_complex_structure(entry.algebra)


def test_search_deterministic_per_seed():
    entry = builtin("kt4")
    first = find_complex_structure(entry.algebra, seed=11, budget=50)
    second = find_complex_structure(entry.algebra, seed=11, budget=50)
    assert first.matrix == second.matrix


def test_search_handles_scrambled_basis(rng):
    # conjugate kt4 so the standard block structure is no longer a solution;
    # the float loop plus rational snapping has to do the work
    entry = builtin("kt4")
    p = Matrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1]])
    assert p.det() != 0
    scrambled = change_of_basis(entry.algebra, p)
    assert (
        search_module._verify_candidate(scrambled, search_module.standard_block_j(4))
        is None
    )
    cs = find_complex_structure(scrambled, seed=1, budget=25)
    assert cs is not None
    assert is_integrable(cs).integrable


def test_every_returned_structure_passed_the_gate(monkeypatch):
    """Exactness gate: nothing is returned without exact re-verification."""
    verified = []
    original = search_module._verify_candidate

    def spying_gate(alg, j):
        result = original(alg, j)
        if result is not None:
            verified.append(result.matrix)
        return result

    monkeypatch.setattr(search_module, "_verify_candidate", spying_gate)
    for name in ("a4", "kt4"):
        entry = builtin(name)
        cs = find_complex_structure(entry.algebra, seed=3, budget=100)
        assert cs is not None
        assert cs.matrix in verified


def test_budget_exhaustion_returns_none(monkeypatch):
    # force the gate shut: the search must give up quietly
    monkeypatch.setattr(search_module, "_verify_candidate", lambda alg, j: None)
    entry = builtin("a4")
    assert find_complex_structure(entry.algebra, seed=0, budget=3) is None


def test_import_does_not_load_numpy():
    code = (
        "import sys, liecs; assert 'numpy' not in sys.modules; "
        "import liecs.cli; assert 'numpy' not in sys.modules"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def reference_residual(c, j):
    """The Nijenhuis residual pair by pair: the oracle for the array expression."""
    n = j.shape[0]
    bracket = lambda x, y: np.einsum("ijk,i,j->k", c, x, y)
    eye = np.eye(n)
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            ja, jb = j @ eye[a], j @ eye[b]
            value = (
                bracket(ja, jb)
                - bracket(eye[a], eye[b])
                - j @ (bracket(ja, eye[b]) + bracket(eye[a], jb))
            )
            total += float(value @ value)
    return total


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if builtin(n).algebra.dim % 2 == 0]
)
def test_residual_equals_per_pair_loop(name):
    entry = builtin(name)
    n = entry.algebra.dim
    c = search_module._float_tensor(entry.algebra)
    j0 = np.array([[float(x) for x in search_module.standard_block_j(n).row(r)] for r in range(n)])
    gen = np.random.default_rng(sum(map(ord, name)))
    js = [np.array([[float(x) for x in entry.primary_structure.matrix.row(r)] for r in range(n)])]
    for _ in range(4):
        p = gen.normal(size=(n, n))
        js.append(p @ j0 @ np.linalg.inv(p))  # almost complex
        js.append(gen.normal(size=(n, n)))  # any matrix: the residual is still defined
    for j in js:
        expected = reference_residual(c, j)
        got = search_module._nijenhuis_residual(c, j)
        assert abs(got - expected) <= 1e-12 * expected, (name, got, expected)
