import subprocess
import sys

import pytest

import liecs.search as search_module
from liecs import (
    Matrix,
    builtin,
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
