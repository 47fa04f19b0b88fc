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


# conjugates kt4 so the standard block structure is no longer a solution
SCRAMBLE = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1]]


def scrambled_kt4():
    return change_of_basis(builtin("kt4").algebra, Matrix.from_rows(SCRAMBLE))


def test_search_handles_scrambled_basis(rng):
    # the float loop plus rational snapping has to do the work
    p = Matrix.from_rows(SCRAMBLE)
    assert p.det() != 0
    scrambled = scrambled_kt4()
    assert (
        search_module._verify_candidate(scrambled, search_module.standard_block_j(4))
        is None
    )
    cs = find_complex_structure(scrambled, seed=1, budget=25)
    assert cs is not None
    assert is_integrable(cs).integrable


# What each seed returns on kt4 scrambled by SCRAMBLE at budget 25: the exact
# rows of J, or None.  Restart 0 fails its exact check on this input, so
# every seed runs the optimizer, and each J here comes out of the snap loop.
SCRAMBLED_KT4_OUTCOMES = {
    2: [
        ["-166/113", "-244/113", "117/113", "26/113"],
        ["235/339", "212/339", "91/339", "-143/339"],
        ["-385/339", "-506/339", "464/339", "-148/339"],
        ["-715/339", "-407/339", "1007/339", "-178/339"],
    ],
    3: None,
    4: [
        ["38/73", "74/73", "-18/73", "11/73"],
        ["-86/73", "-33/73", "10/73", "2/73"],
        ["38/73", "1/73", "-91/73", "84/73"],
        ["25/73", "-32/73", "-154/73", "86/73"],
    ],
    6: [
        ["-1", "-3/4", "-1/4", "2"],
        ["-2", "1/4", "7/4", "-1"],
        ["-2", "-7/4", "-1/4", "3"],
        ["-2", "-1/2", "1/2", "1"],
    ],
    7: [
        ["-4/9", "4/3", "1", "-2/9"],
        ["1/3", "1/2", "-1/2", "-5/6"],
        ["-13/9", "1/3", "1", "7/9"],
        ["8/9", "11/6", "-1/2", "-19/18"],
    ],
    10: [
        ["29/44", "-1/2", "-9/22", "-7/11"],
        ["107/88", "-3/4", "-59/44", "25/22"],
        ["29/44", "1/2", "13/22", "-18/11"],
        ["7/8", "-1/4", "1/4", "-1/2"],
    ],
}


@pytest.mark.parametrize("seed", sorted(SCRAMBLED_KT4_OUTCOMES))
def test_scrambled_kt4_outcome_table(seed):
    cs = find_complex_structure(scrambled_kt4(), seed=seed, budget=25)
    expected = SCRAMBLED_KT4_OUTCOMES[seed]
    if expected is None:
        assert cs is None
    else:
        assert cs is not None
        assert cs.matrix == Matrix.from_rows(expected)


def test_snap_loop_is_what_finds_the_scrambled_structure(monkeypatch):
    monkeypatch.setattr(search_module, "_snap_caps", lambda den_cap: iter(()))
    assert find_complex_structure(scrambled_kt4(), seed=7, budget=25) is None


def test_search_takes_no_determinant(monkeypatch):
    # singularity is the ValueError of the one inverse each candidate needs
    scrambled, f4 = scrambled_kt4(), builtin("f4").algebra

    def no_det(self):
        raise AssertionError("the search computes a determinant")

    monkeypatch.setattr(Matrix, "det", no_det)
    cs = find_complex_structure(scrambled, seed=2, budget=25)
    assert cs is not None
    assert cs.matrix == Matrix.from_rows(SCRAMBLED_KT4_OUTCOMES[2])
    assert find_complex_structure(f4, budget=1) is None


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


def test_float_machinery_is_built_once_per_search(monkeypatch):
    monkeypatch.setattr(search_module, "_verify_candidate", lambda alg, j: None)
    built = []
    original = search_module._float_tensor
    monkeypatch.setattr(
        search_module, "_float_tensor", lambda alg: built.append(alg) or original(alg)
    )
    assert find_complex_structure(builtin("a4").algebra, seed=0, budget=3) is None
    assert len(built) == 1


def test_import_does_not_load_numpy():
    code = (
        "import sys, liecs; assert 'numpy' not in sys.modules; "
        "import liecs.cli; assert 'numpy' not in sys.modules"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_search_loads_numpy_and_scipy_only_for_the_optimizer():
    # kt4 in its own basis is found at restart 0's exact check; f4 has no
    # integrable J, so its one restart reaches the optimizer
    code = """
import io, sys
from contextlib import redirect_stdout
import liecs.cli
from liecs import builtin, find_complex_structure
assert find_complex_structure(builtin("kt4").algebra) is not None
out = io.StringIO()
with redirect_stdout(out):
    assert liecs.cli.main(["-i", "kt4", "--cmd", "search"]) == 0
assert '"found": true' in out.getvalue(), out.getvalue()
loaded = sorted({"numpy", "scipy"} & set(sys.modules))
assert not loaded, f"exact path loaded {loaded}"
assert find_complex_structure(builtin("f4").algebra, budget=1) is None
assert {"numpy", "scipy"} <= set(sys.modules), "optimizer path"
"""
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
