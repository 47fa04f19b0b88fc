import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import liecs.search as search_module
from liecs import (
    LieAlgebra,
    Matrix,
    Subspace,
    builtin,
    catalog_names,
    change_of_basis,
    find_complex_structure,
    is_integrable,
)
from liecs.serialization import parse_algebra_file


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


# What each seed in 1-10 returns on kt4 scrambled by SCRAMBLE at budget 25:
# the exact rows of J, or None.  Restart 0 fails its exact check on this
# input, so every seed runs the optimizer, and each J here comes out of the
# snap loop (seeds 3, 5 and 7 at restarts 3, 2 and 2, snapped over the
# common denominators 2, 6 and 4).
SCRAMBLED_KT4_OUTCOMES = {
    1: [
        ["31/6", "3", "-2/3", "-31/6"],
        ["-23/3", "-3", "14/3", "11/3"],
        ["19/6", "2", "1/3", "-25/6"],
        ["1/2", "1", "2", "-5/2"],
    ],
    2: [
        ["3/4", "-5/6", "5/12", "-5/12"],
        ["9/4", "-1/6", "-5/12", "-7/12"],
        ["7/4", "-1/6", "1/12", "-13/12"],
        ["1", "-4/3", "5/3", "-2/3"],
    ],
    3: [
        ["-68/243", "137/243", "-5/243", "301/243"],
        ["-323/243", "-35/486", "280/243", "-421/486"],
        ["-149/243", "-25/243", "-86/243", "463/243"],
        ["-67/243", "77/486", "-130/243", "343/486"],
    ],
    4: [
        ["-9", "-5", "2", "8"],
        ["2", "-7/3", "-4", "4/3"],
        ["-8", "-3", "3", "6"],
        ["-7", "-19/3", "-1", "25/3"],
    ],
    5: [
        ["11459/11316", "-383/11316", "-847/2829", "-10231/11316"],
        ["5768/2829", "-2983/5658", "-9347/5658", "4063/5658"],
        ["5077/3772", "2387/3772", "32/943", "-5925/3772"],
        ["6481/3772", "-859/3772", "-537/1886", "-1959/3772"],
    ],
    6: [
        ["2/7", "-4/21", "-13/14", "11/14"],
        ["-3/7", "2/7", "-6/7", "-3/7"],
        ["2/7", "17/21", "1/14", "-3/14"],
        ["-8/7", "23/21", "3/14", "-9/14"],
    ],
    7: [
        ["-157/274", "1519/685", "1883/1370", "-794/685"],
        ["247/137", "275/137", "-167/137", "-226/137"],
        ["-431/274", "971/685", "2157/1370", "-246/685"],
        ["374/137", "3031/685", "-784/685", "-2061/685"],
    ],
    8: [
        ["1/8", "19/24", "1", "-29/24"],
        ["-41/8", "37/24", "9", "-35/24"],
        ["5/8", "7/24", "0", "-17/24"],
        ["-2", "4/3", "6", "-5/3"],
    ],
    9: [
        ["37/3", "-22/3", "-50/3", "4"],
        ["-7/3", "10/3", "17/3", "-3"],
        ["40/3", "-25/3", "-56/3", "5"],
        ["13", "-6", "-16", "3"],
    ],
    10: [
        ["49/15", "-29/15", "-17/5", "-8/5"],
        ["-13/15", "-7/15", "-1/5", "11/5"],
        ["49/15", "-14/15", "-12/5", "-13/5"],
        ["7/5", "-7/5", "-8/5", "-2/5"],
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
        assert is_integrable(cs).integrable
        assert cs.matrix @ cs.matrix == Matrix.identity(4).scale(-1)


def test_snap_loop_is_what_finds_the_scrambled_structure(monkeypatch):
    assert SCRAMBLED_KT4_OUTCOMES[2] is not None
    monkeypatch.setattr(search_module, "SNAP_DENOMINATOR", 0)
    assert find_complex_structure(scrambled_kt4(), seed=2, budget=25) is None


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
    built = []
    original = search_module._dense_forms
    monkeypatch.setattr(
        search_module, "_dense_forms", lambda alg, j0: built.append(alg) or original(alg, j0)
    )
    # a search that snaps: restart 0 fails its exact check, and the J it
    # returns passed the residue, which reads the forms built once
    path = Path(__file__).parent / "golden" / "scrambled" / "kt4.json"
    golden_kt4 = parse_algebra_file(path.read_bytes()).algebra
    assert find_complex_structure(golden_kt4, seed=2, budget=25) is not None
    assert built == [golden_kt4]
    monkeypatch.setattr(search_module, "_verify_candidate", lambda alg, j: None)
    assert find_complex_structure(builtin("a4").algebra, seed=0, budget=3) is None
    assert len(built) == 2


def test_optimizer_stops_when_its_rate_cannot_reach_the_threshold(monkeypatch):
    # f4 has no integrable J: its one restart fell slowly for all 200 steps
    # (194 Jacobians, f = 2.1e-8 at the end), and now stops after 54
    built = []
    original = search_module._nijenhuis_jacobian
    monkeypatch.setattr(
        search_module,
        "_nijenhuis_jacobian",
        lambda *args: built.append(1) or original(*args),
    )
    assert find_complex_structure(builtin("f4").algebra, budget=1) is None
    assert 0 < len(built) <= 64


def conjugator(j):
    """A rational P with P J0 P⁻¹ = J: columns v_1, J v_1, v_2, J v_2, … from the basis."""
    n = j.rows
    columns = []
    for k in range(n):
        v = [Fraction(int(i == k)) for i in range(n)]
        trial = [*columns, v, j.matvec(v)]
        if Subspace.from_rows(n, trial).dim == len(trial):
            columns = trial
    return Matrix.from_rows(columns).transpose()


def residue_candidates(entry):
    """Seeded rational P for the residue property, with the gate's verdict on each.

    The catalog's named J (P built by ``conjugator``); P commuting with J0
    (blocks a + bi, so J = J0 again, under a P the residue must invert);
    and random P, with denominators up to 2 and up to 10⁶.
    """
    n = entry.algebra.dim
    rng = random.Random(f"residue:{entry.name}")
    ratio = lambda cap: Fraction(rng.randint(-cap, cap), rng.randint(1, cap))
    ps = [conjugator(cs.matrix) for _, cs in entry.complex_structures]
    for _ in range(4):
        blocks = [[0] * n for _ in range(n)]
        for r in range(0, n, 2):
            for c in range(0, n, 2):
                a, b = ratio(9), ratio(3)
                blocks[r][c], blocks[r][c + 1], blocks[r + 1][c], blocks[r + 1][c + 1] = a, -b, b, a
        ps.append(Matrix.from_rows(blocks))
    for cap in (2, 10**6):
        for _ in range(8):
            ps.append(Matrix.from_rows([[ratio(cap) for _ in range(n)] for _ in range(n)]))
    j0 = search_module.standard_block_j(n)
    for p in ps:
        try:
            p_inv = p.inverse()
        except ValueError:
            continue
        yield p, search_module._verify_candidate(entry.algebra, p @ j0 @ p_inv) is not None


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if builtin(n).algebra.dim % 2 == 0]
)
def test_residue_rejects_only_what_the_gate_rejects(name):
    # the residue reads the integer Q = den·P, which conjugates J0 to the same J
    entry = builtin(name)
    j0 = search_module.standard_block_j(entry.algebra.dim)
    _, residues = search_module._dense_forms(entry.algebra, j0)
    verdicts = [
        (search_module._residue_rejects(*residues, p.ints), accepted)
        for p, accepted in residue_candidates(entry)
    ]
    assert not any(rejected and accepted for rejected, accepted in verdicts)
    # every named J is integrable except f4's, so the property is not vacuous
    assert any(accepted for _, accepted in verdicts) == (name != "f4")
    # and on these seeds the residue rejects every candidate the gate rejects
    assert all(rejected or accepted for rejected, accepted in verdicts)


def test_a_prime_dividing_the_denominator_of_the_constants_still_decides(monkeypatch):
    # D·N(J) is a polynomial with integer coefficients in the integer tensor
    # D·C whatever D is: on f4's constants over ℓ, so D = ℓ, the residue
    # still rejects the non-integrable J0 (Q = I)
    f4, j0 = builtin("f4").algebra, search_module.standard_block_j(4)
    ell = search_module.RESIDUE_PRIME
    scaled = LieAlgebra.from_brackets(
        4,
        {(i, j): {k: v / ell for k, v in enumerate(row) if v} for i, j, row in f4.structure},
        one_based=False,
    )
    assert scaled.tensor[0] == ell
    assert search_module._verify_candidate(scaled, j0) is None
    identity = Matrix.identity(4).ints
    for alg in (f4, scaled):
        assert search_module._residue_rejects(*search_module._dense_forms(alg, j0)[1], identity)
    # with the residue off every snapped candidate reaches the gate, and the
    # search returns what it returns with the residue
    counted = []
    original = search_module._verify_candidate
    monkeypatch.setattr(
        search_module, "_verify_candidate", lambda alg, j: counted.append(1) or original(alg, j)
    )
    with_residue = find_complex_structure(scrambled_kt4(), seed=2, budget=25)
    calls = len(counted)
    monkeypatch.setattr(search_module, "_residue_rejects", lambda c, j0, ints: False)
    assert find_complex_structure(scrambled_kt4(), seed=2, budget=25).matrix == with_residue.matrix
    assert len(counted) - calls > calls


def pair_value(c, j, a, b, k):
    """One value of ``_pair_form(c, j, j) - c`` in Python ints, from its definition."""
    n = len(j)
    left = lambda a, m, k: sum(j[i][a] * c[i][m][k] for i in range(n))
    first = sum(left(a, m, k) * j[m][b] for m in range(n))
    second = sum((left(a, b, m) - left(b, a, m)) * j[k][m] for m in range(n))
    return first - second - c[a][b][k]


@pytest.mark.parametrize("ell", [search_module.RESIDUE_PRIME])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_residue_arithmetic_is_exact_in_int64(ell, n):
    # the extremes of the bound in ``_residue_rejects``: every entry of J is
    # ℓ − 1, and so is every c[i, m, k] with m < n − 1, the others 0; then
    # the left table reaches n(ℓ − 1)² and its skew part ±n(ℓ − 1)², and the
    # values on the pairs (a, n − 1) reach (2n − 1)·n·(ℓ − 1)³, near 2n²ℓ³
    top = ell - 1
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:, : n - 1, :] = top
    j = np.full((n, n), top, dtype=np.int64)
    values = search_module._nijenhuis_residual(c, j).reshape(-1, n)
    pairs = list(zip(*search_module._upper_pairs(n)))
    c_ints, j_ints = c.tolist(), j.tolist()
    for a, b in {pairs[0], pairs[-1], (0, n - 1)}:
        expected = [pair_value(c_ints, j_ints, a, b, k) for k in range(n)]
        assert values[pairs.index((a, b))].tolist() == expected, (a, b)
    assert int(values.max()) == (2 * n - 1) * n * top**3


def f4_padded(dim):
    """f4 plus an abelian summand: in the standard basis J0 is not integrable."""
    f4 = builtin("f4").algebra
    brackets = {(i, j): {k: v for k, v in enumerate(row) if v} for i, j, row in f4.structure}
    return LieAlgebra.from_brackets(dim, brackets, one_based=False)


@pytest.mark.parametrize(
    "dim, runs",
    [(search_module.MAX_OPTIMIZER_DIM, 1), (search_module.MAX_OPTIMIZER_DIM + 2, 0)],
)
def test_optimizer_runs_only_up_to_its_dimension_bound(monkeypatch, dim, runs):
    calls = []
    monkeypatch.setattr(
        search_module,
        "_float_optimizer",
        lambda c, j0: lambda p: calls.append(p) or (float("inf"), None),
    )
    assert find_complex_structure(f4_padded(dim), budget=1) is None
    assert len(calls) == runs


def test_search_loads_numpy_only_for_the_optimizer():
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
assert "numpy" in sys.modules, "optimizer path"
assert "scipy" not in sys.modules, "optimizer path loaded scipy"
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
    (c, j0), _ = search_module._dense_forms(entry.algebra, search_module.standard_block_j(n))
    gen = np.random.default_rng(sum(map(ord, name)))
    js = [np.array([[float(x) for x in entry.primary_structure.matrix.row(r)] for r in range(n)])]
    for _ in range(4):
        p = gen.normal(size=(n, n))
        js.append(p @ j0 @ np.linalg.inv(p))  # almost complex
        js.append(gen.normal(size=(n, n)))  # any matrix: the residual is still defined
    for j in js:
        expected = reference_residual(c, j)
        residual = search_module._nijenhuis_residual(c, j)
        got = float(residual @ residual)
        assert abs(got - expected) <= 1e-12 * expected, (name, got, expected)


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if builtin(n).algebra.dim % 2 == 0]
)
def test_jacobian_equals_central_differences(name):
    # central differences err by O(h²) in truncation and O(eps/h) in
    # rounding; at h = 1e-6 both stay far below the 1e-7 relative bound
    alg = builtin(name).algebra
    n, h = alg.dim, 1e-6
    (c, j0), _ = search_module._dense_forms(alg, search_module.standard_block_j(n))
    residual_at = lambda p: search_module._nijenhuis_residual(c, p @ j0 @ np.linalg.inv(p))
    gen = np.random.default_rng(sum(map(ord, name)))
    for _ in range(3):
        p = gen.normal(size=(n, n))
        p_inv = np.linalg.inv(p)
        jacobian = search_module._nijenhuis_jacobian(c, p @ j0 @ p_inv, p_inv)
        steps = np.eye(n * n).reshape(n * n, n, n) * h
        differences = np.array([residual_at(p + d) - residual_at(p - d) for d in steps]).T / (2 * h)
        assert jacobian.shape == differences.shape == (n * (n - 1) // 2 * n, n * n)
        error = np.max(np.abs(jacobian - differences))
        assert error <= 1e-7 * np.max(np.abs(jacobian)), (name, error)
