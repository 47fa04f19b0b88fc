import random
from fractions import Fraction

import pytest

from liecs import (
    ComplexStructure,
    LieAlgebra,
    Matrix,
    Subspace,
    builtin,
    catalog_names,
    change_of_basis,
    classify_special,
    contains,
    is_integrable,
    j_invariant_inner_product,
    largest_j_invariant_subspace,
    nijenhuis,
    standard_block_j,
    subspace_sum,
    validate,
    validate_almost_complex,
)
from liecs.linalg import basis_vector, vector

from conftest import conjugate_entry


# Independent oracle: expand the integrability expression entry by entry
# from a dense structure-constant table, sharing no code with the library
# implementation.


def dense_table(alg):
    n = alg.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, coeffs in alg.structure:
        for k in range(n):
            c[i][j][k] = coeffs[k]
            c[j][i][k] = -coeffs[k]
    return c


def oracle_bracket(c, x, y):
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] += x[i] * y[j] * c[i][j][k]
    return out


def oracle_apply(j_rows, v):
    n = len(v)
    return [sum(j_rows[r][k] * v[k] for k in range(n)) for r in range(n)]


def oracle_nijenhuis(alg, j_matrix, x, y):
    c = dense_table(alg)
    j_rows = [list(j_matrix.row(r)) for r in range(j_matrix.rows)]
    jx = oracle_apply(j_rows, x)
    jy = oracle_apply(j_rows, y)
    term1 = oracle_bracket(c, jx, jy)
    term2 = oracle_bracket(c, x, y)
    inner = [
        a + b
        for a, b in zip(oracle_bracket(c, jx, y), oracle_bracket(c, x, jy))
    ]
    term3 = oracle_apply(j_rows, inner)
    return [a - b - d for a, b, d in zip(term1, term2, term3)]


def oracle_witnesses(alg, j_matrix):
    """(i, j, N(e_i, e_j)) for every basis pair (1-based) with a nonzero value."""
    n = alg.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x = [Fraction(1) if k == i else Fraction(0) for k in range(n)]
            y = [Fraction(1) if k == j else Fraction(0) for k in range(n)]
            value = oracle_nijenhuis(alg, j_matrix, x, y)
            if any(v != 0 for v in value):
                out.append((i + 1, j + 1, tuple(value)))
    return out


def oracle_integrable(alg, j_matrix):
    witnesses = oracle_witnesses(alg, j_matrix)
    if witnesses:
        return False, witnesses[0][:2]
    return True, None


def oracle_special(alg, j_matrix):
    """(abelian, bi_invariant) from the ``SpecialFlags`` definitions, "for all x, y".

    Both identities are bilinear, so basis vectors decide them.  Abelian,
    [Jx, Jy] = [x, y], is antisymmetric, so pairs i < j suffice;
    bi-invariant, J[x, y] = [Jx, y], is not, so it is checked on every
    ordered pair (i, j), i = j included.
    """
    c = dense_table(alg)
    j_rows = [list(j_matrix.row(r)) for r in range(j_matrix.rows)]
    n = alg.dim
    e = [[Fraction(int(k == i)) for k in range(n)] for i in range(n)]
    je = [oracle_apply(j_rows, x) for x in e]
    abelian = all(
        oracle_bracket(c, je[i], je[j]) == oracle_bracket(c, e[i], e[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    bi_invariant = all(
        oracle_apply(j_rows, oracle_bracket(c, e[i], e[j])) == oracle_bracket(c, je[i], e[j])
        for i in range(n)
        for j in range(n)
    )
    return abelian, bi_invariant


def oracle_jacobi_violations(alg):
    """(triple, cyclic sum) for every basis triple i < j < k (1-based) that fails."""
    c = dense_table(alg)
    n = alg.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = [[Fraction(int(m == a)) for m in range(n)] for a in (i, j, k)]
                total = [Fraction(0)] * n
                for a, b, d in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    term = oracle_bracket(c, oracle_bracket(c, e[a], e[b]), e[d])
                    total = [t + v for t, v in zip(total, term)]
                if any(total):
                    out.append(((i + 1, j + 1, k + 1), tuple(total)))
    return out


# -- exact values against the oracle -------------------------------------------
#
# The inputs carry non-unit denominators in the structure constants and in J,
# so a wrong power of a cleared denominator changes the reported values.


def random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))


def random_rational_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[random_rational(rng) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def has_fraction(values):
    return any(Fraction(v).denominator != 1 for v in values)


def random_jacobi_violating(rng, n):
    table = {
        (i, j): {k: random_rational(rng) for k in range(1, n + 1)}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return LieAlgebra.from_brackets(n, table)


def scrambled_structures():
    """Scrambled f4, kt4 and ch6, each with its transported J and a generic J."""
    rng = random.Random(41)
    out = []
    for name in ("f4", "kt4", "ch6"):
        entry = builtin(name)
        alg, cs, _ = conjugate_entry(entry, random_rational_invertible(rng, entry.algebra.dim))
        q = random_rational_invertible(rng, alg.dim)
        generic = validate_almost_complex(alg, q @ cs.matrix @ q.inverse())
        out += [(f"{name}-transported", cs), (f"{name}-generic", generic)]
    return out


SCRAMBLED = scrambled_structures()


def assert_bracket_matches_oracle(alg, rng):
    c = dense_table(alg)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            e_i = [Fraction(int(k == i)) for k in range(n)]
            e_j = [Fraction(int(k == j)) for k in range(n)]
            assert list(alg.bracket(e_i, e_j)) == oracle_bracket(c, e_i, e_j)
    for _ in range(10):
        x = [random_rational(rng) for _ in range(n)]
        y = [random_rational(rng) for _ in range(n)]
        assert list(alg.bracket(x, y)) == oracle_bracket(c, x, y)


@pytest.mark.parametrize("seed", range(4))
def test_jacobi_residuals_equal_fraction_oracle(seed):
    rng = random.Random(seed)
    alg = random_jacobi_violating(rng, 4 + seed % 2)
    report = validate(alg)
    expected = oracle_jacobi_violations(alg)
    assert expected and not report.ok
    assert [(v.triple, v.residual) for v in report.violations] == expected
    assert any(has_fraction(residual) for _, residual in expected)
    assert_bracket_matches_oracle(alg, rng)


@pytest.mark.parametrize("label,cs", SCRAMBLED, ids=[label for label, _ in SCRAMBLED])
def test_nijenhuis_witnesses_equal_fraction_oracle(label, cs):
    alg, j = cs.algebra, cs.matrix
    assert has_fraction(c for _, _, coeffs in alg.structure for c in coeffs)
    assert has_fraction(j.entries)
    expected = oracle_witnesses(alg, j)
    if label in ("f4-generic", "kt4-generic"):
        assert expected  # the non-integrable inputs this test exists for
    assert list(is_integrable(cs).witnesses) == expected
    flags = classify_special(cs)
    assert (flags.abelian, flags.bi_invariant) == oracle_special(alg, j)
    rng = random.Random(label)
    assert_bracket_matches_oracle(alg, rng)
    n = alg.dim
    for _ in range(10):
        x = [random_rational(rng) for _ in range(n)]
        y = [random_rational(rng) for _ in range(n)]
        assert list(nijenhuis(cs, x, y)) == oracle_nijenhuis(alg, j, x, y)


def direct_sum_with_j(entry, copies):
    """``copies`` copies of a catalog algebra, with the block-diagonal J."""
    n = entry.algebra.dim
    brackets = {
        (i + c * n, j + c * n): {k + c * n: v for k, v in enumerate(coeffs) if v}
        for c in range(copies)
        for i, j, coeffs in entry.algebra.structure
    }
    alg = LieAlgebra.from_brackets(n * copies, brackets, one_based=False)
    j = entry.primary_structure.matrix
    block = [
        [j.at(r % n, k % n) if r // n == k // n else 0 for k in range(n * copies)]
        for r in range(n * copies)
    ]
    return validate_almost_complex(alg, Matrix.from_rows(block))


def test_nijenhuis_witnesses_equal_fraction_oracle_at_dim_12():
    # a scrambled ch6 ⊕ ch6 with a generic conjugate of its J: dense
    # constants and a dense J, so every table entry and both orders of
    # each pair enter the witnesses
    rng = random.Random(12)
    cs = direct_sum_with_j(builtin("ch6"), 2)
    p = random_rational_invertible(rng, 12)
    alg = change_of_basis(cs.algebra, p)
    q = random_rational_invertible(rng, 12)
    generic = validate_almost_complex(alg, q @ p @ cs.matrix @ p.inverse() @ q.inverse())
    expected = oracle_witnesses(alg, generic.matrix)
    assert len(expected) == 66  # every pair is a witness
    assert list(is_integrable(generic).witnesses) == expected


# -- extremal inputs for the packed slot widths --------------------------------
#
# validate packs with slots of bound 3·n·M², the pair table with bound
# (c² + 2·r·c + q²)·M (M the largest integer constant, c and r the largest
# column and row sums of |q·J|).  Each input below attains a slot in the top
# half of the range its bound allows, so a slot one bit narrower than
# "bits of the bound plus a sign bit" would alias it and change a residual.

BIG = 2**40 - 1


def signed_dense_algebra(n, m, signs):
    """Every constant ±m: [e_a, e_b] has sign signs[(a, b)][k] in slot k (a < b)."""
    table = {
        (a + 1, b + 1): {k + 1: m * signs[(a, b)][k] for k in range(n)}
        for a in range(n)
        for b in range(a + 1, n)
    }
    return LieAlgebra.from_brackets(n, table)


def sign_table(n):
    signs = {(a, b): [1] * n for a in range(n) for b in range(a + 1, n)}

    def put(a, b, slot, s):
        if a > b:
            a, b, s = b, a, -s
        signs[(a, b)][slot] = s

    def get(a, b, slot):
        return signs[(a, b)][slot] if a < b else -signs[(b, a)][slot]

    return signs, put, get


def extremal_jacobi_algebra(n, m):
    """Constants ±m with the cyclic sum of (e_1, e_2, e_3) equal to 3(n-1)m² in slot 4.

    Every one of the 3(n-1) products [e_a, e_b]^u·[e_u, e_c]^4 of the sum
    is +m²: the signs of the three rows [e_1, e_2], [e_2, e_3], [e_3, e_1]
    are chosen first, then slot 4 of each [e_u, e_c] matches them.
    """
    signs, put, get = sign_table(n)
    i, j, k, l = 0, 1, 2, 3
    for a, b, first, second in ((i, j, i, j), (j, k, j, k), (k, i, k, i)):
        put(a, b, l, 1)
        put(a, b, first, -1)
        put(a, b, second, 1)
    for u in range(n):
        if u != k:
            put(u, k, l, get(i, j, u))
        if u != i:
            put(u, i, l, get(j, k, u))
        if u != j:
            put(u, j, l, get(k, i, u))
    return signed_dense_algebra(n, m, signs)


def test_jacobi_slot_width_on_extremal_constants():
    n = 4
    alg = extremal_jacobi_algebra(n, BIG)
    expected = oracle_jacobi_violations(alg)
    peak = max(abs(v) for _, residual in expected for v in residual)
    bound = 3 * n * BIG**2
    assert peak == 3 * (n - 1) * BIG**2
    assert peak >= 1 << (bound.bit_length() - 1)
    assert [(v.triple, v.residual) for v in validate(alg).violations] == expected


def extremal_nijenhuis_structure(q_entry, m):
    """A dim-6 tensor (constants ±m) and J (entries 0 or q_entry) with N(e_1, e_2)
    reaching 35·q_entry²·m + m in slot 3, against a bound of 45·q_entry²·m + m.

    J e_1 = q_entry(e_3 + e_4) and J e_2 = q_entry(e_3 + e_5 + e_6) have
    disjoint supports apart from e_3, and row 3 of J is q_entry throughout.
    The signs make every product in the three terms of N count positively.
    It need not square to -I: the kernels do not assume it.
    """
    n = 6
    s_set, t_set, l = (2, 3), (2, 4, 5), 2
    signs, put, _ = sign_table(n)
    put(0, 1, l, -1)  # -q²·[e_1, e_2]
    for a in s_set:
        for b in t_set:
            if a != b:
                put(a, b, l, 1)  # [J e_1, J e_2]
        for k in range(n):
            put(a, 1, k, -1)  # -J[J e_1, e_2]
    for b in t_set:
        for k in range(n):
            put(0, b, k, -1)  # -J[e_1, J e_2]
    alg = signed_dense_algebra(n, m, signs)
    rows = [[0] * n for _ in range(n)]
    for a in s_set:
        rows[a][0] = q_entry
    for b in t_set:
        rows[b][1] = q_entry
    rows[l] = [q_entry] * n
    return ComplexStructure(alg, Matrix.from_rows(rows))


def test_nijenhuis_slot_width_on_extremal_structure():
    q_entry = 2**20 - 1
    cs = extremal_nijenhuis_structure(q_entry, BIG)
    expected = oracle_witnesses(cs.algebra, cs.matrix)
    peak = max(abs(v) for _, _, value in expected for v in value)
    bound = 45 * q_entry**2 * BIG + BIG  # (c² + 2·r·c + q²)·M with c = 3·q_entry, r = 6·q_entry
    assert peak == abs(expected[0][2][2]) == 35 * q_entry**2 * BIG + BIG
    assert peak >= 1 << (bound.bit_length() - 1)
    assert list(is_integrable(cs).witnesses) == expected
    flags = classify_special(cs)
    assert (flags.abelian, flags.bi_invariant) == oracle_special(cs.algebra, cs.matrix)


# On ch6 (the complex Heisenberg algebra): J e1 = -e2, J e2 = e1, J e3 = e4,
# J e4 = -e3, J e5 = -e6, J e6 = e5.  It is abelian, and J[x, y] = [Jx, y]
# holds on every pair i < j but not on (e3, e1): J[e3, e1] = e6 while
# [J e3, e1] = -e6.
CH6_ABELIAN_J = (
    (0, 1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, -1, 0),
)


def test_bi_invariance_is_read_on_every_ordered_pair():
    alg, j = builtin("ch6").algebra, Matrix.from_rows(CH6_ABELIAN_J)
    reverse = Matrix.from_rows([[int(i + k == 5) for k in range(6)] for i in range(6)])
    for alg, j in ((alg, j), (change_of_basis(alg, reverse), reverse @ j @ reverse)):
        flags = classify_special(validate_almost_complex(alg, j))
        assert (flags.abelian, flags.bi_invariant) == (True, False) == oracle_special(alg, j)


def test_abelian_and_bi_invariant_only_on_abelian_algebras():
    # [x, y] = [Jx, Jy] = J[x, Jy] = -[x, y] when J is both
    structures = [cs for name in catalog_names() for _, cs in builtin(name).complex_structures]
    for cs in structures + [cs for _, cs in SCRAMBLED]:
        flags = classify_special(cs)
        if flags.abelian and flags.bi_invariant:
            assert cs.algebra.descending_series.term(1).is_zero()


def test_special_flags_exercised_by_scrambled_inputs():
    # the oracle comparison above must see both values of each flag
    flags = {oracle_special(cs.algebra, cs.matrix) for _, cs in SCRAMBLED}
    assert {a for a, _ in flags} == {True, False}
    assert {b for _, b in flags} == {True, False}


# -- validation --------------------------------------------------------------


def test_standard_block_structure_is_valid():
    a4 = builtin("a4").algebra
    cs = validate_almost_complex(a4, standard_block_j(4))
    assert cs.matrix.rows == 4


def test_identity_is_not_almost_complex():
    a4 = builtin("a4").algebra
    with pytest.raises(ValueError, match=r"J\^2 != -I"):
        validate_almost_complex(a4, Matrix.identity(4))


def test_odd_dimension_rejected():
    nn3 = builtin("nn3").algebra
    with pytest.raises(ValueError, match="odd dimension"):
        validate_almost_complex(nn3, Matrix.identity(3))


def test_failure_names_offending_entry():
    a4 = builtin("a4").algebra
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        validate_almost_complex(a4, Matrix.identity(4))


# -- nijenhuis values --------------------------------------------------------


def test_nijenhuis_kt4_standard_pair_vanishes():
    entry = builtin("kt4")
    cs = entry.primary_structure
    assert nijenhuis(cs, basis_vector(4, 0), basis_vector(4, 1)) == (Fraction(0),) * 4


def test_nijenhuis_vanishes_on_equal_arguments():
    rng = random.Random(3)
    for name in ("kt4", "ch6", "hh6", "f4"):
        cs = builtin(name).primary_structure
        n = cs.algebra.dim
        for _ in range(10):
            x = vector([rng.randint(-3, 3) for _ in range(n)])
            assert nijenhuis(cs, x, x) == (Fraction(0),) * n


def test_nijenhuis_antisymmetry_and_j_twist():
    rng = random.Random(5)
    for name in ("kt4", "ch6", "hh6", "f4"):
        cs = builtin(name).primary_structure
        n = cs.algebra.dim
        for _ in range(10):
            x = vector([rng.randint(-2, 2) for _ in range(n)])
            y = vector([rng.randint(-2, 2) for _ in range(n)])
            nxy = nijenhuis(cs, x, y)
            assert nijenhuis(cs, y, x) == tuple(-c for c in nxy)
            jx, jy = cs.matrix.matvec(x), cs.matrix.matvec(y)
            assert nijenhuis(cs, jx, jy) == tuple(-c for c in nxy)


@pytest.mark.parametrize("length", [6, 2])
def test_nijenhuis_rejects_arguments_of_the_wrong_length(length):
    cs = builtin("kt4").primary_structure
    with pytest.raises(ValueError, match="length"):
        nijenhuis(cs, vector([1] * length), basis_vector(4, 0))
    with pytest.raises(ValueError, match="length"):
        nijenhuis(cs, basis_vector(4, 0), vector([1] * length))


def test_nijenhuis_nonzero_witness_on_swapped_hh6():
    entry = builtin("hh6")
    cs = dict(entry.complex_structures)["axis_swapped"]
    value = nijenhuis(cs, basis_vector(6, 0), basis_vector(6, 1))
    assert value == vector([0, 0, 0, 0, -1, 1])  # e6 - e5


# -- integrability against the oracle ----------------------------------------


@pytest.mark.parametrize("name", ["a4", "kt4", "ch6", "hh6"])
def test_standard_structures_integrable_and_oracle_agrees(name):
    entry = builtin(name)
    cs = entry.primary_structure
    report = is_integrable(cs)
    assert report.integrable
    assert report.witnesses == ()
    ok, _ = oracle_integrable(entry.algebra, cs.matrix)
    assert ok


def test_swapped_hh6_not_integrable_with_witness():
    entry = builtin("hh6")
    cs = dict(entry.complex_structures)["axis_swapped"]
    report = is_integrable(cs)
    assert not report.integrable
    assert report.witnesses[0][:2] == (1, 2)
    ok, pair = oracle_integrable(entry.algebra, cs.matrix)
    assert not ok and pair == (1, 2)


def test_f4_standard_structure_not_integrable():
    entry = builtin("f4")
    report = is_integrable(entry.primary_structure)
    ok, pair = oracle_integrable(entry.algebra, entry.primary_structure.matrix)
    assert report.integrable == ok
    if not ok:
        assert report.witnesses[0][:2] == pair


# -- special classes ---------------------------------------------------------


def test_special_flags_on_catalog():
    flags = classify_special(builtin("kt4").primary_structure)
    assert flags.abelian and not flags.bi_invariant
    flags = classify_special(builtin("ch6").primary_structure)
    assert flags.bi_invariant
    flags = classify_special(builtin("a4").primary_structure)
    assert flags.abelian and flags.bi_invariant


def test_special_classes_imply_integrability():
    flagged = 0
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        cs = builtin(name).primary_structure
        flags = classify_special(cs)
        if flags.abelian or flags.bi_invariant:
            flagged += 1
            assert is_integrable(cs).integrable, name
    assert flagged >= 4  # the implication must actually get exercised


# -- J-compatible inner products ----------------------------------------------


def test_inner_product_with_orthogonal_block_j():
    cs = builtin("a4").primary_structure
    psi = j_invariant_inner_product(cs, Matrix.identity(4))
    assert psi == Matrix.identity(4).scale(2)


def test_inner_product_weighted_two_dim():
    cs = builtin("a4").primary_structure
    phi = Matrix.diagonal([1, 2, 1, 1])
    psi = j_invariant_inner_product(cs, phi)
    assert psi.at(0, 0) == 3 and psi.at(1, 1) == 3


def test_inner_product_is_exactly_j_invariant_and_spd(rng):
    from conftest import random_spd
    from liecs.linalg import is_positive_definite

    for name in ("kt4", "ch6", "hh6"):
        cs = builtin(name).primary_structure
        n = cs.algebra.dim
        for _ in range(5):
            phi = random_spd(rng, n)
            psi = j_invariant_inner_product(cs, phi)
            jt = cs.matrix.transpose()
            assert jt @ psi @ cs.matrix == psi
            assert is_positive_definite(psi)


def test_inner_product_rejects_non_spd():
    cs = builtin("a4").primary_structure
    with pytest.raises(ValueError, match="positive definite"):
        j_invariant_inner_product(cs, Matrix.diagonal([1, -1, 1, 1]))


# -- largest J-invariant subspace ---------------------------------------------


def test_largest_invariant_subspace_of_center_kt4():
    entry = builtin("kt4")
    cs = entry.primary_structure
    z = Subspace.from_rows(4, [basis_vector(4, 2), basis_vector(4, 3)])
    got = largest_j_invariant_subspace(cs, z)
    assert got == z
    assert cs.image(got) == got


def test_largest_invariant_subspace_of_transverse_line():
    cs = builtin("kt4").primary_structure
    got = largest_j_invariant_subspace(cs, Subspace.from_rows(4, [basis_vector(4, 2)]))
    assert got.is_zero()


def test_largest_invariant_subspace_of_full_space():
    cs = builtin("ch6").primary_structure
    assert largest_j_invariant_subspace(cs, Subspace.full(6)).is_full()


def test_largest_invariant_subspace_is_largest(rng):
    # any J-invariant u inside w must land inside w ∩ Jw
    for name in ("kt4", "ch6", "hh6"):
        cs = builtin(name).primary_structure
        n = cs.algebra.dim
        for _ in range(10):
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
            seed = Subspace.from_rows(n, rows)
            u = subspace_sum(seed, cs.image(seed))  # smallest J-invariant above seed
            w = subspace_sum(
                u,
                Subspace.from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]]),
            )
            result = largest_j_invariant_subspace(cs, w)
            assert contains(result, u)
            assert result.dim % 2 == 0
            assert cs.image(result) == result


def test_image_equals_image_subspace_and_is_memoized(rng):
    from liecs import image_subspace

    for name in ("kt4", "ch6", "hh6", "rf8"):
        # a fresh structure, so no earlier test has filled its memo
        cs = ComplexStructure(builtin(name).algebra, builtin(name).primary_structure.matrix)
        n = cs.algebra.dim
        for _ in range(6):
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
            w = Subspace.from_rows(n, rows)
            got = cs.image(w)
            assert got == image_subspace(w, cs.matrix)
            # an equal but distinct subspace object reads the same memo entry
            assert cs.image(Subspace.from_rows(n, rows)) is got
        with pytest.raises(ValueError, match="map width does not match ambient dimension"):
            cs.image(Subspace.full(n + 1))
