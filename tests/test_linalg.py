from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecs.linalg import (
    Matrix,
    Subspace,
    contains,
    format_rational,
    image_subspace,
    int_kernel,
    is_positive_definite,
    orthogonal_complement,
    pack,
    parse_rational,
    rref,
    slot_width,
    subspace_intersection,
    subspace_sum,
    unpack,
)

from conftest import fraction_rref

# -- rationals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Fraction(3)),
        ("-7", Fraction(-7)),
        ("1/2", Fraction(1, 2)),
        ("-4/6", Fraction(-2, 3)),
        ("−3/4", Fraction(-3, 4)),
        ("0", Fraction(0)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text,message",
    [
        ("1/0", "zero denominator"),
        ("1/-2", "not a rational"),
        ("1_000", "not a rational"),
        ("3 / 4", "not a rational"),
        ("\u0663", "not a rational"),  # ARABIC-INDIC DIGIT THREE
    ],
    ids=["zero-denominator", "negative-denominator", "underscore", "inner-spaces", "non-ascii-digit"],
)
def test_parse_rational_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_rational(text)


@pytest.mark.parametrize("q,s", [(Fraction(3), "3"), (Fraction(-1, 2), "-1/2")])
def test_format_rational(q, s):
    assert format_rational(q) == s
    assert parse_rational(format_rational(q)) == q


@given(st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)))
@settings(max_examples=150, deadline=None)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# -- rref --------------------------------------------------------------------


def test_rref_zero_matrix_has_no_rows():
    assert rref(Matrix.zero(2, 2)) == Matrix.zero(0, 2)


def test_rref_diagonal_scaling():
    assert rref(Matrix.from_rows([[2, 0], [0, 3]])) == Matrix.identity(2)


def test_rref_dependent_rows():
    assert rref(Matrix.from_rows([[1, 2], [2, 4]])) == Matrix.from_rows([[1, 2]])


# -- integer canonical form -------------------------------------------------


def test_canonical_rows_are_primitive_integers():
    w = Subspace.from_rows(3, [[Fraction(1, 2), Fraction(1, 3), 0]])
    assert w.rows == ((3, 2, 0),)
    assert w.basis_rows() == [(Fraction(1), Fraction(2, 3), Fraction(0))]
    assert Subspace(2, ((1, 0), (0, 1))) == Subspace.full(2)


@pytest.mark.parametrize(
    "rows,message",
    [
        (((2, 4),), "not primitive"),
        (((-1, 2),), "negative"),
        (((1, 1), (0, 1)), "another nonzero"),
        (((0, 1), (1, 0)), "increasing pivots"),
        (((1, 0), (0, 0)), "increasing pivots"),
        (((1, 0, 0),), "width"),
    ],
)
def test_constructor_rejects_non_canonical_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        Subspace(2, rows)


row_sets = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5),
    )
)


@given(row_sets, st.data())
@settings(max_examples=80, deadline=None)
def test_from_rows_is_invariant_under_row_operations(case, data):
    n, rows = case
    w = Subspace.from_rows(n, rows)
    permuted = data.draw(st.permutations(rows))
    factors = data.draw(st.lists(nonzero_rationals, min_size=len(rows), max_size=len(rows)))
    scaled = [[c * a for a in r] for c, r in zip(factors, rows)]
    i = data.draw(st.integers(0, len(rows) - 1))
    coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    combined = list(rows)
    combined[i] = [
        a + sum(c * r[k] for j, (c, r) in enumerate(zip(coeffs, rows)) if j != i)
        for k, a in enumerate(rows[i])
    ]
    for other in (permuted, scaled, combined):
        moved = Subspace.from_rows(n, other)
        assert moved == w and hash(moved) == hash(w)


@given(row_sets)
@settings(max_examples=80, deadline=None)
def test_basis_rows_equal_fraction_rref(case):
    n, rows = case
    assert Subspace.from_rows(n, rows).basis_rows() == fraction_rref(rows, n)


# -- subspace lattice --------------------------------------------------------


def span(n, *rows):
    return Subspace.from_rows(n, rows)


def test_sum_of_independent_lines():
    assert subspace_sum(span(2, [1, 0]), span(2, [0, 1])) == Subspace.full(2)


def test_sum_idempotent():
    line = span(2, [1, 0])
    assert subspace_sum(line, line) == line


def test_sum_of_skew_lines():
    assert subspace_sum(span(2, [1, 1]), span(2, [1, -1])) == Subspace.full(2)


def test_intersection_of_planes():
    a = span(3, [1, 0, 0], [0, 1, 0])
    b = span(3, [0, 1, 0], [0, 0, 1])
    assert subspace_intersection(a, b) == span(3, [0, 1, 0])


def test_intersection_idempotent():
    a = span(3, [1, 2, 3], [0, 1, 1])
    assert subspace_intersection(a, a) == a


def test_intersection_of_transverse_lines_is_zero():
    assert subspace_intersection(span(2, [1, 0]), span(2, [0, 1])).is_zero()


def test_contains_zero_subspace_in_anything():
    assert contains(span(2, [1, 0]), Subspace.zero(2))
    assert contains(Subspace.zero(2), Subspace.zero(2))


def test_contains_line_in_plane():
    assert contains(span(3, [1, 0, 0], [0, 1, 0]), span(3, [1, 0, 0]))
    assert not contains(span(3, [1, 0, 0]), span(3, [1, 1, 0]))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError, match="ambient"):
        subspace_sum(span(2, [1, 0]), span(3, [1, 0, 0]))
    with pytest.raises(ValueError, match="ambient"):
        subspace_intersection(span(2, [1, 0]), span(3, [1, 0, 0]))
    with pytest.raises(ValueError, match="ambient"):
        contains(span(2, [1, 0]), span(3, [1, 0, 0]))


def kernel(rows, cols):
    """``{x : r·x = 0 for every row r}`` as a canonical subspace."""
    return Subspace.from_int_rows(cols, int_kernel(rows, cols))


def test_kernel_of_zero_conditions_is_full():
    assert kernel([], 3) == Subspace.full(3)
    assert kernel([[0, 0, 0], [0, 0, 0]], 3) == Subspace.full(3)


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(3).int_rows(), 3).is_zero()


def test_kernel_single_condition():
    got = kernel([[1, 1, 0]], 3)
    assert got == span(3, [1, -1, 0], [0, 0, 1])


def test_membership_conditions_cut_out_the_subspace():
    # the rows of int_kernel(w) span the annihilator of w; over Q the
    # double annihilator gives back w exactly
    w = span(4, [1, 0, 2, 0], [0, 1, 1, 1])
    conds = int_kernel(w.rows, 4)
    assert kernel(conds, 4) == w


# -- orthogonal complement ---------------------------------------------------


def test_complement_of_zero_is_full():
    assert orthogonal_complement(Subspace.zero(3), Matrix.identity(3)) == Subspace.full(3)


def test_complement_of_axis_with_identity_gram():
    got = orthogonal_complement(span(3, [1, 0, 0]), Matrix.identity(3))
    assert got == span(3, [0, 1, 0], [0, 0, 1])


def test_complement_with_weighted_gram():
    got = orthogonal_complement(span(2, [1, 1]), Matrix.diagonal([1, 2]))
    assert got == span(2, [2, -1])


def test_complement_rejects_non_spd_gram():
    with pytest.raises(ValueError, match="positive definite"):
        orthogonal_complement(span(2, [1, 0]), Matrix.diagonal([1, -1]))
    with pytest.raises(ValueError, match="symmetric"):
        orthogonal_complement(span(2, [1, 0]), Matrix.from_rows([[1, 1], [0, 1]]))


def test_is_positive_definite():
    assert is_positive_definite(Matrix.diagonal([1, 2, 3]))
    assert not is_positive_definite(Matrix.diagonal([1, 0]))
    m = Matrix.from_rows([[2, 1], [1, 2]])
    assert is_positive_definite(m)
    assert not is_positive_definite(Matrix.from_rows([[1, 1], [0, 1]]))
    assert is_positive_definite(Matrix.zero(0, 0))


def sylvester(m: Matrix) -> bool:
    """Oracle: symmetric, and every leading principal minor is positive."""
    return m.is_symmetric() and all(
        Matrix.from_rows([[m.at(i, j) for j in range(k)] for i in range(k)]).det() > 0
        for k in range(1, m.rows + 1)
    )


def congruent_diagonal(diag, upper):
    """Sᵀ·diag·S for an upper triangular S with nonzero diagonal (invertible).

    By Sylvester's law of inertia it is positive definite iff every entry
    of ``diag`` is positive, and indefinite when the signs are mixed.
    """
    n = len(diag)
    s = Matrix.from_rows(
        [[upper[i][j] if j > i else (upper[i][i] or 1) if j == i else 0 for j in range(n)]
         for i in range(n)]
    )
    return s.transpose() @ Matrix.diagonal(diag) @ s


nonzero_rationals = st.builds(
    Fraction, st.integers(1, 5).flatmap(lambda k: st.sampled_from([k, -k])), st.integers(1, 3)
)
positive_rationals = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.lists(positive_rationals, min_size=n, max_size=n), square(n))
    )
)
@settings(max_examples=60, deadline=None)
def test_positive_definite_congruent_diagonal(case):
    m = congruent_diagonal(*case)
    assert is_positive_definite(m) and sylvester(m)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(nonzero_rationals, min_size=n, max_size=n).filter(
                lambda d: min(d) < 0 < max(d)
            ),
            square(n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_indefinite_is_not_positive_definite(case):
    m = congruent_diagonal(*case)
    assert not is_positive_definite(m) and not sylvester(m)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=n - 1
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_singular_semidefinite_is_not_positive_definite(rows):
    # AᵀA with fewer rows than columns: positive semidefinite, rank < n
    a = Matrix.from_rows(rows)
    m = a.transpose() @ a
    assert m.det() == 0
    assert not is_positive_definite(m) and not sylvester(m)


@given(st.integers(1, 4).flatmap(square))
@settings(max_examples=80, deadline=None)
def test_positive_definite_matches_sylvester_on_symmetric_matrices(rows):
    a = Matrix.from_rows(rows)
    m = a + a.transpose()
    assert is_positive_definite(m) == sylvester(m)


# -- property tests ----------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 3)
)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda r: st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


def subspaces(dim):
    return st.lists(
        st.lists(rationals, min_size=dim, max_size=dim), min_size=0, max_size=dim
    ).map(lambda rows: Subspace.from_rows(dim, rows))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rref_idempotent(m):
    reduced = rref(m)
    assert rref(reduced) == reduced


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(subspaces(n), subspaces(n))))
@settings(max_examples=80, deadline=None)
def test_grassmann_identity(pair):
    a, b = pair
    total = subspace_sum(a, b)
    meet = subspace_intersection(a, b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert contains(total, a) and contains(total, b)
    assert contains(a, meet) and contains(b, meet)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(subspaces(n), subspaces(n))))
@settings(max_examples=80, deadline=None)
def test_mutual_containment_is_equality(pair):
    a, b = pair
    both = contains(a, b) and contains(b, a)
    assert both == (a == b)


@given(st.integers(2, 5).flatmap(subspaces))
@settings(max_examples=50, deadline=None)
def test_complement_dimensions_and_orthogonality(a):
    gram = Matrix.identity(a.ambient_dim)
    comp = orthogonal_complement(a, gram)
    assert a.dim + comp.dim == a.ambient_dim
    for u in a.basis_rows():
        for v in comp.basis_rows():
            assert sum(x * y for x, y in zip(u, v)) == 0
    assert subspace_intersection(a, comp).is_zero()


@given(st.integers(1, 5).flatmap(subspaces))
@settings(max_examples=40, deadline=None)
def test_image_under_identity(w):
    assert image_subspace(w, Matrix.identity(w.ambient_dim)) == w


@given(st.lists(rationals, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_clear_denominators_preserves_span(entries):
    # the Matrix constructor is where rationals become integers: den·row
    m = Matrix.from_rows([entries])
    assert m.den > 0 and gcd(m.den, *m.ints) == 1
    assert m.entries == tuple(entries)
    n = len(entries)
    assert Subspace.from_rows(n, [entries]) == Subspace.from_rows(n, [list(m.ints)])


# -- packed vectors ------------------------------------------------------------


@given(
    st.integers(0, 2**70).flatmap(
        lambda bound: st.tuples(
            st.just(bound), st.lists(st.integers(-bound, bound), min_size=0, max_size=8)
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_unpack_inverts_pack_within_the_bound(case):
    bound, values = case
    width = slot_width(bound)
    packed = pack(enumerate(values), width)
    assert unpack(packed, width, len(values)) == values
    assert (packed == 0) == (not any(values))


def test_slot_extremes_round_trip_and_one_bit_less_aliases():
    width = slot_width(2**12 - 1)
    top = 2 ** (width - 1) - 1
    values = [top, -top, -(top + 1), 0, -1, top]
    packed = pack(enumerate(values), width)
    assert unpack(packed, width, len(values)) == values
    assert unpack(pack(enumerate([top, 1]), width - 1), width - 1, 2) != [top, 1]


@given(
    st.integers(1, 6),
    st.lists(st.lists(st.integers(-50, 50), min_size=6, max_size=6), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_packed_sums_are_sums_of_packed(n, vectors):
    # linearity: integer combinations commute with packing at any width
    vectors = [v[:n] for v in vectors]
    combination = [2 * a - 3 * b + c for a, b, c in zip(*vectors)]
    width = slot_width(max(map(abs, combination), default=0))
    packed = [pack(enumerate(v), 3) for v in vectors]  # too narrow to unpack, still linear
    rewidened = [pack(enumerate(v), width) for v in vectors]
    assert unpack(2 * rewidened[0] - 3 * rewidened[1] + rewidened[2], width, n) == combination
    assert 2 * packed[0] - 3 * packed[1] + packed[2] == pack(enumerate(combination), 3)


# -- products ----------------------------------------------------------------


def fraction_product(a, b):
    return Matrix.from_rows(
        [
            [sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)
        ],
        cols=b.cols,
    )


@given(
    st.integers(0, 4).flatmap(
        lambda inner: st.tuples(
            st.integers(1, 4).flatmap(
                lambda r: st.lists(
                    st.lists(rationals, min_size=inner, max_size=inner), min_size=r, max_size=r
                )
            ),
            st.integers(1, 4).flatmap(
                lambda c: st.lists(
                    st.lists(rationals, min_size=c, max_size=c), min_size=inner, max_size=inner
                )
            ),
            st.just(inner),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_product_equals_fraction_product(case):
    left_rows, right_rows, inner = case
    a = Matrix(len(left_rows), inner, tuple(x for r in left_rows for x in r))
    cols = len(right_rows[0]) if right_rows else 2
    b = Matrix(inner, cols, tuple(x for r in right_rows for x in r))
    product = a @ b
    assert product == fraction_product(a, b)
    assert all(isinstance(x, Fraction) for x in product.entries)


# -- the integer Matrix against plain Fraction arithmetic ------------------------


def fraction_det(rows) -> Fraction:
    """Gaussian elimination over ``Fraction`` with row swaps: the oracle for ``det``."""
    work = [[Fraction(a) for a in r] for r in rows]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def rows_of(m: Matrix) -> list[list[Fraction]]:
    return [list(r) for r in m.row_list()]


def assert_canonical(m: Matrix, rows) -> None:
    """m has the value ``rows`` and is stored in lowest terms."""
    assert rows_of(m) == [[Fraction(a) for a in r] for r in rows]
    assert m.den > 0 and gcd(m.den, *m.ints) == 1


def shaped(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


same_shape_pairs = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(shaped(*shape), shaped(*shape))
)


@given(st.integers(0, 5).flatmap(square))
@settings(max_examples=80, deadline=None)
def test_det_equals_fraction_det(rows):
    m = Matrix.from_rows(rows, cols=len(rows))
    assert m.det() == fraction_det(rows)


@given(st.integers(1, 4).flatmap(square))
@settings(max_examples=80, deadline=None)
def test_inverse_equals_fraction_gauss_jordan(rows):
    n = len(rows)
    m = Matrix.from_rows(rows)
    if fraction_det(rows) == 0:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
        return
    augmented = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    assert_canonical(m.inverse(), [r[n:] for r in fraction_rref(augmented, 2 * n)])


@given(same_shape_pairs)
@settings(max_examples=80, deadline=None)
def test_sum_and_difference_equal_fraction_entrywise(pair):
    left, right = pair
    a, b = Matrix.from_rows(left), Matrix.from_rows(right)
    assert_canonical(a + b, [[x + y for x, y in zip(r, t)] for r, t in zip(left, right)])
    assert_canonical(a - b, [[x - y for x, y in zip(r, t)] for r, t in zip(left, right)])


@given(st.integers(1, 4).flatmap(lambda r: shaped(r, 3)), rationals)
@settings(max_examples=80, deadline=None)
def test_scale_and_transpose_equal_fraction_entrywise(rows, c):
    m = Matrix.from_rows(rows)
    assert_canonical(m.scale(c), [[c * x for x in r] for r in rows])
    assert_canonical(m.transpose(), [list(col) for col in zip(*rows)])


@given(st.integers(1, 4).flatmap(lambda r: shaped(r, 3)), nonzero_rationals)
@settings(max_examples=60, deadline=None)
def test_equal_values_give_equal_matrices_and_hashes(rows, c):
    m = Matrix.from_rows(rows)
    back = m.scale(c).scale(1 / c)
    assert back == m and hash(back) == hash(m)
    assert (m - m) == Matrix.zero(m.rows, m.cols) and (m - m).den == 1


def test_equal_values_give_equal_matrices_and_hashes_literal():
    half = Matrix.from_rows([[Fraction(1, 2)]])
    assert half == Matrix.from_rows([[Fraction(2, 4)]]) == Matrix.from_rows([["2/4"]])
    assert hash(half) == hash(Matrix.from_rows([["2/4"]]))
    assert (half.ints, half.den) == ((1,), 2)
    doubled = Matrix.identity(2).scale(2)
    assert doubled == Matrix.from_rows([[2, 0], [0, 2]])
    assert hash(doubled) == hash(Matrix.from_rows([[2, 0], [0, 2]]))
    assert (doubled.ints, doubled.den) == ((2, 0, 0, 2), 1)
    assert half.scale(2) == Matrix.identity(1) and half.scale(2).den == 1
