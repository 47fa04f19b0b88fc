import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecs import (
    LieAlgebra,
    Matrix,
    Subspace,
    ascending_central_series,
    bracket_subspaces,
    builtin,
    center,
    change_of_basis,
    contains,
    descending_central_series,
    image_subspace,
    nilpotency_step,
    standard_block_j,
    stratification,
    validate,
    validate_almost_complex,
)
from liecs.algebra import centralizer, memoized
from liecs.report import build_report
from liecs.linalg import basis_vector, vector
from liecs.stratification import verify_stratification

from conftest import (
    conjugate_entry,
    direct_sum,
    fraction_ascending_chain,
    fraction_change_of_basis,
    fraction_rref,
    random_invertible,
)


@pytest.fixture
def kt4():
    return builtin("kt4").algebra


@pytest.fixture
def ch6():
    return builtin("ch6").algebra


# -- construction and bracket ------------------------------------------------


def test_storage_rejects_bad_pairs():
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebra(3, ((1, 1, (Fraction(0),) * 3),))
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebra(3, ((2, 1, (Fraction(0),) * 3),))


def test_the_zero_algebra_is_rejected():
    # as the file format does; it once failed deep inside is_integrable
    with pytest.raises(ValueError, match="dimension must be at least 1, got 0"):
        LieAlgebra(0, [])
    with pytest.raises(ValueError, match="at least 1"):
        LieAlgebra.from_brackets(0, {})


def test_reordered_triples_are_the_same_algebra():
    hh6 = builtin("hh6")
    reordered = LieAlgebra(6, tuple(reversed(hh6.algebra.structure)))
    assert reordered == hh6.algebra and hash(reordered) == hash(hh6.algebra)
    assert reordered.structure == hh6.algebra.structure
    # a J bound to one of two equal algebras is bound to the other
    cs = validate_almost_complex(reordered, hh6.primary_structure.matrix)
    got = build_report("report", "hh6", hh6.algebra, cs, "standard", hh6.primary_stratification)
    want = build_report(
        "report", "hh6", hh6.algebra, hh6.primary_structure, "standard", hh6.primary_stratification
    )
    assert got.ok and got.to_dict() == want.to_dict()


def test_an_explicit_zero_bracket_is_the_abelian_algebra():
    zero = LieAlgebra(4, ((0, 1, (Fraction(0),) * 4),))
    assert zero == LieAlgebra(4, ()) and zero.is_abelian()
    assert zero.structure == ()
    report = build_report("report", "a4", zero, validate_almost_complex(zero, standard_block_j(4)))
    assert report.ok
    (bounds,) = (v for v in report.verdicts if v.name == "center_dimension_bounds")
    assert bounds.status == "hypothesis_not_met"


def test_constants_are_stored_over_their_least_common_denominator():
    alg = LieAlgebra(3, ((0, 1, (Fraction(0), Fraction(0), Fraction(2, 4))), (0, 2, (0, Fraction(1, 6), 0))))
    assert alg.tensor[0] == 6
    assert alg.tensor[1][0][1] == ((2, 3),) and alg.tensor[1][2][0] == ((1, -1),)
    assert alg.structure[0] == (0, 1, (Fraction(0), Fraction(0), Fraction(1, 2)))


def test_bracket_reads_structure_constants(kt4):
    assert kt4.bracket(basis_vector(4, 0), basis_vector(4, 1)) == basis_vector(4, 2)


def test_bracket_antisymmetric_on_random_vectors(kt4):
    rng = random.Random(7)
    for _ in range(20):
        x = vector([rng.randint(-3, 3) for _ in range(4)])
        y = vector([rng.randint(-3, 3) for _ in range(4)])
        assert kt4.bracket(x, x) == (Fraction(0),) * 4
        lhs = kt4.bracket(x, y)
        rhs = kt4.bracket(y, x)
        assert lhs == tuple(-c for c in rhs)


def test_bracket_bilinear_expansion(kt4):
    x = vector([1, 1, 0, 0])
    assert kt4.bracket(x, basis_vector(4, 1)) == basis_vector(4, 2)


def test_bracket_length_mismatch(kt4):
    with pytest.raises(ValueError, match="length"):
        kt4.bracket((Fraction(1),), basis_vector(4, 0))


# -- validation --------------------------------------------------------------


def test_catalog_entries_validate():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4", "nn3"):
        assert validate(builtin(name).algebra).ok, name


@pytest.mark.parametrize(
    "dim,table,triple",
    [
        # kt4 with an extra [e1,e3] = e1: the cyclic sum at (1,2,3) is -e3
        (4, {(1, 2): {3: 1}, (1, 3): {1: 1}}, (1, 2, 3)),
        # complex-Heisenberg variant whose [e1,e3] leaks a generator
        (
            6,
            {(1, 3): {5: 1, 2: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}, (2, 4): {5: -1}},
            (1, 3, 4),
        ),
        # filiform with an extra [e2,e3] = e2
        (4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {2: 1}}, (1, 2, 3)),
    ],
)
def test_mutated_algebras_fail_with_named_triple(dim, table, triple):
    report = validate(LieAlgebra.from_brackets(dim, table))
    assert not report.ok
    assert report.first_violation.triple == triple
    assert any(c != 0 for c in report.first_violation.residual)


def test_validation_reports_do_not_raise():
    bad = LieAlgebra.from_brackets(4, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    report = validate(bad)
    assert report.violations  # structured failure, process continues


# -- central series ----------------------------------------------------------


def test_descending_series_abelian():
    series = descending_central_series(builtin("a4").algebra)
    assert series.dims() == (4, 0)
    assert series.stabilized_at == 1


def test_descending_series_kt4(kt4):
    series = descending_central_series(kt4)
    assert [t.basis_rows() for t in series.terms][1] == [basis_vector(4, 2)]
    assert series.dims() == (4, 1, 0)


def test_descending_series_ch6(ch6):
    series = descending_central_series(ch6)
    assert series.terms[1] == Subspace.from_rows(
        6, [basis_vector(6, 4), basis_vector(6, 5)]
    )
    assert series.dims() == (6, 2, 0)


def test_ascending_series_abelian():
    series = ascending_central_series(builtin("a4").algebra)
    assert series.dims() == (0, 4)


def test_ascending_series_kt4(kt4):
    series = ascending_central_series(kt4)
    assert series.terms[1] == Subspace.from_rows(
        4, [basis_vector(4, 2), basis_vector(4, 3)]
    )
    assert series.dims() == (0, 2, 4)


def test_ascending_series_ch6(ch6):
    series = ascending_central_series(ch6)
    assert series.terms[1] == Subspace.from_rows(
        6, [basis_vector(6, 4), basis_vector(6, 5)]
    )


def test_center_values():
    assert center(builtin("a4").algebra).is_full()
    assert center(builtin("hh6").algebra) == Subspace.from_rows(
        6, [basis_vector(6, 4), basis_vector(6, 5)]
    )
    assert center(builtin("f4").algebra).dim == 1


def test_nilpotency_step_values():
    assert nilpotency_step(builtin("a4").algebra) == 1
    assert nilpotency_step(builtin("kt4").algebra) == 2
    assert nilpotency_step(builtin("fr6").algebra) == 2
    assert nilpotency_step(builtin("f4").algebra) == 3
    assert nilpotency_step(builtin("nn3").algebra) is None


def test_monotonicity_and_centrality_of_series():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4", "nn3"):
        alg = builtin(name).algebra
        full = Subspace.full(alg.dim)
        desc = descending_central_series(alg)
        asc = ascending_central_series(alg)
        for j in range(desc.stabilized_at):
            assert contains(desc.terms[j], desc.terms[j + 1])
            # each quotient c_j / c_{j+1} is central in g / c_{j+1}
            assert contains(
                desc.terms[j + 1], bracket_subspaces(alg, desc.terms[j], full)
            )
        for j in range(asc.stabilized_at):
            assert contains(asc.terms[j + 1], asc.terms[j])


def test_bracket_subspaces_examples(kt4):
    full = Subspace.full(4)
    assert bracket_subspaces(kt4, full, full) == Subspace.from_rows(4, [basis_vector(4, 2)])
    assert bracket_subspaces(kt4, full, Subspace.zero(4)).is_zero()
    a4 = builtin("a4").algebra
    assert bracket_subspaces(a4, Subspace.full(4), Subspace.full(4)).is_zero()


def dense_bracket(alg, x, y):
    """[x, y] expanded from the stored structure triples over Fraction."""
    out = [Fraction(0)] * alg.dim
    for i, j, coeffs in alg.structure:
        w = x[i] * y[j] - x[j] * y[i]
        if w:
            out = [a + w * c for a, c in zip(out, coeffs)]
    return out


def random_rational_invertible(rng, n):
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
        )
        if m.det() != 0:
            return m


@pytest.mark.parametrize("name", ["kt4", "ch6", "fr6", "hh6", "rf8"])
def test_bracket_subspaces_symmetric_memoized_and_equal_to_dense_oracle(name, rng):
    entry = builtin(name)
    alg, _, _ = conjugate_entry(entry, random_rational_invertible(rng, entry.algebra.dim))
    assert any(c.denominator != 1 for _, _, coeffs in alg.structure for c in coeffs)
    n = alg.dim
    spaces = list(alg.descending_series.terms) + [
        Subspace.from_rows(
            n,
            [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)] for _ in range(k)],
        )
        for k in (1, 2, n - 2)
    ]
    for a in spaces:
        for b in spaces:
            ab = bracket_subspaces(alg, a, b)
            assert bracket_subspaces(alg, a, b) is ab
            assert bracket_subspaces(alg, b, a) is ab
            # an algebra with an empty memo, asked in the other order
            assert bracket_subspaces(LieAlgebra(n, alg.structure), b, a) == ab
            generators = [dense_bracket(alg, u, v) for u in a.basis_rows() for v in b.basis_rows()]
            assert ab.basis_rows() == fraction_rref(generators, n)


def test_ascending_series_equals_stacked_maps_oracle(catalog):
    # seeded scrambles of every catalog entry and of ch6 ⊕ ch6 (dense, dim 12)
    entries = [*catalog.values(), direct_sum(catalog["ch6"], 2)]
    for seed, entry in enumerate(entries):
        p = random_rational_invertible(random.Random(seed), entry.algebra.dim)
        alg, _, _ = conjugate_entry(entry, p)
        terms = [t.basis_rows() for t in ascending_central_series(alg).terms]
        assert terms == fraction_ascending_chain(alg), entry.name


# -- the per-object memo -----------------------------------------------------


def test_memoized_keeps_one_memo_per_function():
    class Box:
        pass

    @memoized
    def first(obj, x):
        return ("first", x)

    @memoized
    def second(obj, x):
        return ("second", x)

    box = Box()
    assert first(box, 1) == ("first", 1)
    assert second(box, 1) == ("second", 1)


def test_centralizer_is_memoized_per_object(kt4):
    step = centralizer(kt4, Subspace.zero(4))
    # an equal but distinct argument reads the same entry
    assert centralizer(kt4, Subspace.zero(4)) is step
    # an equal but distinct algebra computes again
    fresh = centralizer(LieAlgebra(kt4.dim, kt4.structure), Subspace.zero(4))
    assert fresh == step and fresh is not step


def test_packed_rows_is_memoized_per_width(kt4):
    assert kt4.packed_rows(8) is kt4.packed_rows(8)
    assert kt4.packed_rows(9) is not kt4.packed_rows(8)


def test_a_call_that_raises_stores_nothing(kt4):
    cs = builtin("kt4").primary_structure
    wide = Subspace.full(6)
    for _ in range(3):
        with pytest.raises(ValueError, match="map width"):
            cs.image(wide)
        with pytest.raises(ValueError, match="ambient dimension"):
            bracket_subspaces(kt4, wide, wide)


def test_stratification_verdict_verifies_once(monkeypatch):
    entry = builtin("kt4")
    alg, strat = entry.algebra, entry.primary_stratification
    calls = []

    def counting(alg, s):
        calls.append(s)
        return verify_stratification(alg, s)

    monkeypatch.setattr(stratification, "verify_stratification", counting)
    first = stratification.stratification_verdict(alg, strat)
    assert stratification.stratification_verdict(alg, strat) is first
    assert first.ok and calls == [strat]


# -- slot widths at their bound ----------------------------------------------
#
# Each packed kernel sizes its slots from a bound on what it unpacks.  Here
# the bound is a power of two 2^k and is attained by a positive entry: a slot
# one bit narrower reads +2^k as -2^k and carries 1 into the next slot.


@pytest.mark.parametrize("k", [3, 62])
def test_packed_bracket_at_its_slot_bound(k):
    # [e_a, e_b] = 2^k e_0 for a in {1, 2}, b in {3, 4}: with u = e_1 + e_2 and
    # v = e_3 + e_4, ‖u‖₁·‖v‖₁·max|C| = 4·2^k = [u, v]_0
    m = 2**k
    alg = LieAlgebra.from_brackets(
        5, {(a, b): {0: m} for a in (1, 2) for b in (3, 4)}, one_based=False
    )
    assert validate(alg).ok
    u, v = vector([0, 1, 1, 0, 0]), vector([0, 0, 0, 1, 1])
    assert alg.bracket(u, v) == vector([4 * m, 0, 0, 0, 0])
    assert alg.bracket(v, u) == vector([-4 * m, 0, 0, 0, 0])
    e0 = Subspace.from_rows(5, [basis_vector(5, 0)])
    assert bracket_subspaces(alg, Subspace.from_rows(5, [u]), Subspace.from_rows(5, [v])) == e0


@pytest.mark.parametrize("k", [3, 62])
def test_centralizer_step_at_its_slot_bound(k):
    # [e_1, e_3] = 2^k e_0 and [e_2, e_3] = -2^k e_0: the center is
    # span(e_0, e_1 + e_2), and the condition rows of its step read the
    # entry +2^k = max|C|·max‖c‖₁ (the conditions of Z(0) are unit rows)
    m = 2**k
    alg = LieAlgebra.from_brackets(4, {(1, 3): {0: m}, (2, 3): {0: -m}}, one_based=False)
    assert validate(alg).ok
    assert center(alg) == Subspace.from_rows(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
    assert ascending_central_series(alg).dims() == (0, 2, 4)


# -- change of basis ---------------------------------------------------------


def test_change_of_basis_identity(kt4):
    assert change_of_basis(kt4, Matrix.identity(4)) == kt4


def test_change_of_basis_swap(kt4):
    p = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    swapped = change_of_basis(kt4, p)
    assert swapped.bracket(basis_vector(4, 0), basis_vector(4, 1)) == basis_vector(4, 3)


def test_change_of_basis_scaling(kt4):
    doubled = change_of_basis(kt4, Matrix.identity(4).scale(2))
    assert doubled.bracket(basis_vector(4, 0), basis_vector(4, 1)) == tuple(
        Fraction(1, 2) if k == 2 else Fraction(0) for k in range(4)
    )


def test_change_of_basis_round_trip(kt4, rng):
    for _ in range(5):
        p = random_invertible(rng, 4)
        assert change_of_basis(change_of_basis(kt4, p), p.inverse()) == kt4


def test_change_of_basis_equals_fraction_oracle(catalog):
    # seeded scrambles with denominators 1-2 of every catalog entry and of
    # ch6 ⊕ ch6 (dim 12, dense constants after the scramble)
    rng = random.Random(2718)
    ch6x2 = direct_sum(catalog["ch6"], 2).algebra
    for alg in [entry.algebra for entry in catalog.values()] + [ch6x2]:
        for _ in range(3):
            while True:
                p = Matrix.from_rows(
                    [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(alg.dim)]
                     for _ in range(alg.dim)]
                )
                if p.det() != 0:
                    break
            assert change_of_basis(alg, p) == fraction_change_of_basis(alg, p)


def test_change_of_basis_rejects_singular(kt4):
    with pytest.raises(ValueError, match="singular"):
        change_of_basis(kt4, Matrix.zero(4, 4))


def test_series_equivariance_under_basis_change(rng):
    # terms transport by p, dimensions and the step are invariant
    for name in ("kt4", "ch6", "hh6", "f4", "nn3"):
        alg = builtin(name).algebra
        for _ in range(10):
            p = random_invertible(rng, alg.dim)
            moved = change_of_basis(alg, p)
            src = descending_central_series(alg)
            dst = descending_central_series(moved)
            assert dst.dims() == src.dims()
            for a, b in zip(src.terms, dst.terms):
                assert image_subspace(a, p) == b
            src_up = ascending_central_series(alg)
            dst_up = ascending_central_series(moved)
            assert dst_up.dims() == src_up.dims()
            for a, b in zip(src_up.terms, dst_up.terms):
                assert image_subspace(a, p) == b
            assert nilpotency_step(moved) == nilpotency_step(alg)


# -- integer fast paths agree with the exact bracket --------------------------

subspace_rows = st.lists(
    st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), min_size=6, max_size=6),
    min_size=0,
    max_size=4,
)


@given(subspace_rows, subspace_rows)
@settings(max_examples=60, deadline=None)
def test_bracket_subspaces_matches_exact_path(rows_a, rows_b):
    # the span computed over cleared integers must equal the span of the
    # exact Fraction brackets
    for name in ("ch6", "fr6"):
        alg = builtin(name).algebra
        a = Subspace.from_rows(6, rows_a)
        b = Subspace.from_rows(6, rows_b)
        fast = bracket_subspaces(alg, a, b)
        exact_rows = [alg.bracket(u, v) for u in a.basis_rows() for v in b.basis_rows()]
        assert fast == Subspace.from_rows(6, exact_rows)


@given(
    subspace_rows,
    st.lists(
        st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)), min_size=6, max_size=6),
        min_size=6,
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_image_subspace_matches_exact_path(rows, map_rows):
    w = Subspace.from_rows(6, rows)
    m = Matrix.from_rows(map_rows)
    fast = image_subspace(w, m)
    exact_rows = [m.matvec(r) for r in w.basis_rows()]
    assert fast == Subspace.from_rows(6, exact_rows)


# -- jacobi property ---------------------------------------------------------

small_entries = st.builds(Fraction, st.integers(-2, 2))


@given(
    st.lists(small_entries, min_size=4, max_size=4),
    st.lists(small_entries, min_size=4, max_size=4),
    st.lists(small_entries, min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_jacobi_extends_to_arbitrary_vectors(x, y, z):
    # validated structure constants satisfy Jacobi for all vectors, not
    # just basis triples
    alg = builtin("ch6").algebra
    x, y, z = (tuple(v) + (Fraction(0),) * 2 for v in (x, y, z))
    s = alg.bracket(alg.bracket(x, y), z)
    s = tuple(
        a + b
        for a, b in zip(s, alg.bracket(alg.bracket(y, z), x))
    )
    s = tuple(
        a + b
        for a, b in zip(s, alg.bracket(alg.bracket(z, x), y))
    )
    assert all(c == 0 for c in s)
