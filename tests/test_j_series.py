import random

import pytest

from liecs import (
    Subspace,
    builtin,
    center,
    center_dim_bounds,
    containment_audit,
    contains,
    image_subspace,
    j_ascending_series,
    j_descending_series,
    largest_j_invariant_subspace,
    nilpotent_step,
    p_series,
    subspace_intersection,
)
from liecs.linalg import basis_vector
from liecs.verdicts import HYPOTHESIS_NOT_MET, PASS

from conftest import conjugate_entry, direct_sum, fraction_ascending_chain, random_invertible


def span(n, *indices):
    return Subspace.from_rows(n, [basis_vector(n, i - 1) for i in indices])


# -- chain values -------------------------------------------------------------


def test_ascending_chain_kt4():
    entry = builtin("kt4")
    chain = j_ascending_series(entry.primary_structure)
    assert chain.terms == (Subspace.zero(4), span(4, 3, 4), Subspace.full(4))
    z = center(entry.algebra)
    assert chain.term(1) == subspace_intersection(
        z, entry.primary_structure.image(z)
    )


def test_ascending_chain_abelian():
    entry = builtin("a4")
    chain = j_ascending_series(entry.primary_structure)
    assert chain.terms == (Subspace.zero(4), Subspace.full(4))


def test_ascending_chain_ch6():
    entry = builtin("ch6")
    chain = j_ascending_series(entry.primary_structure)
    assert chain.terms == (Subspace.zero(6), span(6, 5, 6), Subspace.full(6))


def test_descending_chain_values():
    kt4 = builtin("kt4")
    chain = j_descending_series(kt4.primary_structure)
    assert chain.terms == (Subspace.full(4), span(4, 3, 4), Subspace.zero(4))
    a4 = builtin("a4")
    chain = j_descending_series(a4.primary_structure)
    assert chain.terms == (Subspace.full(4), Subspace.zero(4))
    ch6 = builtin("ch6")
    chain = j_descending_series(ch6.primary_structure)
    assert chain.terms == (Subspace.full(6), span(6, 5, 6), Subspace.zero(6))


def test_p_chain_values():
    kt4 = builtin("kt4")
    chain = p_series(kt4.primary_structure)
    assert chain.terms == (Subspace.full(4), span(4, 3), Subspace.zero(4))
    a4 = builtin("a4")
    assert p_series(a4.primary_structure).dims() == (4, 0)
    ch6 = builtin("ch6")
    chain = p_series(ch6.primary_structure)
    assert chain.terms == (Subspace.full(6), span(6, 5, 6), Subspace.zero(6))


def test_chain_terms_are_ideals_and_monotone():
    from liecs import bracket_subspaces

    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        alg, cs = entry.algebra, entry.primary_structure
        full = Subspace.full(alg.dim)
        for chain, descending in (
            (j_ascending_series(cs), False),
            (j_descending_series(cs), True),
            (p_series(cs), True),
        ):
            for j in range(chain.stabilized_at):
                lo, hi = chain.terms[j], chain.terms[j + 1]
                if descending:
                    lo, hi = hi, lo
                assert contains(hi, lo)
            for term in chain.terms:
                assert contains(term, bracket_subspaces(alg, term, full))


def test_d_chains_are_j_invariant_pointwise():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        cs = entry.primary_structure
        for chain in (
            j_ascending_series(cs),
            j_descending_series(cs),
        ):
            for term in chain.terms:
                assert cs.image(term) == term


# -- nilpotent step -----------------------------------------------------------


def test_nilpotent_step_catalog_values():
    expected = {"a4": 1, "kt4": 2, "ch6": 2, "hh6": 2, "fr6": 3, "rf8": 3, "f4": None}
    for name, j0 in expected.items():
        entry = builtin(name)
        report = nilpotent_step(entry.primary_structure)
        assert report.j0 == j0, name
        assert report.route_agreement


def test_series_report_reads_the_algebra_of_its_structure():
    cs = builtin("fr6").primary_structure
    report = nilpotent_step(cs)
    assert report.algebra is cs.algebra
    assert report.c_desc is cs.algebra.descending_series
    assert report.c_asc is cs.algebra.ascending_series


def test_one_dim_center_forces_non_nilpotent_structure():
    entry = builtin("f4")
    assert center(entry.algebra).dim == 1
    report = nilpotent_step(entry.primary_structure)
    assert report.j0 is None


def test_first_ascending_term_is_center_core():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        cs = entry.primary_structure
        report = nilpotent_step(cs)
        z = report.center
        assert report.d_asc.term(1) == largest_j_invariant_subspace(cs, z)
        assert report.d_asc.term(1).dim % 2 == 0


def test_step_bounds_when_nilpotent():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8"):
        entry = builtin(name)
        report = nilpotent_step(entry.primary_structure)
        k = report.algebra_step
        assert k is not None and report.j0 is not None
        assert k <= report.j0 <= entry.algebra.dim // 2


def test_abelian_quotient_characterization():
    # the step of J is exactly the least k with [n, n] ⊆ d^{k-1}
    from liecs import bracket_subspaces

    for name in ("kt4", "ch6", "hh6", "fr6", "rf8"):
        entry = builtin(name)
        alg, cs = entry.algebra, entry.primary_structure
        report = nilpotent_step(cs)
        derived = bracket_subspaces(alg, Subspace.full(alg.dim), Subspace.full(alg.dim))
        least = next(
            k
            for k in range(1, alg.dim + 2)
            if contains(report.d_asc.term(k - 1), derived)
        )
        assert least == report.j0


def test_dual_containment_lemma():
    # d_j ⊆ d^{j0-j} for all j when J is nilpotent, and j0 is exactly the
    # least k for which the whole family of containments d_j ⊆ d^{k-j} holds
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8"):
        entry = builtin(name)
        report = nilpotent_step(entry.primary_structure)
        zero = Subspace.zero(entry.algebra.dim)

        def family_holds(k):
            span = report.d_desc.stabilized_at
            for j in range(max(span, k) + 1):
                upper = report.d_asc.term(k - j) if k - j >= 0 else zero
                if not contains(upper, report.d_desc.term(j)):
                    return False
            return True

        least = next(k for k in range(1, entry.algebra.dim + 2) if family_holds(k))
        assert least == report.j0


def test_preservation_equivalences():
    # J preserves every ascending term iff the J-variant ascending chain
    # coincides with it, and likewise on the descending side
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        cs = entry.primary_structure
        report = nilpotent_step(cs)

        asc = report.c_asc
        span_up = max(asc.stabilized_at, report.d_asc.stabilized_at)
        preserves_up = all(
            cs.image(asc.term(j)) == asc.term(j) for j in range(span_up + 1)
        )
        chains_match_up = all(
            report.d_asc.term(j) == asc.term(j) for j in range(span_up + 1)
        )
        assert preserves_up == chains_match_up, name

        desc = report.c_desc
        span_dn = max(desc.stabilized_at, report.d_desc.stabilized_at)
        preserves_dn = all(
            cs.image(desc.term(j)) == desc.term(j) for j in range(span_dn + 1)
        )
        chains_match_dn = all(
            report.d_desc.term(j) == desc.term(j) for j in range(span_dn + 1)
        )
        assert preserves_dn == chains_match_dn, name


# -- audit and bounds ---------------------------------------------------------


def test_containment_audit_passes_on_catalog():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        report = nilpotent_step(entry.primary_structure)
        verdicts = containment_audit(report)
        assert not any(v.failed for v in verdicts), name
        statuses = {v.name: v.status for v in verdicts}
        if report.j0 is None:
            assert statuses["nested_chain_with_dual"] == HYPOTHESIS_NOT_MET
        else:
            assert statuses["nested_chain_with_dual"] == PASS


def test_audit_p_equals_c_on_bi_invariant_entry():
    entry = builtin("ch6")
    report = nilpotent_step(entry.primary_structure)
    span_j = max(report.c_desc.stabilized_at, report.p_desc.stabilized_at)
    for j in range(span_j + 1):
        assert report.p_desc.term(j) == report.c_desc.term(j)


def test_center_dim_bounds_catalog():
    kt4 = builtin("kt4")
    rep = nilpotent_step(kt4.primary_structure)
    assert center_dim_bounds(rep).status == PASS

    ch6 = builtin("ch6")
    rep = nilpotent_step(ch6.primary_structure)
    assert center_dim_bounds(rep).status == PASS

    a4 = builtin("a4")
    rep = nilpotent_step(a4.primary_structure)
    verdict = center_dim_bounds(rep)
    assert verdict.status == HYPOTHESIS_NOT_MET and "abelian" in verdict.detail

    f4 = builtin("f4")
    rep = nilpotent_step(f4.primary_structure)
    assert center_dim_bounds(rep).status == HYPOTHESIS_NOT_MET


# -- equivariance -------------------------------------------------------------


def test_minimal_even_dimension_pipeline():
    # dim 2 abelian: the smallest algebra carrying a complex structure
    from liecs import LieAlgebra, Matrix, containment_audit, validate_almost_complex

    a2 = LieAlgebra.from_brackets(2, {})
    cs = validate_almost_complex(a2, Matrix.from_rows([[0, -1], [1, 0]]))
    report = nilpotent_step(cs)
    assert report.j0 == 1
    assert report.d_asc.dims() == (0, 2)
    assert not any(v.failed for v in containment_audit(report))


def test_route_disagreement_is_a_hard_failure(monkeypatch):
    # the three routes agree by theorem; a disagreement can only mean a bug,
    # so it must raise rather than produce a report
    import liecs.j_series as js
    from liecs import InconsistencyError, SubspaceChain

    entry = builtin("kt4")
    truncated = SubspaceChain((Subspace.full(4),))
    monkeypatch.setattr(js, "p_series", lambda cs: truncated)
    with pytest.raises(InconsistencyError, match="routes disagree"):
        js.nilpotent_step(entry.primary_structure)


def test_chain_stabilization_cap_is_a_hard_failure():
    from liecs import InconsistencyError
    from liecs.algebra import chain_until_stable

    flip = [Subspace.zero(2), Subspace.full(2)]
    with pytest.raises(InconsistencyError, match="stabilize"):
        chain_until_stable(flip[0], lambda prev: flip[prev.dim == 0])


def test_series_transport_under_conjugation(rng):
    for name in ("kt4", "ch6", "hh6", "f4"):
        entry = builtin(name)
        base = nilpotent_step(entry.primary_structure)
        for _ in range(5):
            p = random_invertible(rng, entry.algebra.dim)
            alg2, cs2, _ = conjugate_entry(entry, p)
            moved = nilpotent_step(cs2)
            assert moved.j0 == base.j0
            for chain_name in ("d_asc", "d_desc", "p_desc"):
                src = getattr(base, chain_name)
                dst = getattr(moved, chain_name)
                assert dst.dims() == src.dims()
                for a, b in zip(src.terms, dst.terms):
                    assert image_subspace(a, p) == b


def test_j_ascending_series_equals_stacked_maps_oracle(catalog):
    # d^j from Z ∩ J·Z against the maps ad_i and ad_i∘J, on seeded scrambles
    # of every catalog entry with a J and of ch6 ⊕ ch6 (dense, dim 12)
    entries = [e for e in catalog.values() if e.primary_structure is not None]
    for seed, entry in enumerate([*entries, direct_sum(catalog["ch6"], 2)]):
        p = random_invertible(random.Random(seed), entry.algebra.dim)
        alg, cs, _ = conjugate_entry(entry, p)
        terms = [t.basis_rows() for t in j_ascending_series(cs).terms]
        assert terms == fraction_ascending_chain(alg, cs.matrix), entry.name
