import pytest

from liecs import (
    HypothesisNotMet,
    Matrix,
    Stratification,
    Subspace,
    blocks_stratification_by_dims,
    builtin,
    build_step2_j_stratification,
    classify_step2,
    is_strata_preserving,
    nilpotent_step,
    stratification_obstructions,
    theorem_suite,
    verify_stratification,
)
from liecs.linalg import basis_vector, subspace_sum
from liecs.verdicts import FAIL, HYPOTHESIS_NOT_MET, PASS

from conftest import (
    conjugate_entry,
    random_invertible,
    random_spd,
    step2_twisted_dim10,
    tilted_strata,
)


def span(n, *indices):
    return Subspace.from_rows(n, [basis_vector(n, i - 1) for i in indices])


# -- verification -------------------------------------------------------------


def test_canonical_stratifications_verify():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        verdict = verify_stratification(entry.algebra, entry.primary_stratification)
        assert verdict.ok, (name, verdict.violations)


def test_kt4_canonical_stratification():
    entry = builtin("kt4")
    s = Stratification((span(4, 1, 2, 4), span(4, 3)))
    assert verify_stratification(entry.algebra, s).ok


def test_ch6_canonical_stratification():
    entry = builtin("ch6")
    s = Stratification((span(6, 1, 2, 3, 4), span(6, 5, 6)))
    assert verify_stratification(entry.algebra, s).ok


def test_broken_sum_rejected():
    entry = builtin("kt4")
    s = Stratification((span(4, 1, 2), span(4, 3)))  # misses e4
    verdict = verify_stratification(entry.algebra, s)
    assert not verdict.ok
    assert any(v.property_name == "direct_sum" for v in verdict.violations)


def test_broken_generation_rejected():
    entry = builtin("kt4")
    s = Stratification((span(4, 1, 2), span(4, 3, 4)))
    verdict = verify_stratification(entry.algebra, s)
    assert not verdict.ok
    assert any(
        v.property_name == "generation" and v.layer == 2 for v in verdict.violations
    )


def test_nonzero_top_bracket_rejected():
    entry = builtin("f4")
    s = Stratification((span(4, 1, 2), span(4, 3, 4)))  # [n_1, n_2] contains e4
    verdict = verify_stratification(entry.algebra, s)
    assert not verdict.ok
    assert any(v.property_name == "top_annihilation" for v in verdict.violations)


def test_overlapping_layers_rejected():
    entry = builtin("kt4")
    s = Stratification((span(4, 1, 2, 3, 4), span(4, 3)))
    verdict = verify_stratification(entry.algebra, s)
    assert not verdict.ok
    assert any(v.property_name == "direct_sum" for v in verdict.violations)


def test_rf8_violation_lists_are_pinned():
    # every violation, in order, with its message: the tilted strata of the
    # golden files, and layers dropped, repeated and reversed
    rf8 = builtin("rf8")
    n1, n2, n3 = rf8.primary_stratification.layers
    cases = [
        (
            tilted_strata(rf8).stratifications[0][1].layers,
            [("generation", 2, "[n_1, n_1] has dimension 3, expected layer of dimension 2")],
        ),
        (
            (n1, n2),
            [
                ("direct_sum", 2, "layers span dimension 6 of 8"),
                ("top_annihilation", 2, "[n_1, n_2] is nonzero (dim 2)"),
            ],
        ),
        (
            (n2, n3),
            [
                ("direct_sum", 2, "layers span dimension 4 of 8"),
                ("generation", 2, "[n_1, n_1] has dimension 0, expected layer of dimension 2"),
            ],
        ),
        (
            (n1, n1, n2, n3),
            [
                ("direct_sum", 2, "layer meets the span of earlier layers in dim 4"),
                ("generation", 2, "[n_1, n_1] has dimension 2, expected layer of dimension 4"),
            ],
        ),
        (
            (n3, n2, n1),
            [
                ("generation", 2, "[n_1, n_1] has dimension 0, expected layer of dimension 2"),
                ("generation", 3, "[n_1, n_2] has dimension 0, expected layer of dimension 4"),
                ("series_match", 2, "sum of layers above 1 differs from the lower central series term"),
                ("series_match", 3, "sum of layers above 2 differs from the lower central series term"),
            ],
        ),
    ]
    for layers, expected in cases:
        verdict = verify_stratification(rf8.algebra, Stratification(tuple(layers)))
        assert [(v.property_name, v.layer, v.detail) for v in verdict.violations] == expected


# -- strata preservation ------------------------------------------------------


def test_strata_preservation_flags():
    ch6 = builtin("ch6")
    assert is_strata_preserving(ch6.primary_structure, ch6.primary_stratification)
    kt4 = builtin("kt4")
    assert not is_strata_preserving(kt4.primary_structure, kt4.primary_stratification)
    a4 = builtin("a4")
    assert is_strata_preserving(a4.primary_structure, a4.primary_stratification)


# -- the step-2 construction --------------------------------------------------


@pytest.mark.parametrize("name", ["ch6", "hh6"])
def test_build_step2_with_random_spd_forms(name, rng):
    entry = builtin(name)
    for _ in range(20):
        phi = random_spd(rng, entry.algebra.dim)
        s = build_step2_j_stratification(entry.primary_structure, phi)
        assert verify_stratification(entry.algebra, s).ok
        assert is_strata_preserving(entry.primary_structure, s)


def test_build_step2_checks_positive_definiteness_of_phi_only(monkeypatch, rng):
    # psi = phi + Jᵀ·phi·J is SPD whenever phi is, so the construction
    # proves it once, on phi, and takes the complement unchecked.
    from liecs import complex_structure, linalg

    checked, check = [], linalg.is_positive_definite

    def counting(gram):
        checked.append(gram)
        return check(gram)

    monkeypatch.setattr(complex_structure, "is_positive_definite", counting)
    monkeypatch.setattr(linalg, "is_positive_definite", counting)
    entry = builtin("ch6")
    phi = random_spd(rng, 6)
    s = build_step2_j_stratification(entry.primary_structure, phi)
    assert checked == [phi]
    assert verify_stratification(entry.algebra, s).ok


def test_build_step2_fails_on_kt4():
    entry = builtin("kt4")
    with pytest.raises(HypothesisNotMet, match="J-invariant"):
        build_step2_j_stratification(entry.primary_structure, Matrix.identity(4))


def test_build_step2_fails_off_step_2():
    a4 = builtin("a4")
    with pytest.raises(HypothesisNotMet, match="step 2"):
        build_step2_j_stratification(a4.primary_structure, Matrix.identity(4))
    f4 = builtin("f4")
    with pytest.raises(HypothesisNotMet, match="step 2"):
        build_step2_j_stratification(f4.primary_structure, Matrix.identity(4))


# -- classification -----------------------------------------------------------


def test_classify_kt4():
    entry = builtin("kt4")
    cls = classify_step2(entry.primary_structure)
    assert cls.case == "k_zero"
    assert cls.predicted_j0 == 2
    assert cls.k_subspace.is_zero()
    assert cls.center_preserving
    assert not cls.strata_preserving


@pytest.mark.parametrize("name", ["ch6", "hh6"])
def test_classify_full_case(name):
    entry = builtin(name)
    cls = classify_step2(entry.primary_structure)
    assert cls.case == "k_full"
    assert cls.predicted_j0 == 2
    assert cls.strata_preserving
    assert cls.center_preserving


def test_classify_rejects_wrong_step():
    a4 = builtin("a4")
    with pytest.raises(HypothesisNotMet, match="step 2"):
        classify_step2(a4.primary_structure)


def _random_span(rng, n, count):
    return Subspace.from_rows(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(count)])


def _candidate_stratifications(rng, alg):
    """Seeded layerings of a step-2 algebra: V ⊕ [n, n] for a random complement V, and near misses."""
    n = alg.dim
    top = alg.descending_series.term(1)
    while True:
        v = _random_span(rng, n, n - top.dim)
        if v.dim == n - top.dim and subspace_sum(v, top).is_full():
            break
    candidates = [
        Stratification((v, top)),
        Stratification((v, _random_span(rng, n, top.dim))),
        Stratification((top, v)),
        Stratification((Subspace.full(n),)),
    ]
    if top.dim >= 2:
        first, rest = top.basis_rows()[:1], top.basis_rows()[1:]
        candidates.append(
            Stratification((v, Subspace.from_rows(n, first), Subspace.from_rows(n, rest)))
        )
        candidates.append(
            Stratification((subspace_sum(v, Subspace.from_rows(n, first)), Subspace.from_rows(n, rest)))
        )
    return candidates


@pytest.mark.parametrize("name", ["kt4", "ch6", "hh6", "fr6"])
def test_verified_stratifications_have_step_two_and_top_layer_c1(name, rng):
    # why classify_step2 reads [n, n] and takes no stratification
    entry = builtin(name)
    inputs = [(entry.algebra, entry.primary_structure, entry.primary_stratification)]
    inputs += [conjugate_entry(entry, random_invertible(rng, entry.algebra.dim)) for _ in range(2)]
    for alg, _, given in inputs:
        top = alg.descending_series.term(1)
        verified = 0
        for s in [given, *_candidate_stratifications(rng, alg)]:
            if verify_stratification(alg, s).ok:
                verified += 1
                assert s.step == 2 and s.layer(2) == top, name
        assert verified >= 2, name


def test_classification_invariant_under_conjugation(rng):
    for name in ("kt4", "ch6", "hh6"):
        entry = builtin(name)
        base = classify_step2(entry.primary_structure)
        for _ in range(5):
            p = random_invertible(rng, entry.algebra.dim)
            alg2, cs2, _ = conjugate_entry(entry, p)
            moved = classify_step2(cs2)
            assert moved.case == base.case
            assert moved.predicted_j0 == base.predicted_j0
            assert moved.k_subspace.dim == base.k_subspace.dim


def test_step2_structures_have_step_two_or_three(rng):
    # every (step-2 algebra, J) pair lands in one of the three cases and
    # j0 is 2 or 3 accordingly
    for name in ("kt4", "ch6", "hh6", "fr6"):
        entry = builtin(name)
        cls = classify_step2(entry.primary_structure)
        assert cls.predicted_j0 in (2, 3)
        report = nilpotent_step(entry.primary_structure)
        assert report.j0 == cls.predicted_j0


def test_classify_proper_case_on_free_two_step():
    entry = builtin("fr6")
    cls = classify_step2(entry.primary_structure)
    assert cls.case == "k_proper"
    assert cls.predicted_j0 == 3
    assert 0 < cls.k_subspace.dim < 3
    assert not cls.strata_preserving and not cls.center_preserving


def test_classify_requires_integrability():
    entry = builtin("hh6")
    swapped = dict(entry.complex_structures)["axis_swapped"]
    with pytest.raises(HypothesisNotMet, match="integrable"):
        classify_step2(swapped)


def test_step2_flag_table_consistency():
    # nilpotent step 2 forces J to preserve the center or the top layer;
    # step 3 happens exactly when it preserves neither
    for name in ("kt4", "ch6", "hh6", "fr6"):
        entry = builtin(name)
        cls = classify_step2(entry.primary_structure)
        if cls.predicted_j0 == 2:
            assert cls.center_preserving or cls.strata_preserving
        else:
            assert not cls.center_preserving and not cls.strata_preserving


def test_stratified_entries_step_equals_layer_count():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        from liecs import nilpotency_step

        assert nilpotency_step(entry.algebra) == entry.primary_stratification.step


# -- obstructions -------------------------------------------------------------


def test_dims_profile_obstruction_synthetic():
    # a 6-dimensional step-3 profile descending 6, 4, 2, 0 blocks stratification
    assert blocks_stratification_by_dims(6, (6, 4, 2, 0))
    assert blocks_stratification_by_dims(8, (8, 6, 4, 2, 0))
    assert not blocks_stratification_by_dims(4, (4, 1, 0))  # kt4 profile
    assert not blocks_stratification_by_dims(6, (6, 2, 0))  # ch6 profile
    assert not blocks_stratification_by_dims(4, (4, 2, 1, 0))  # f4 profile
    # the abelian plane: one layer stratifies it
    assert not blocks_stratification_by_dims(2, (2, 0))


def test_no_stratification_conclusion_fails_on_a_verified_stratification(monkeypatch):
    # no bracket reaches the blocking profile, so force the hypothesis to
    # reach the conclusion: it must refute a stratification that verifies
    monkeypatch.setattr("liecs.stratification.blocks_stratification_by_dims", lambda *_: True)
    entry = builtin("kt4")
    with_strat = stratification_obstructions(entry.algebra, entry.primary_stratification)
    assert with_strat[0].name == "no_stratification_exists"
    assert with_strat[0].status == FAIL
    assert stratification_obstructions(entry.algebra)[0].status == PASS


def test_obstruction_verdicts_on_kt4():
    entry = builtin("kt4")
    verdicts = {
        v.name: v for v in stratification_obstructions(entry.algebra, entry.primary_stratification)
    }
    assert verdicts["no_stratification_exists"].status == HYPOTHESIS_NOT_MET
    assert verdicts["no_strata_preserving_structure"].status == HYPOTHESIS_NOT_MET


def test_obstruction_triggers_on_f4_first_layer():
    entry = builtin("f4")
    verdicts = {
        v.name: v for v in stratification_obstructions(entry.algebra, entry.primary_stratification)
    }
    # dim n_1 = 2 with step >= 2: no strata-preserving J can exist, and
    # indeed the standard block structure is not strata-preserving
    assert verdicts["no_strata_preserving_structure"].status == PASS
    assert not is_strata_preserving(entry.primary_structure, entry.primary_stratification)


# -- theorem suite ------------------------------------------------------------


def suite_by_name(entry):
    return {
        v.name: v
        for v in theorem_suite(entry.primary_structure, entry.primary_stratification)
    }


def test_suite_never_fails_on_catalog():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4"):
        entry = builtin(name)
        for verdict in theorem_suite(entry.primary_structure, entry.primary_stratification):
            assert verdict.status != FAIL, (name, verdict)


def test_suite_ch6_applicable_statements():
    verdicts = suite_by_name(builtin("ch6"))
    assert verdicts["invariant_lower_series_pins_p_chain"].status == PASS
    assert verdicts["strata_preserving_pins_series"].status == PASS
    assert verdicts["terminal_lower_term_forces_invariant_center"].status == PASS
    assert verdicts["two_dim_top_layer_step_two"].status == PASS
    assert verdicts["six_dim_small_derived_invariant_stratification"].status == PASS


def test_suite_kt4_statements():
    verdicts = suite_by_name(builtin("kt4"))
    # c_{k-1} is a proper subspace of the center here, so the invariant-center
    # statement is vacuous
    assert verdicts["terminal_lower_term_forces_invariant_center"].status == HYPOTHESIS_NOT_MET
    # 1-dimensional top layer: the 2-dimensional-layer statements are vacuous
    assert verdicts["two_dim_top_layer_step_two"].status == HYPOTHESIS_NOT_MET
    assert verdicts["strata_preserving_pins_series"].status == HYPOTHESIS_NOT_MET


def test_suite_f4_one_dim_center():
    verdicts = suite_by_name(builtin("f4"))
    assert verdicts["one_dim_center_forces_non_nilpotent"].status == PASS


def test_suite_rf8_step3_statements_fire():
    verdicts = suite_by_name(builtin("rf8"))
    for name in (
        "invariant_lower_series_pins_p_chain",
        "terminal_lower_term_forces_invariant_center",
        "strata_preserving_pins_series",
        "two_dim_terminal_layer_preserved",
        "fixed_third_layer_step_three",
    ):
        assert verdicts[name].status == PASS, name
    # the twisted-third-layer statement stays vacuous: J fixes n_3 here
    assert verdicts["eight_dim_twisted_third_layer_step_four"].status == HYPOTHESIS_NOT_MET


def test_suite_large_twisted_top_needs_the_proven_bound():
    """dim z ∩ Jz = 6 = 4l - dim k on the dim-10 input, where j0 = 2: the statement does not apply.

    The bound dim z ∩ Jz <= 4l - 2 it replaced held here, so the statement failed.
    """
    verdicts = suite_by_name(step2_twisted_dim10())
    assert verdicts["large_twisted_top_layer_step_three"].status == HYPOTHESIS_NOT_MET
    assert not any(v.failed for v in verdicts.values())


def test_suite_abelian_all_sectional_statements_vacuous():
    verdicts = suite_by_name(builtin("a4"))
    for name in (
        "two_dim_top_layer_step_two",
        "large_twisted_top_layer_step_three",
        "fixed_third_layer_step_three",
        "eight_dim_twisted_third_layer_step_four",
        "six_dim_small_derived_invariant_stratification",
    ):
        assert verdicts[name].status == HYPOTHESIS_NOT_MET


def test_suite_without_stratification_skips_layered_statements():
    entry = builtin("ch6")
    verdicts = {v.name: v for v in theorem_suite(entry.primary_structure)}
    assert verdicts["strata_preserving_pins_series"].status == HYPOTHESIS_NOT_MET
    assert verdicts["invariant_lower_series_pins_p_chain"].status == PASS


def test_suite_stable_under_conjugation(rng):
    for name in ("kt4", "ch6"):
        entry = builtin(name)
        base = {
            v.name: v.status
            for v in theorem_suite(entry.primary_structure, entry.primary_stratification)
        }
        for _ in range(3):
            p = random_invertible(rng, entry.algebra.dim)
            alg2, cs2, s2 = conjugate_entry(entry, p)
            moved = {v.name: v.status for v in theorem_suite(cs2, s2)}
            assert moved == base
