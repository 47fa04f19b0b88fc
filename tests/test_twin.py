"""Differential test of the twin: the adapted-basis copy of an input.

``build_report`` and the parse gate decide every fact on ``alg.twin``, the
algebra moved into a basis adapted to its lower central series, and map
the answers back.  Here every subspace and every failure witness of a
report is compared with what the public functions (uncached, computing in
the basis they are given) return in the input basis, on seeded scrambles
of every catalog entry with each of its structures, of ch6⊕ch6, and on
the two faulty golden inputs.  On the scrambled golden inputs the calls
of each report are counted, so a fact computed twice shows.
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import liecs
from liecs import (
    AlgebraFileError,
    HypothesisNotMet,
    Matrix,
    Stratification,
    Subspace,
    ascending_central_series,
    build_report,
    builtin,
    catalog_names,
    center_dim_bounds,
    change_of_basis,
    classify_step2,
    containment_audit,
    descending_central_series,
    image_subspace,
    is_integrable,
    nilpotent_step,
    parse_algebra_file,
    serialize_algebra,
    stratification_obstructions,
    theorem_suite,
    validate,
    validate_almost_complex,
    verify_stratification,
)
from liecs.stratification import stratification_verdict

from conftest import (
    conjugate_entry,
    direct_sum,
    jacobi_violating,
    random_invertible,
    tilted_strata,
)

SEEDS = (1, 2)
ENTRIES = (*catalog_names(), "ch6x2")


def _entry(name):
    return direct_sum(builtin("ch6"), 2) if name == "ch6x2" else builtin(name)


def _scrambles(name):
    """(algebra, [(J name, structure)], stratification) per seed, fresh objects each time."""
    entry = _entry(name)
    for seed in SEEDS:
        p = random_invertible(random.Random(f"twin:{name}:{seed}"), entry.algebra.dim)
        alg, _, strat = conjugate_entry(entry, p)
        structures = [
            (j_name, validate_almost_complex(alg, p @ cs.matrix @ p.inverse()))
            for j_name, cs in entry.complex_structures
        ]
        yield alg, structures, strat


def _is_coordinate_flag(chain) -> bool:
    """Every term is spanned by the last dim-many standard basis vectors."""
    full = Subspace.full(chain.terms[0].ambient_dim)
    return all(t.rows == full.rows[len(full.rows) - t.dim :] for t in chain.terms)


def _battery(cs, strat):
    """The report's verdicts, evaluated in the basis of ``cs``."""
    series = nilpotent_step(cs)
    return (
        *containment_audit(series),
        center_dim_bounds(series),
        *stratification_obstructions(cs.algebra, strat),
        *theorem_suite(cs, strat),
    )


@pytest.mark.parametrize("name", ENTRIES)
def test_report_equals_public_functions_in_the_input_basis(name):
    for alg, structures, strat in _scrambles(name):
        assert alg.validation == validate(alg)
        if strat is not None:
            assert stratification_verdict(alg, strat) == verify_stratification(alg, strat)
            assert stratification_verdict(alg, strat).ok
        c_desc = descending_central_series(alg)
        c_asc = ascending_central_series(alg)
        for j_name, cs in structures:
            report = build_report("report", name, alg, cs, j_name, strat)
            series = nilpotent_step(cs)
            assert report.validation == validate(alg)
            assert report.series.c_desc == c_desc
            assert report.series.c_asc == c_asc
            assert report.series.center == c_asc.term(1)
            assert (report.series.d_asc, report.series.d_desc, report.series.p_desc) == (
                series.d_asc,
                series.d_desc,
                series.p_desc,
            )
            assert report.series.j0 == series.j0
            assert report.integrability == is_integrable(cs)
            assert report.verdicts == _battery(cs, strat)
            try:
                expected = classify_step2(cs)
            except HypothesisNotMet as exc:
                assert report.classification_skip_reason == str(exc)
            else:
                assert report.classification == expected


@pytest.mark.parametrize("name", ENTRIES)
def test_twin_is_the_input_moved_to_its_coordinate_flag(name):
    for alg, structures, _ in _scrambles(name):
        twin = alg.twin
        moved = twin.algebra
        assert moved.twin.algebra is moved
        assert _is_coordinate_flag(moved.descending_series)
        assert descending_central_series(moved) == moved.descending_series
        if twin.basis is None:
            assert moved is alg
            continue
        assert twin.basis @ twin.inverse == Matrix.identity(alg.dim)
        assert change_of_basis(alg, twin.inverse) == moved
        for term, moved_term in zip(alg.descending_series.terms, moved.descending_series.terms):
            assert image_subspace(term, twin.inverse) == moved_term
        for _, cs in structures:
            assert cs.twin.algebra is moved
            assert cs.twin.matrix == twin.inverse @ cs.matrix @ twin.basis


@pytest.mark.parametrize("name", catalog_names())
def test_twin_of_an_own_basis_entry_is_its_algebra(name):
    entry = builtin(name)
    assert entry.algebra.twin.algebra is entry.algebra
    assert entry.algebra.twin.basis is None
    for _, cs in entry.complex_structures:
        assert cs.twin is cs


def test_jacobi_witnesses_come_from_the_input_basis():
    alg = jacobi_violating(random.Random("golden:kt4-jacobi"))
    # the twin fails too, with other triples and residuals
    assert not validate(alg.twin.algebra).ok
    assert validate(alg.twin.algebra) != validate(alg)
    assert alg.validation == validate(alg)
    report = build_report("report", "kt4-jacobi", alg)
    assert report.validation == validate(alg)
    triple = validate(alg).first_violation.triple
    assert report.errors == (f"Jacobi identity violated at basis triple {triple}",)
    with pytest.raises(AlgebraFileError, match=re.escape(f"basis triple {triple}")):
        parse_algebra_file(serialize_algebra(alg))


def test_invalid_strata_verdict_equals_the_input_basis_one():
    entry = tilted_strata(builtin("rf8"))
    p = random_invertible(random.Random("golden:rf8-strata"), 8)
    alg, cs, strat = conjugate_entry(entry, p)
    assert alg.twin.algebra is not alg
    verdict = verify_stratification(alg, strat)
    assert not verdict.ok
    assert stratification_verdict(alg, strat) == verdict
    first = verdict.violations[0]
    with pytest.raises(
        AlgebraFileError, match=f"{first.property_name} fails at layer {first.layer}"
    ):
        parse_algebra_file(serialize_algebra(alg, cs, strat))
    assert verify_stratification(alg.twin.algebra, strat.on_twin(alg.twin)) == verdict
    report = build_report("report", "rf8-strata", alg, cs, "standard", strat)
    assert report.verdicts == _battery(cs, strat)


def test_nijenhuis_witnesses_come_from_the_input_basis():
    (alg, [(j_name, cs)], strat), *_ = _scrambles("f4")
    witnesses = is_integrable(cs)
    assert not witnesses.integrable
    # the twin fails too, at other pairs or with other values
    assert is_integrable(cs.twin) != witnesses
    assert build_report("report", "f4", alg, cs, j_name, strat).integrability == witnesses


# Calls per scrambled golden input, parse plus report, in the order
# validate, nilpotent_step, is_integrable, classify_special, classify_step2,
# verify_stratification.  Two stratification checks on ch6, ch6x3 and hh6:
# the parse gate's verdict on the twin and the step-2 construction's
# self-check.  Two integrability checks on f4: the twin decides, and the
# input basis gives the witnesses.
COUNTED = (
    "validate",
    "nilpotent_step",
    "is_integrable",
    "classify_special",
    "classify_step2",
    "verify_stratification",
)
CALLS_PER_REPORT = {
    "a4": (1, 1, 1, 1, 1, 1),
    "ch6": (1, 1, 1, 1, 1, 2),
    "ch6x3": (1, 1, 1, 1, 1, 2),
    "f4": (1, 1, 2, 1, 1, 1),
    "fr6": (1, 1, 1, 1, 1, 1),
    "hh6": (1, 1, 1, 1, 1, 2),
    "kt4": (1, 1, 1, 1, 1, 1),
    "rf8": (1, 1, 1, 1, 1, 1),
}


@pytest.mark.parametrize("stem", sorted(CALLS_PER_REPORT))
def test_each_fact_is_computed_once_per_report(stem, monkeypatch):
    data = (Path(__file__).parent / "golden" / "scrambled" / f"{stem}.json").read_bytes()
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # every module that binds the function, as ``from .x import f`` does
    for name in COUNTED:
        original = getattr(liecs, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "liecs" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    parsed = parse_algebra_file(data)
    cs, strat = parsed.complex_structure, parsed.stratification
    report = build_report("report", stem, parsed.algebra, cs, "file", strat)
    assert report.verdicts
    assert tuple(calls[name] for name in COUNTED) == CALLS_PER_REPORT[stem]


@pytest.mark.parametrize("command,moves", [("series", 0), ("classify", 0), ("report", 1)])
def test_strata_reach_the_twin_only_for_the_verdicts(command, moves, monkeypatch):
    # in-process, so no parse gate has moved the strata before the report
    alg, structures, strat = next(_scrambles("rf8"))
    j_name, cs = structures[0]
    assert alg.twin.basis is not None
    calls = []
    on_twin = Stratification.on_twin

    def counting(self, twin):
        calls.append(twin)
        return on_twin(self, twin)

    monkeypatch.setattr(Stratification, "on_twin", counting)
    build_report(command, "rf8", alg, cs, j_name, strat)
    assert len(calls) == moves
