"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is exact: expected values were derived by hand or by an
independent oracle and frozen, and all comparisons are rational equality,
never tolerance-based.  The only floats live inside the structure search,
whose results are re-verified exactly before being accepted.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import json
import random
import subprocess
import sys

import pytest

from liecs import (
    LieAlgebra,
    Matrix,
    builtin,
    build_step2_j_stratification,
    center,
    classify_step2,
    containment_audit,
    contains,
    find_complex_structure,
    image_subspace,
    is_integrable,
    is_strata_preserving,
    largest_j_invariant_subspace,
    nilpotency_step,
    nilpotent_step,
    subspace_sum,
    theorem_suite,
    validate,
    verify_stratification,
)
from liecs.errors import HypothesisNotMet

import liecs.search as search_module

from conftest import conjugate_entry, random_invertible, random_spd
from test_complex_structure import oracle_integrable

NILPOTENT_ENTRIES = ("a4", "kt4", "ch6", "hh6", "fr6", "rf8")
CONJUGATIONS = 50


def _line(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def conjugated():
    """50 seeded random basis changes per entry, with series and audits.

    Shared by the route-agreement, containment, identity, and equivariance
    criteria so the heavy series computations run once.
    """
    rng = random.Random(987123)
    data = {}
    for name in NILPOTENT_ENTRIES:
        entry = builtin(name)
        base = nilpotent_step(entry.primary_structure)
        cases = []
        for _ in range(CONJUGATIONS):
            p = random_invertible(rng, entry.algebra.dim)
            alg2, cs2, strat2 = conjugate_entry(entry, p)
            report = nilpotent_step(cs2)
            cases.append(
                {
                    "p": p,
                    "alg": alg2,
                    "cs": cs2,
                    "strat": strat2,
                    "report": report,
                    "audit": containment_audit(report),
                }
            )
        data[name] = {"entry": entry, "base": base, "cases": cases}
    return data


def test_criterion_01_validation():
    for name in ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4", "nn3"):
        assert validate(builtin(name).algebra).ok, name

    mutants = [
        (4, {(1, 2): {3: 1}, (1, 3): {1: 1}}, (1, 2, 3)),
        (
            6,
            {(1, 3): {5: 1, 2: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}, (2, 4): {5: -1}},
            (1, 3, 4),
        ),
        (4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {2: 1}}, (1, 2, 3)),
    ]
    for dim, table, triple in mutants:
        report = validate(LieAlgebra.from_brackets(dim, table))
        assert not report.ok
        assert report.first_violation.triple == triple
    _line(1, "catalog validates; 3 mutants fail with named triples")


def test_criterion_02_integrability_with_independent_oracle():
    for name in ("kt4", "ch6", "hh6"):
        entry = builtin(name)
        cs = entry.primary_structure
        assert is_integrable(cs).integrable, name
        ok, _ = oracle_integrable(entry.algebra, cs.matrix)
        assert ok, f"oracle disagrees on {name}"

    entry = builtin("hh6")
    swapped = dict(entry.complex_structures)["axis_swapped"]
    report = is_integrable(swapped)
    assert not report.integrable
    assert report.witnesses[0][:2] == (1, 2)
    ok, pair = oracle_integrable(entry.algebra, swapped.matrix)
    assert not ok and pair == (1, 2)
    _line(2, "kt4/ch6/hh6 integrable per oracle; swapped hh6 fails at pair (1, 2)")


def test_criterion_03_route_agreement(conjugated):
    expected_j0 = {"a4": 1, "kt4": 2, "ch6": 2, "hh6": 2, "fr6": 3, "rf8": 3}
    for name in NILPOTENT_ENTRIES:
        assert conjugated[name]["base"].j0 == expected_j0[name]
        for case in conjugated[name]["cases"]:
            report = case["report"]
            # nilpotent_step raises if the three routes disagree; assert
            # the value and the recorded agreement anyway
            assert report.route_agreement
            assert report.j0 == expected_j0[name]
    _line(3, f"three j0 routes agree on catalog + {CONJUGATIONS} conjugates each")


def test_criterion_04_containment_lattice(conjugated):
    def check(report, cs, audit):
        span = max(
            report.c_desc.stabilized_at,
            report.p_desc.stabilized_at,
            report.d_desc.stabilized_at,
        )
        for j in range(span + 1):
            c_j = report.c_desc.term(j)
            p_j = report.p_desc.term(j)
            d_j = report.d_desc.term(j)
            assert contains(p_j, c_j)
            assert contains(d_j, p_j)
            assert contains(d_j, cs.image(p_j))
        assert report.j0 is not None
        for j in range(report.j0 + 1):
            c_cl = subspace_sum(report.c_desc.term(j), cs.image(report.c_desc.term(j)))
            p_cl = subspace_sum(report.p_desc.term(j), cs.image(report.p_desc.term(j)))
            d_j = report.d_desc.term(j)
            dual = report.d_asc.term(report.j0 - j)
            assert contains(p_cl, c_cl)
            assert contains(d_j, p_cl)
            assert contains(dual, d_j)
        assert not any(v.failed for v in audit)

    for name in NILPOTENT_ENTRIES:
        entry = conjugated[name]["entry"]
        base = conjugated[name]["base"]
        check(base, entry.primary_structure, containment_audit(base))
        for case in conjugated[name]["cases"]:
            check(case["report"], case["cs"], case["audit"])
    _line(4, "containment lattice holds with zero violations on the population")


def test_criterion_05_center_core_identity(conjugated):
    def check(alg, cs, report):
        z = report.center
        d1 = report.d_asc.term(1)
        assert d1 == largest_j_invariant_subspace(cs, z)
        assert d1.dim % 2 == 0
        if report.j0 is not None:
            k = nilpotency_step(alg)
            assert k is not None
            assert k <= report.j0 <= alg.dim // 2

    for name in NILPOTENT_ENTRIES:
        entry = conjugated[name]["entry"]
        check(entry.algebra, entry.primary_structure, conjugated[name]["base"])
        for case in conjugated[name]["cases"]:
            check(case["alg"], case["cs"], case["report"])
    # the non-nilpotent-J entry satisfies the identity too
    f4 = builtin("f4")
    rep = nilpotent_step(f4.primary_structure)
    assert rep.d_asc.term(1) == largest_j_invariant_subspace(
        f4.primary_structure, center(f4.algebra)
    )
    _line(5, "d^1 = z ∩ Jz exactly, even-dimensional; k <= j0 <= dim/2 when defined")


def test_criterion_06_center_dimension_bounds():
    expectations = {
        "kt4": (2, 2, 2),
        "ch6": (2, 2, 4),
        "hh6": (2, 2, 4),
        "fr6": (3, 2, 4),
        "rf8": (2, 2, 6),
    }
    for name, (dim_z, lo, hi) in expectations.items():
        entry = builtin(name)
        report = nilpotent_step(entry.primary_structure)
        assert report.j0 is not None and not entry.algebra.is_abelian()
        z = center(entry.algebra)
        assert z.dim == dim_z
        assert lo <= z.dim <= hi
        assert hi == entry.algebra.dim - 2
    _line(6, "2 <= dim z <= dim - 2 on every non-abelian entry with nilpotent J")


def test_criterion_07_step2_construction(rng):
    for name in ("ch6", "hh6"):
        entry = builtin(name)
        for _ in range(20):
            phi = random_spd(rng, entry.algebra.dim)
            s = build_step2_j_stratification(entry.primary_structure, phi)
            assert verify_stratification(entry.algebra, s).ok
            assert is_strata_preserving(entry.primary_structure, s)
    kt4 = builtin("kt4")
    with pytest.raises(HypothesisNotMet, match="J-invariant"):
        build_step2_j_stratification(kt4.primary_structure, Matrix.identity(4))
    _line(7, "step-2 construction verifies for 20 random SPD forms; kt4 rejected")


def test_criterion_08_step2_classification(conjugated):
    expected = {
        "kt4": ("k_zero", 2, {"center_preserving": True, "strata_preserving": False}),
        "ch6": ("k_full", 2, {"strata_preserving": True, "center_preserving": True}),
        "hh6": ("k_full", 2, {"strata_preserving": True, "center_preserving": True}),
        "fr6": ("k_proper", 3, {"strata_preserving": False, "center_preserving": False}),
    }
    for name, (case_name, j0, flags) in expected.items():
        entry = builtin(name)
        cls = classify_step2(entry.primary_structure)
        assert cls.case == case_name
        assert cls.predicted_j0 == j0
        for flag, value in flags.items():
            assert getattr(cls, flag) == value, (name, flag)
        report = nilpotent_step(entry.primary_structure)
        assert report.j0 == cls.predicted_j0
        assert cls.predicted_j0 in (2, 3)
        # classification is basis-independent, prediction always matches
        for case in conjugated[name]["cases"][:10]:
            moved = classify_step2(case["cs"])
            assert moved.case == case_name
            assert moved.predicted_j0 == case["report"].j0
    _line(8, "classification cases and predicted j0 match computed j0 everywhere")


def test_criterion_09_invariant_series_consequences():
    # bi-invariant entry: all lower central terms J-invariant => p_j = c_j
    entry = builtin("ch6")
    cs = entry.primary_structure
    report = nilpotent_step(cs)
    for j in range(report.c_desc.stabilized_at + 1):
        term = report.c_desc.term(j)
        assert cs.image(term) == term
    span = max(report.c_desc.stabilized_at, report.p_desc.stabilized_at)
    for j in range(span + 1):
        assert report.p_desc.term(j) == report.c_desc.term(j)
    assert report.j0 == report.algebra_step

    # entries whose last nonzero lower term is the center: J fixes the center
    for name in ("a4", "ch6", "hh6", "rf8"):
        entry = builtin(name)
        cs = entry.primary_structure
        report = nilpotent_step(cs)
        k = report.algebra_step
        assert report.j0 == k
        z = report.center
        assert report.c_desc.term(k - 1) == z
        assert cs.image(z) == z
    _line(9, "p_j = c_j and j0 = k on ch6; J z = z whenever c_{k-1} = z")


def test_criterion_10_equivariance(conjugated):
    chains = ("c_desc", "c_asc", "d_asc", "d_desc", "p_desc")
    for name in NILPOTENT_ENTRIES:
        entry = conjugated[name]["entry"]
        base = conjugated[name]["base"]
        base_suite = {
            v.name: v.status
            for v in theorem_suite(entry.primary_structure, entry.primary_stratification)
        }
        base_audit = [
            (v.name, v.status) for v in containment_audit(base)
        ]
        base_case = None
        if base.algebra_step == 2:
            base_case = classify_step2(entry.primary_structure).case
        for case in conjugated[name]["cases"]:
            report = case["report"]
            assert report.j0 == base.j0
            for chain_name in chains:
                src = getattr(base, chain_name)
                dst = getattr(report, chain_name)
                assert dst.dims() == src.dims()
                for a, b in zip(src.terms, dst.terms):
                    assert image_subspace(a, case["p"]) == b
            if base_case is not None:
                moved = classify_step2(case["cs"])
                assert moved.case == base_case
            moved_suite = {
                v.name: v.status
                for v in theorem_suite(case["cs"], case["strat"])
            }
            assert moved_suite == base_suite
            assert [(v.name, v.status) for v in case["audit"]] == base_audit
    _line(
        10,
        f"series/j0/case/verdicts invariant under {CONJUGATIONS} basis changes; terms transport",
    )


def test_criterion_11_search_gate(monkeypatch):
    vetted = []
    original = search_module._verify_candidate

    def spying_gate(alg, j):
        result = original(alg, j)
        vetted.append((j, result is not None))
        return result

    monkeypatch.setattr(search_module, "_verify_candidate", spying_gate)
    for name in ("a4", "kt4"):
        entry = builtin(name)
        vetted.clear()
        cs = find_complex_structure(entry.algebra, seed=0, budget=100)
        assert cs is not None
        assert is_integrable(cs).integrable
        square = cs.matrix @ cs.matrix
        assert square == Matrix.identity(entry.algebra.dim).scale(-1)
        # the returned matrix went through the gate and passed it
        assert any(passed and j == cs.matrix for j, passed in vetted)
    _line(11, "search returns only exactly re-verified structures on a4 and kt4")


def test_criterion_12_cli_end_to_end(tmp_path):
    run = [sys.executable, "-m", "liecs.cli"]
    names = ("a4", "kt4", "ch6", "hh6", "fr6", "rf8", "f4", "nn3")
    for name in names:
        result = subprocess.run(
            run + ["-i", name, "--cmd", "report"], capture_output=True, text=True
        )
        assert result.returncode == 0, (name, result.stderr)
        doc = json.loads(result.stdout)
        assert doc["schema"] == "liecs.report/1"
        assert doc["ok"] is True
        assert doc["validation"]["ok"] is True

    # determinism: identical invocations produce identical bytes
    first = subprocess.run(run + ["-i", "ch6", "--cmd", "report"], capture_output=True)
    second = subprocess.run(run + ["-i", "ch6", "--cmd", "report"], capture_output=True)
    assert first.stdout == second.stdout

    # failed validation: exit 1 with the triple in the report
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 4,
                "brackets": [
                    {"i": 1, "j": 2, "out": {"3": "1"}},
                    {"i": 1, "j": 3, "out": {"1": "1"}},
                ],
            }
        )
    )
    result = subprocess.run(
        run + ["-i", str(bad), "--cmd", "report"], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert "(1, 2, 3)" in json.loads(result.stdout)["errors"][0]

    # usage error: exit 2
    result = subprocess.run(run + ["--cmd", "report"], capture_output=True)
    assert result.returncode == 2
    _line(12, "CLI reports deterministic and schema-valid; exit statuses per contract")
