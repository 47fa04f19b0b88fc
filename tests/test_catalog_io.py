import json
import sys

import pytest

from liecs import (
    AlgebraFileError,
    builtin,
    catalog_names,
    center,
    classify_special,
    classify_step2,
    is_integrable,
    nilpotency_step,
    nilpotent_step,
    parse_algebra_file,
    serialize_algebra,
    serialize_report,
    validate,
    verify_stratification,
)
from liecs.report import build_report
from liecs.serialization import MAX_DIM


# -- catalog ------------------------------------------------------------------


def test_catalog_names():
    assert catalog_names() == ["a4", "ch6", "f4", "fr6", "hh6", "kt4", "nn3", "rf8"]


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown catalog entry"):
        builtin("heis5")


def test_every_call_builds_a_fresh_entry():
    # a shared entry would share memoized facts (validation, the twin) and dicts
    for name in catalog_names():
        first, second = builtin(name), builtin(name)
        assert first == second
        assert first.algebra is not second.algebra
        assert first.expected is not second.expected
        for key, value in first.expected.items():
            assert not isinstance(value, dict) or value is not second.expected[key]


def test_catalog_table_holds_plain_literals():
    # so importing liecs builds no algebra, matrix or subspace
    from liecs.catalog import _TABLE

    def plain(value):
        if isinstance(value, dict):
            return all(plain(k) and plain(v) for k, v in value.items())
        if isinstance(value, tuple):
            return all(map(plain, value))
        return value is None or isinstance(value, (int, str))

    assert plain(_TABLE)


def test_every_entry_validates_and_structures_bind():
    for name in catalog_names():
        entry = builtin(name)
        assert validate(entry.algebra).ok
        for _, cs in entry.complex_structures:
            assert cs.algebra == entry.algebra
        for _, s in entry.stratifications:
            assert verify_stratification(entry.algebra, s).ok


def test_expected_facts_are_rederived():
    """The stored expected facts are oracles: recompute every one."""
    for name in catalog_names():
        entry = builtin(name)
        expected = entry.expected
        assert nilpotency_step(entry.algebra) == expected["step"], name
        assert center(entry.algebra).dim == expected["center_dim"], name
        structures = dict(entry.complex_structures)
        for j_name, j0 in expected.get("j0", {}).items():
            report = nilpotent_step(structures[j_name])
            assert report.j0 == j0, (name, j_name)
        for j_name, flag in expected.get("integrable", {}).items():
            assert is_integrable(structures[j_name]).integrable == flag, (name, j_name)
        for j_name, flag in expected.get("abelian_j", {}).items():
            assert classify_special(structures[j_name]).abelian == flag
        for j_name, flag in expected.get("bi_invariant_j", {}).items():
            assert classify_special(structures[j_name]).bi_invariant == flag
        for j_name, case in expected.get("step2_case", {}).items():
            cls = classify_step2(structures[j_name])
            assert cls.case == case, (name, j_name)
        for j_name, flag in expected.get("strata_preserving", {}).items():
            cls = classify_step2(structures[j_name])
            assert cls.strata_preserving == flag
        for j_name, flag in expected.get("center_preserving", {}).items():
            cls = classify_step2(structures[j_name])
            assert cls.center_preserving == flag


# -- parsing ------------------------------------------------------------------


KT4_FILE = """
{
  "dim": 4,
  "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}],
  "J": [["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "1", "0"]],
  "strata": [[["1","0","0","0"], ["0","1","0","0"], ["0","0","0","1"]],
             [["0","0","1","0"]]]
}
"""


def test_parse_kt4_file_matches_builtin():
    parsed = parse_algebra_file(KT4_FILE)
    entry = builtin("kt4")
    assert parsed.algebra == entry.algebra
    assert parsed.complex_structure.matrix == entry.primary_structure.matrix
    assert parsed.stratification == entry.primary_stratification


def test_parse_syntax_error_carries_position():
    with pytest.raises(AlgebraFileError, match="^syntax error at line 1, column 3: "):
        parse_algebra_file("{ not json }")


def test_parse_rejects_zero_denominator():
    # a negative denominator is outside the "p/q" grammar as well
    for value, message in (("1/0", "zero denominator"), ("1/-2", "not a rational")):
        doc = {"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": value}}]}
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(json.dumps(doc))


def test_parse_rejects_jacobi_violation_with_triple():
    doc = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "out": {"3": "1"}},
            {"i": 1, "j": 3, "out": {"1": "1"}},
        ],
    }
    with pytest.raises(AlgebraFileError, match=r"\(1, 2, 3\)"):
        parse_algebra_file(json.dumps(doc))


def test_parse_rejects_bad_j_square():
    doc = {
        "dim": 2,
        "brackets": [],
        "J": [["1", "0"], ["0", "1"]],
    }
    with pytest.raises(AlgebraFileError, match=r"J\^2 != -I"):
        parse_algebra_file(json.dumps(doc))


def test_parse_enforces_index_order():
    doc = {"dim": 3, "brackets": [{"i": 2, "j": 1, "out": {"3": "1"}}]}
    with pytest.raises(AlgebraFileError, match="i < j"):
        parse_algebra_file(json.dumps(doc))
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 1, "out": {"3": "1"}}]}
    with pytest.raises(AlgebraFileError, match="i < j"):
        parse_algebra_file(json.dumps(doc))


def test_parse_rejects_boolean_integers():
    for doc, message in (
        ({"dim": True, "brackets": []}, "'dim' must be a positive integer"),
        ({"dim": 3, "brackets": [{"i": True, "j": 2, "out": {"3": "1"}}]}, "must be integers"),
        ({"dim": 3, "brackets": [{"i": 1, "j": True, "out": {"3": "1"}}]}, "must be integers"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": True}}]}, "expected a rational string"),
    ):
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(json.dumps(doc))


def test_parse_bounds_the_dimension():
    # checked before the algebra allocates its dim × dim store
    for dim in (MAX_DIM + 1, 1_000_000):
        with pytest.raises(AlgebraFileError, match=f"^'dim' exceeds the limit of {MAX_DIM}$"):
            parse_algebra_file(json.dumps({"dim": dim, "brackets": []}))
    assert parse_algebra_file(json.dumps({"dim": MAX_DIM})).algebra.dim == MAX_DIM


def test_parse_reports_an_integer_literal_over_the_digit_limit():
    # json.loads raises a bare ValueError from int() on such a literal
    limit = sys.get_int_max_str_digits()
    for doc in ('{"dim": %s, "brackets": []}', '{"dim": 2, "brackets": [{"i": %s}]}'):
        message = f"^an integer literal exceeds the limit of {limit} digits$"
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(doc % ("1" * (limit + 1)))


def test_parse_rejects_out_of_range_output():
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"5": "1"}}]}
    with pytest.raises(AlgebraFileError, match="out of range"):
        parse_algebra_file(json.dumps(doc))
    # an output index is ASCII digits only: int() would read these as 10, 3 and 3
    for key in ("1_0", "\u0663", " +3 "):
        doc = {"dim": 10, "brackets": [{"i": 1, "j": 2, "out": {key: "1"}}]}
        with pytest.raises(AlgebraFileError, match=r"output index .* is not an integer"):
            parse_algebra_file(json.dumps(doc))


def test_parse_rejects_duplicate_pairs():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "out": {"3": "1"}},
            {"i": 1, "j": 2, "out": {"3": "2"}},
        ],
    }
    for text, message in (
        (json.dumps(doc), "duplicate"),
        # two spellings of one index, and a literally repeated key, which a
        # plain dict would collapse to its last value
        ('{"dim": 3, "brackets": [{"i": 2, "j": 3, "out": {"1": "1", "01": "2"}}]}',
         r"brackets\[0\]: duplicate output index 1"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": "0"}},'
         ' {"i": 2, "j": 3, "out": {"1": "1", "1": "2"}}]}',
         r"brackets\[1\]: duplicate output index 1"),
    ):
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(text)


def test_parse_rejects_repeated_keys():
    # a plain dict would keep the last value: the dim-3 algebra [e1, e3] = e2
    for text, message in (
        ('{"dim": 2, "dim": 3, "brackets": [{"i": 1, "j": 2, "j": 3, "out": {"2": "1"}}]}',
         "^duplicate key 'dim'$"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "j": 3, "out": {"2": "1"}}]}',
         r"^brackets\[0\]: duplicate key 'j'$"),
    ):
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(text)


def test_parse_rejects_unknown_keys():
    # misspelled "J" and "out": read as absent, they would give the abelian
    # R^3 without J
    for text, message in (
        ('{"dim": 3, "brackets": [], "j": [["0", "1"], ["-1", "0"]]}',
         r"^unknown key 'j' \(expected 'dim', 'brackets', 'J', 'strata'\)$"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "outs": {"3": "1"}}]}',
         r"^brackets\[0\]: unknown key 'outs' \(expected 'i', 'j', 'out'\)$"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "outs": {"3": "1"}}], "j": []}',
         "^unknown key 'j'"),
    ):
        with pytest.raises(AlgebraFileError, match=message):
            parse_algebra_file(text)


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("name", ["a4", "kt4", "ch6", "hh6", "f4", "nn3"])
def test_algebra_serialization_round_trip(name):
    entry = builtin(name)
    data = serialize_algebra(
        entry.algebra, entry.primary_structure, entry.primary_stratification
    )
    parsed = parse_algebra_file(data)
    assert parsed.algebra == entry.algebra
    if entry.primary_structure is None:
        assert parsed.complex_structure is None
    else:
        assert parsed.complex_structure.matrix == entry.primary_structure.matrix
    if entry.primary_stratification is None:
        assert parsed.stratification is None
    else:
        assert parsed.stratification == entry.primary_stratification
    # serialization is canonical: a second pass is byte-identical
    assert (
        serialize_algebra(parsed.algebra, parsed.complex_structure, parsed.stratification)
        == data
    )


# -- report serialization -----------------------------------------------------


def full_report(name):
    entry = builtin(name)
    return build_report(
        "report",
        name,
        entry.algebra,
        entry.primary_structure,
        entry.complex_structures[0][0] if entry.complex_structures else None,
        entry.primary_stratification,
    )


def test_report_json_contains_step():
    data = serialize_report(full_report("kt4"), "json")
    doc = json.loads(data)
    assert doc["series"]["j0"] == 2
    assert doc["series"]["route_agreement"] is True
    assert doc["ok"] is True


def test_report_serialization_deterministic():
    first = serialize_report(full_report("kt4"), "json")
    second = serialize_report(full_report("kt4"), "json")
    assert first == second
    assert serialize_report(full_report("hh6"), "markdown") == serialize_report(
        full_report("hh6"), "markdown"
    )


def test_report_json_round_trips():
    report = full_report("ch6")
    data = serialize_report(report, "json")
    doc = json.loads(data)
    assert (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode() == data
    # the loaded document renders as the report does
    assert serialize_report(doc, "json") == data
    assert serialize_report(doc, "markdown") == serialize_report(report, "markdown")


def test_report_markdown_contains_series_tables():
    text = serialize_report(full_report("ch6"), "markdown").decode()
    for label in ("c_j", "c^j", "d^j", "d_j", "p_j"):
        assert f"### {label}" in text
    assert "| dim |" in text
    assert "Verdicts" in text


def test_report_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        serialize_report(full_report("a4"), "yaml")
