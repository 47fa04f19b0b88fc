import pytest

from liecs import j_series, stratification
from liecs.verdicts import FAIL, HYPOTHESIS_NOT_MET, PASS, Statement, Verdict, evaluate


def never(facts):
    raise AssertionError("called after a failed hypothesis")


def test_first_failing_hypothesis_gives_the_reason():
    statement = Statement(
        "s",
        (
            (lambda f: f > 0, "not positive"),
            (lambda f: f > 10, "not above ten"),
            (lambda f: f > 100, "not above a hundred"),
        ),
        lambda f: True,
    )
    assert evaluate([statement], 5) == [Verdict("s", HYPOTHESIS_NOT_MET, "not above ten")]
    assert evaluate([statement], -5) == [Verdict("s", HYPOTHESIS_NOT_MET, "not positive")]
    assert evaluate([statement], 500) == [Verdict("s", PASS, "")]


def test_nothing_after_a_failed_hypothesis_is_called():
    # the second predicate would fail on None, as s.layer(...) does on a
    # missing stratification; the first one guards it
    statement = Statement(
        "guarded",
        ((lambda f: f is not None, "nothing supplied"), (lambda f: f.layer(1), "unused"), (never, "")),
        never,
    )
    assert evaluate([statement], None) == [Verdict("guarded", HYPOTHESIS_NOT_MET, "nothing supplied")]


def test_conclusion_as_bool_or_with_detail():
    table = (
        Statement("bool_pass", (), lambda f: True),
        Statement("bool_fail", (), lambda f: False),
        Statement("detail_pass", (), lambda f: (True, f"f = {f}")),
        Statement("detail_fail", (), lambda f: (False, "broken")),
    )
    assert evaluate(table, 3) == [
        Verdict("bool_pass", PASS, ""),
        Verdict("bool_fail", FAIL, ""),
        Verdict("detail_pass", PASS, "f = 3"),
        Verdict("detail_fail", FAIL, "broken"),
    ]


@pytest.mark.parametrize(
    "table",
    [j_series.AUDIT, j_series.BOUNDS, stratification.OBSTRUCTIONS, stratification.SUITE],
    ids=["audit", "bounds", "obstructions", "suite"],
)
def test_statement_names_are_unique_within_each_table(table):
    names = [statement.name for statement in table]
    assert len(set(names)) == len(names)
    assert all(isinstance(statement, Statement) for statement in table)
