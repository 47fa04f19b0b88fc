"""Three-valued check results and the statement tables that produce them.

Every battery of the report (the containment lattice, the center bounds,
the stratification obstructions and the theorem suite) is a tuple of
``Statement``s read by ``evaluate``, the one place that turns a
hypothesis or a conclusion into a ``Verdict``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .linalg import Value

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"


class Verdict(Value):
    """Outcome of one named check.

    ``hypothesis_not_met`` is distinct from ``pass``: a statement whose
    hypotheses fail on the given input was never tested, and reporting it
    as passing would hide vacuity.
    """

    name: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


Hypothesis = tuple[Callable[[Any], bool], str]


class Statement(Value):
    """A named implication: ordered hypotheses, then a conclusion.

    Each hypothesis is a (predicate, not-met reason) pair.  The conclusion
    returns a bool or a (bool, detail) pair.  All of them read one facts
    object, the same for every statement of a table.
    """

    name: str
    hypotheses: tuple[Hypothesis, ...]
    conclusion: Callable[[Any], bool | tuple[bool, str]]


def evaluate(statements: Iterable[Statement], facts: Any) -> list[Verdict]:
    """One verdict per statement, in order.

    The hypotheses are checked in order and the first that fails gives
    ``hypothesis_not_met`` with its reason; nothing after it is called, so
    a later predicate may rely on the earlier ones.  Otherwise the
    conclusion decides ``pass`` or ``fail``.
    """
    verdicts = []
    for statement in statements:
        reason = next((why for holds, why in statement.hypotheses if not holds(facts)), None)
        if reason is not None:
            verdicts.append(Verdict(statement.name, HYPOTHESIS_NOT_MET, reason))
            continue
        outcome = statement.conclusion(facts)
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        verdicts.append(Verdict(statement.name, PASS if ok else FAIL, detail))
    return verdicts
