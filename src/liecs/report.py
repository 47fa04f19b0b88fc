"""Assembly of the full analysis pipeline into one reportable object."""

from __future__ import annotations

from .algebra import LieAlgebra, ValidationReport, memoized
from .complex_structure import (
    ComplexStructure,
    IntegrabilityReport,
    SpecialFlags,
    classify_special,
)
from .errors import HypothesisNotMet
from .j_series import SeriesReport, center_dim_bounds, containment_audit
from .linalg import Value, format_rational
from .serialization import SERIES, chain_to_json, subspace_to_json
from .stratification import (
    Step2Classification,
    Stratification,
    classify_step2,
    stratification_obstructions,
    theorem_suite,
)
from .verdicts import Verdict


class FullReport(Value):
    """Everything the pipeline derived about one input."""

    command: str
    source: str
    dim: int
    validation: ValidationReport
    j_name: str | None = None
    series: SeriesReport | None = None
    integrability: IntegrabilityReport | None = None
    special: SpecialFlags | None = None
    classification: Step2Classification | None = None
    classification_skip_reason: str | None = None
    verdicts: tuple[Verdict, ...] = ()
    errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.validation.ok
            and not self.errors
            and not any(v.failed for v in self.verdicts)
        )

    @memoized
    def to_dict(self) -> dict:
        """The report document, built once per report: callers share it and must not change it."""
        doc: dict = {
            "schema": "liecs.report/1",
            "command": self.command,
            "source": self.source,
            "dim": self.dim,
            "validation": {
                "ok": self.validation.ok,
                "violations": [
                    {
                        "triple": list(v.triple),
                        "residual": [format_rational(x) for x in v.residual],
                    }
                    for v in self.validation.violations
                ],
            },
            "ok": self.ok,
        }
        if self.j_name is not None:
            doc["complex_structure"] = self.j_name
        if self.series is not None:
            s = self.series
            doc["series"] = {
                **{key: chain_to_json(getattr(s, attr)) for key, _, attr in SERIES},
                "j0": s.j0,
                "route_agreement": s.route_agreement,
                "algebra_step": s.algebra_step,
                "center": subspace_to_json(s.center),
            }
        if self.integrability is not None:
            doc["integrability"] = {
                "integrable": self.integrability.integrable,
                "witnesses": [
                    {"pair": [i, j], "value": [format_rational(x) for x in value]}
                    for i, j, value in self.integrability.witnesses
                ],
            }
        if self.special is not None:
            doc["special"] = {
                "abelian": self.special.abelian,
                "bi_invariant": self.special.bi_invariant,
            }
        if self.classification is not None:
            c = self.classification
            doc["classification"] = {
                "applicable": True,
                "case": c.case,
                "k_subspace": subspace_to_json(c.k_subspace),
                "predicted_j0": c.predicted_j0,
                "strata_preserving": c.strata_preserving,
                "center_preserving": c.center_preserving,
            }
        elif self.classification_skip_reason is not None:
            doc["classification"] = {
                "applicable": False,
                "reason": self.classification_skip_reason,
            }
        if self.verdicts:
            doc["verdicts"] = [
                {"name": v.name, "status": v.status, "detail": v.detail}
                for v in self.verdicts
            ]
        if self.errors:
            doc["errors"] = list(self.errors)
        return doc


def build_report(
    command: str,
    source: str,
    alg: LieAlgebra,
    cs: ComplexStructure | None = None,
    j_name: str | None = None,
    strat: Stratification | None = None,
) -> FullReport:
    """Run the pipeline stages required by ``command``.

    Stages nest: validate ⊂ series ⊂ classify ⊂ suite = report.  Commands
    needing a complex structure error out (in-band) when none is
    available; ``cs`` must be bound to ``alg`` and the layers of ``strat``
    must lie in its space (ValueError otherwise, in every basis).

    Each field is set once, from its owner: ``validation`` from ``alg``,
    ``series`` and ``integrability`` from ``cs`` (decided on ``cs.twin``,
    answered in the input basis), ``special`` and the classification from
    ``cs.twin`` alone, with only ``k_subspace`` mapped back by
    ``AdaptedInput.to_input``, and the verdicts from ``cs.twin``, its
    series and the strata, which are moved to the twin for them only.
    """
    if cs is not None and cs.algebra != alg:
        raise ValueError("the complex structure is bound to a different algebra")
    if strat is not None and any(layer.ambient_dim != alg.dim for layer in strat.layers):
        raise ValueError("map width does not match ambient dimension")
    j_name = j_name if cs is not None else None
    report = FullReport(command, source, alg.dim, alg.validation, j_name)
    if not report.validation.ok:
        triple = report.validation.first_violation.triple
        return report.replace(errors=(f"Jacobi identity violated at basis triple {triple}",))
    if command == "validate":
        return report
    if cs is None:
        if command in ("series", "classify", "suite"):
            return report.replace(errors=("command requires a complex structure, none available",))
        return report  # report: emit what exists

    report = report.replace(series=cs.series)
    if command == "series":
        return report
    twin = cs.twin
    report = report.replace(integrability=cs.integrability, special=classify_special(twin))
    try:
        found = classify_step2(twin)
    except HypothesisNotMet as exc:
        report = report.replace(classification_skip_reason=str(exc))
    else:
        k = cs.algebra.twin.to_input(found.k_subspace)
        report = report.replace(classification=found.replace(k_subspace=k))
    if command == "classify":
        return report
    twin_strat = None if strat is None else strat.on_twin(cs.algebra.twin)
    return report.replace(
        verdicts=(
            *containment_audit(twin.series),
            center_dim_bounds(twin.series),
            *stratification_obstructions(twin.algebra, twin_strat),
            *theorem_suite(twin, twin_strat),
        ),
    )
