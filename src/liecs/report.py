"""Assembly of the full analysis pipeline into one reportable object."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, ValidationReport
from .complex_structure import (
    ComplexStructure,
    IntegrabilityReport,
    SpecialFlags,
    classify_special,
)
from .errors import HypothesisNotMet
from .j_series import SeriesReport, center_dim_bounds, containment_audit
from .linalg import format_rational
from .serialization import chain_to_json, subspace_to_json
from .stratification import (
    Step2Classification,
    Stratification,
    classify_step2,
    stratification_obstructions,
    theorem_suite,
)
from .verdicts import Verdict


@dataclass(frozen=True)
class FullReport:
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

    def to_dict(self) -> dict:
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
                "classical_descending": chain_to_json(
                    s.c_desc.dims(), s.c_desc.terms, s.c_desc.stabilized_at
                ),
                "classical_ascending": chain_to_json(
                    s.c_asc.dims(), s.c_asc.terms, s.c_asc.stabilized_at
                ),
                "j_ascending": chain_to_json(
                    s.d_asc.dims(), s.d_asc.terms, s.d_asc.stabilized_at
                ),
                "j_descending": chain_to_json(
                    s.d_desc.dims(), s.d_desc.terms, s.d_desc.stabilized_at
                ),
                "p_chain": chain_to_json(
                    s.p_desc.dims(), s.p_desc.terms, s.p_desc.stabilized_at
                ),
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

    Stages nest: validate ⊂ series ⊂ classify ⊂ suite ⊂ report, except
    that ``suite`` and ``report`` are equal in content.  Commands needing
    a complex structure error out (in-band) when none is available.
    """
    validation = alg.validation
    base = dict(
        command=command,
        source=source,
        dim=alg.dim,
        validation=validation,
        j_name=j_name if cs is not None else None,
    )
    if not validation.ok:
        triple = validation.first_violation.triple
        return FullReport(
            **base, errors=(f"Jacobi identity violated at basis triple {triple}",)
        )
    if command == "validate":
        return FullReport(**base)

    if cs is None:
        if command in ("series", "classify", "suite"):
            return FullReport(
                **base, errors=("command requires a complex structure, none available",)
            )
        return FullReport(**base)  # report: emit what exists

    series = cs.series
    if command == "series":
        return FullReport(**base, series=series)

    integrability = cs.integrability
    special = classify_special(cs)
    classification = None
    skip_reason = None
    try:
        classification = classify_step2(alg, cs, strat)
    except HypothesisNotMet as exc:
        skip_reason = str(exc)
    if command == "classify":
        return FullReport(
            **base,
            series=series,
            integrability=integrability,
            special=special,
            classification=classification,
            classification_skip_reason=skip_reason,
        )

    verdicts: list[Verdict] = []
    verdicts.extend(containment_audit(series))
    verdicts.append(center_dim_bounds(alg, cs, series))
    verdicts.extend(stratification_obstructions(alg, strat))
    verdicts.extend(theorem_suite(alg, cs, strat))
    return FullReport(
        **base,
        series=series,
        integrability=integrability,
        special=special,
        classification=classification,
        classification_skip_reason=skip_reason,
        verdicts=tuple(verdicts),
    )
