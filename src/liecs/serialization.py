"""Interchange format and report rendering.

One JSON schema carries algebras in and out of the tool:

    {
      "dim": 4,
      "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}, ...],
      "J": [["0", "-1", ...], ...],          # optional
      "strata": [[["1", "0", ...], ...], ...]  # optional, layers of basis rows
    }

Indices are 1-based and i < j is enforced; rationals travel as canonical
strings ("p" or "p/q").  Parsing validates the Jacobi identity, J² = -I
and the stratification axioms before returning, so a parsed input is
always a usable one.

Report serialization is deterministic: canonical rational strings, sorted
keys, fixed list orders.  Serializing the same report twice yields
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import LieAlgebra
from .complex_structure import ComplexStructure, validate_almost_complex
from .errors import AlgebraFileError
from .linalg import Matrix, Subspace, format_rational, parse_rational
from .stratification import Stratification, stratification_verdict


@dataclass(frozen=True)
class ParsedInput:
    algebra: LieAlgebra
    complex_structure: ComplexStructure | None
    stratification: Stratification | None


def _is_json_int(value) -> bool:
    """True for JSON integers; ``true`` and ``false`` parse as Python ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


class _JsonObject(dict):
    """A decoded JSON object that also keeps its (key, value) pairs, repeated keys included."""

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        self.pairs = pairs


def _parse_rational_field(text, context: str):
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise AlgebraFileError(f"{context}: expected a rational string, got {text!r}")
    try:
        return parse_rational(str(text))
    except ValueError as exc:
        raise AlgebraFileError(f"{context}: {exc}") from exc


def parse_algebra_file(data: bytes | str) -> ParsedInput:
    """Parse and validate an interchange file.

    Syntax errors carry the line/column from the JSON decoder; semantic
    errors name the violated invariant (index range, zero denominator,
    Jacobi triple, J² entry, stratification property and layer).
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"input is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    if not isinstance(doc, dict):
        raise AlgebraFileError("top-level value must be an object")

    dim = doc.get("dim")
    if not _is_json_int(dim) or dim < 1:
        raise AlgebraFileError("'dim' must be a positive integer")

    brackets_raw = doc.get("brackets", [])
    if not isinstance(brackets_raw, list):
        raise AlgebraFileError("'brackets' must be a list")
    table: dict[tuple[int, int], dict[int, object]] = {}
    for idx, item in enumerate(brackets_raw):
        if not isinstance(item, dict):
            raise AlgebraFileError(f"brackets[{idx}] must be an object")
        i, j = item.get("i"), item.get("j")
        if not (_is_json_int(i) and _is_json_int(j)):
            raise AlgebraFileError(f"brackets[{idx}]: 'i' and 'j' must be integers")
        if not 1 <= i < j <= dim:
            raise AlgebraFileError(
                f"brackets[{idx}]: need 1 <= i < j <= dim, got i={i}, j={j}"
            )
        if (i, j) in table:
            raise AlgebraFileError(f"brackets[{idx}]: duplicate pair ({i}, {j})")
        out = item.get("out", _JsonObject([]))
        if not isinstance(out, dict):
            raise AlgebraFileError(f"brackets[{idx}]: 'out' must be an object")
        coeffs: dict[int, object] = {}
        for key, value in out.pairs:
            try:
                k = int(key)
            except (TypeError, ValueError):
                raise AlgebraFileError(
                    f"brackets[{idx}]: output index {key!r} is not an integer"
                ) from None
            if not 1 <= k <= dim:
                raise AlgebraFileError(
                    f"brackets[{idx}]: output index {k} out of range 1..{dim}"
                )
            if k in coeffs:
                raise AlgebraFileError(f"brackets[{idx}]: duplicate output index {k}")
            coeffs[k] = _parse_rational_field(value, f"brackets[{idx}].out[{key!r}]")
        table[(i, j)] = coeffs
    algebra = LieAlgebra.from_brackets(dim, table, one_based=True)

    validation = algebra.validation
    if not validation.ok:
        triple = validation.first_violation.triple
        raise AlgebraFileError(
            f"Jacobi identity violated at basis triple {triple}"
        )

    cs = None
    if "J" in doc and doc["J"] is not None:
        j_rows = doc["J"]
        if not isinstance(j_rows, list) or len(j_rows) != dim:
            raise AlgebraFileError(f"'J' must be a {dim}x{dim} matrix")
        rows = []
        for r, row in enumerate(j_rows):
            if not isinstance(row, list) or len(row) != dim:
                raise AlgebraFileError(f"'J' row {r + 1} must have {dim} entries")
            rows.append(
                [_parse_rational_field(v, f"J[{r + 1}][{c + 1}]") for c, v in enumerate(row)]
            )
        try:
            cs = validate_almost_complex(algebra, Matrix.from_rows(rows))
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from exc

    strat = None
    if "strata" in doc and doc["strata"] is not None:
        layers_raw = doc["strata"]
        if not isinstance(layers_raw, list) or not layers_raw:
            raise AlgebraFileError("'strata' must be a non-empty list of layers")
        layers = []
        for l_idx, layer in enumerate(layers_raw):
            if not isinstance(layer, list):
                raise AlgebraFileError(f"strata[{l_idx}] must be a list of vectors")
            rows = []
            for v_idx, vec in enumerate(layer):
                if not isinstance(vec, list) or len(vec) != dim:
                    raise AlgebraFileError(
                        f"strata[{l_idx}][{v_idx}] must be a vector of length {dim}"
                    )
                rows.append(
                    [
                        _parse_rational_field(v, f"strata[{l_idx}][{v_idx}][{c + 1}]")
                        for c, v in enumerate(vec)
                    ]
                )
            layers.append(Subspace.from_rows(dim, rows))
        strat = Stratification(tuple(layers))
        verdict = stratification_verdict(algebra, strat)
        if not verdict.ok:
            first = verdict.violations[0]
            raise AlgebraFileError(
                f"invalid stratification: {first.property_name} fails at layer "
                f"{first.layer}: {first.detail}"
            )

    return ParsedInput(algebra, cs, strat)


def _vector_strings(v: Sequence) -> list[str]:
    return [format_rational(x) for x in v]


def _matrix_strings(m: Matrix) -> list[list[str]]:
    return [_vector_strings(m.row(i)) for i in range(m.rows)]


def serialize_algebra(
    algebra: LieAlgebra,
    cs: ComplexStructure | None = None,
    stratification: Stratification | None = None,
) -> bytes:
    """Write an algebra (and optional J, strata) in the interchange schema."""
    doc: dict = {
        "dim": algebra.dim,
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "out": {
                    str(k + 1): format_rational(c)
                    for k, c in enumerate(coeffs)
                    if c != 0
                },
            }
            for i, j, coeffs in sorted(algebra.structure)
        ],
    }
    if cs is not None:
        doc["J"] = _matrix_strings(cs.matrix)
    if stratification is not None:
        doc["strata"] = [
            [_vector_strings(row) for row in layer.basis_rows()]
            for layer in stratification.layers
        ]
    return _dump_json(doc)


def _dump_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def subspace_to_json(w: Subspace) -> dict:
    return {"dim": w.dim, "basis": [_vector_strings(r) for r in w.basis_rows()]}


def chain_to_json(dims: Sequence[int], terms: Sequence[Subspace], stabilized_at: int) -> dict:
    return {
        "dims": list(dims),
        "stabilized_at": stabilized_at,
        "terms": [subspace_to_json(t) for t in terms],
    }


def serialize_report(report, fmt: str = "json") -> bytes:
    """Render a report deterministically as JSON or markdown.

    ``report`` is anything exposing ``to_dict()`` (see ``liecs.report``).
    JSON output round-trips: loading the bytes and re-serializing the
    resulting document is byte-identical.
    """
    doc = report.to_dict()
    if fmt == "json":
        return _dump_json(doc)
    if fmt == "markdown":
        return _render_markdown(doc).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'markdown'")


_SERIES_LABELS = [
    ("classical_descending", "c_j"),
    ("classical_ascending", "c^j"),
    ("j_ascending", "d^j"),
    ("j_descending", "d_j"),
    ("p_chain", "p_j"),
]


def _render_markdown(doc: Mapping) -> str:
    lines = [f"# liecs {doc.get('command', 'report')}: {doc.get('source', '?')}", ""]
    if "dim" in doc:
        lines.append(f"- dimension: {doc['dim']}")
    validation = doc.get("validation")
    if validation is not None:
        status = "ok" if validation["ok"] else "FAILED"
        lines.append(f"- validation: {status}")
        for violation in validation["violations"]:
            lines.append(
                f"  - Jacobi violated at triple {tuple(violation['triple'])}: "
                f"residual {violation['residual']}"
            )
    series = doc.get("series")
    if series:
        lines.append(f"- nilpotent step of J (j0): {series['j0']}")
        lines.append(f"- route agreement: {series['route_agreement']}")
        lines.append("")
        lines.append("## Series dimensions")
        lines.append("")
        for key, label in _SERIES_LABELS:
            chain = series[key]
            dims = " | ".join(str(d) for d in chain["dims"])
            lines.append(f"### {label}")
            lines.append("")
            lines.append("| j | " + " | ".join(str(j) for j in range(len(chain["dims"]))) + " |")
            lines.append("|---|" + "---|" * len(chain["dims"]))
            lines.append(f"| dim | {dims} |")
            lines.append(f"(stabilized at index {chain['stabilized_at']})")
            lines.append("")
    integrability = doc.get("integrability")
    if integrability is not None:
        lines.append(f"- integrable: {integrability['integrable']}")
        for witness in integrability["witnesses"]:
            lines.append(
                f"  - nonzero Nijenhuis value at pair {tuple(witness['pair'])}: {witness['value']}"
            )
    special = doc.get("special")
    if special is not None:
        lines.append(
            f"- special classes: abelian={special['abelian']} bi_invariant={special['bi_invariant']}"
        )
    classification = doc.get("classification")
    if classification is not None:
        if classification.get("applicable", True):
            lines.append(
                "- step-2 classification: case={case}, predicted j0={predicted_j0}, "
                "strata_preserving={strata_preserving}, center_preserving={center_preserving}".format(
                    **classification
                )
            )
        else:
            lines.append(f"- step-2 classification: not applicable ({classification['reason']})")
    verdicts = doc.get("verdicts")
    if verdicts:
        lines.append("")
        lines.append("## Verdicts")
        lines.append("")
        lines.append("| check | status | detail |")
        lines.append("|---|---|---|")
        for v in verdicts:
            lines.append(f"| {v['name']} | {v['status']} | {v['detail']} |")
    errors = doc.get("errors")
    if errors:
        lines.append("")
        lines.append("## Errors")
        lines.append("")
        for e in errors:
            lines.append(f"- {e}")
    lines.append("")
    lines.append(f"overall: {'ok' if doc.get('ok') else 'FAILED'}")
    return "\n".join(lines) + "\n"
