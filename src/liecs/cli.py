"""Command-line front end.

Exit status contract: 0 when every computed check passed, 1 when the input
is invalid or any verdict failed (the failure is also in the report body),
2 on usage errors: a malformed or out-of-range argument, or an ``--out``
path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .catalog import builtin, catalog_names
from .errors import AlgebraFileError
from .linalg import format_rational
from .report import REPORT_COMMANDS, build_report
from .search import DEFAULT_RESTARTS, find_complex_structure
from .serialization import parse_algebra_file, serialize_report

COMMANDS = (*REPORT_COMMANDS[:-1], "search", REPORT_COMMANDS[-1])

USAGE_ERROR = 2


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    message = f"must be a positive integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecs",
        description=(
            "Exact computations with complex structures on rational Lie algebras: "
            "validation, central series, step-2 classification, theorem checks, "
            "and a search for integrable structures."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--input",
        "-i",
        required=True,
        help=f"builtin name ({', '.join(catalog_names())}) or path to an algebra file",
    )
    parser.add_argument("--cmd", default="report", choices=COMMANDS, help="what to run")
    parser.add_argument(
        "--format", default="json", choices=("json", "markdown"), help="report format"
    )
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="search: RNG seed")
    parser.add_argument(
        "--restarts", type=_positive_int, default=DEFAULT_RESTARTS, help="search: restart budget"
    )
    return parser


def _load_input(raw: str):
    path = Path(raw)
    try:
        data = path.read_bytes() if path.exists() else None
    except OSError as exc:  # also a name the OS refuses, e.g. one too long
        raise AlgebraFileError(f"cannot read input {raw!r}: {exc.strerror or exc}") from exc
    if data is not None:
        parsed = parse_algebra_file(data)
        return (
            str(raw),
            parsed.algebra,
            parsed.complex_structure,
            "file" if parsed.complex_structure else None,
            parsed.stratification,
        )
    if raw in catalog_names():
        entry = builtin(raw)
        cs = entry.primary_structure
        j_name = entry.complex_structures[0][0] if cs is not None else None
        return raw, entry.algebra, cs, j_name, entry.primary_stratification
    raise AlgebraFileError(
        f"input {raw!r} is neither an existing file nor a builtin "
        f"({', '.join(catalog_names())})"
    )


def _run_search(args, source, alg) -> tuple[bytes, int]:
    try:
        cs = find_complex_structure(alg, seed=args.seed, budget=args.restarts)
    except ValueError as exc:
        doc = {
            "schema": "liecs.search/1",
            "command": "search",
            "source": source,
            "ok": False,
            "found": False,
            "errors": [str(exc)],
        }
        return serialize_report(doc, args.format), 1
    doc = {
        "schema": "liecs.search/1",
        "command": "search",
        "source": source,
        "seed": args.seed,
        "restarts": args.restarts,
        "found": cs is not None,
        "ok": True,
    }
    if cs is not None:
        doc["matrix"] = [
            [format_rational(x) for x in cs.matrix.row(r)] for r in range(cs.matrix.rows)
        ]
        doc["verified_integrable"] = True
    if args.format == "json":
        return serialize_report(doc, "json"), 0
    lines = [f"# liecs search: {source}", "", f"- found: {doc['found']}"]
    if cs is not None:
        lines.append("- verified integrable: true")
        lines.append("- J rows:")
        for row in doc["matrix"]:
            lines.append("  - [" + ", ".join(row) + "]")
    return ("\n".join(lines) + "\n").encode("utf-8"), 0


def _run(args) -> tuple[bytes, int]:
    try:
        source, alg, cs, j_name, strat = _load_input(args.input)
    except AlgebraFileError as exc:
        doc = {
            "schema": "liecs.report/1",
            "command": args.cmd,
            "source": args.input,
            "ok": False,
            "errors": [str(exc)],
        }
        return serialize_report(doc, args.format), 1

    if args.cmd == "search":
        return _run_search(args, source, alg)

    report = build_report(args.cmd, source, alg, cs, j_name, strat)
    return serialize_report(report, args.format), 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    data, status = _run(args)
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
        return status
    try:
        Path(args.out).write_bytes(data)
    except OSError as exc:
        print(f"liecs: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
