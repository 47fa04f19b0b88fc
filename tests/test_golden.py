"""Golden reports, compared byte for byte.

Every catalog entry runs through ``liecs.cli.main`` with each report
command, in JSON and in markdown.  One seeded scramble of each nilpotent
entry, one of ch6⊕ch6⊕ch6 (dim 18, where packed integer rows are
widest) and one of a step-2 algebra whose k = n_2 ∩ J n_2 is proper while
j0 = 2 (``builders.step2_kproper``) is written as an algebra file and run
as ``report`` in JSON, which covers the file-parse path.  Two more scrambles are faulty inputs
whose report reads the input basis only through the fault: a kt4 with
one structure constant perturbed until Jacobi fails (the report names
the violated triple of the file's basis), and an rf8 whose first layer
is tilted into the second (the report names the stratification property
and layer that fail).  Both exit 1.  One input is pinned in its own basis
under ``inputs/`` and run as ``suite`` and ``report`` in JSON: the dim-10
step-2 algebra of ``builders.step2_twisted_dim10``, on which the theorem
suite once failed.  The default ``search`` of a4 and kt4 is pinned in
JSON and in markdown: both are found at restart 0's exact check of the
standard J0, the only exact check a search makes of a J it did not snap,
so neither needs numpy.  nn3's search pins the odd-dimension error, which
exits 1.  The outputs, the input files and
the exit statuses (``exit_status.json``) must equal the files committed
under ``tests/golden/``.  ``tests/golden/catalog/`` pins every builtin
itself: its algebra file with each named J and stratification, and its
``expected`` facts.  The verdicts of the golden reports are tallied too:
the statements that none of them passes are listed by name.

A golden file changes only together with an explanation of each diff in
``CHANGES.md``.  Regenerate all of them with

    PYTHONPATH=src python tests/test_golden.py

or compare without writing, which needs neither pytest nor numpy and
exits 1 naming every file that differs, with

    PYTHONPATH=src python tests/test_golden.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

from liecs import builtin, catalog_names, serialize_algebra
from liecs.cli import main
from liecs.j_series import AUDIT, BOUNDS
from liecs.stratification import OBSTRUCTIONS, SUITE
from liecs.verdicts import PASS

from builders import (
    conjugate_entry,
    direct_sum,
    jacobi_violating,
    random_invertible,
    step2_kproper,
    step2_twisted_dim10,
    tilted_strata,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("validate", "series", "classify", "suite", "report")
FORMATS = {"json": "json", "markdown": "md"}
# The entries whose default search is pinned: each is found at restart 0's
# exact check, so the files are produced without numpy.
SEARCHED = ("a4", "kt4")
STATUS_FILE = "exit_status.json"


def _nilpotent_entries() -> list[str]:
    return [name for name in catalog_names() if builtin(name).expected["step"] is not None]


def _write_scrambles(workdir: Path) -> list[tuple[str, str]]:
    """Write the seeded scrambled inputs; return (name, relative path) for each.

    One per nilpotent entry, of ch6^3 and of the dim-8 ``step2_kproper``,
    then the two faulty ones.
    """
    (workdir / "scrambled").mkdir()
    files = []
    entries = [builtin(name) for name in _nilpotent_entries()]
    for entry in [*entries, direct_sum(builtin("ch6"), 3), step2_kproper()]:
        rng = random.Random(f"golden:{entry.name}")
        p = random_invertible(rng, entry.algebra.dim)
        files.append((entry.name, serialize_algebra(*conjugate_entry(entry, p))))
    files.append(("kt4-jacobi", serialize_algebra(jacobi_violating(random.Random("golden:kt4-jacobi")))))
    p = random_invertible(random.Random("golden:rf8-strata"), 8)
    files.append(("rf8-strata", serialize_algebra(*conjugate_entry(tilted_strata(builtin("rf8")), p))))
    inputs = []
    for name, data in files:
        rel = f"scrambled/{name}.json"
        (workdir / rel).write_bytes(data)
        inputs.append((name, rel))
    return inputs


def _write_pinned(workdir: Path) -> list[tuple[str, str]]:
    """Write the inputs pinned in their own basis; return (name, relative path) for each."""
    (workdir / "inputs").mkdir()
    entry = step2_twisted_dim10()
    rel = f"inputs/{entry.name}.json"
    data = serialize_algebra(entry.algebra, entry.primary_structure, entry.primary_stratification)
    (workdir / rel).write_bytes(data)
    return [(entry.name, rel)]


def _write_catalog(workdir: Path) -> None:
    """Write every builtin under ``catalog/``, so a change to an entry shows as a diff.

    ``<entry>[.<J name>][.<strata name>].json`` is the algebra file with that
    named J and stratification (``nn3.json``, with neither, is the algebra
    alone), and ``<entry>.expected.json`` holds the entry's expected facts.
    """
    (workdir / "catalog").mkdir()
    for name in catalog_names():
        entry = builtin(name)
        for j_name, cs in entry.complex_structures or [(None, None)]:
            for s_name, strat in entry.stratifications or [(None, None)]:
                stem = ".".join(part for part in (name, j_name, s_name) if part)
                data = serialize_algebra(entry.algebra, cs, strat)
                (workdir / "catalog" / f"{stem}.json").write_bytes(data)
        expected = json.dumps(entry.expected, indent=2, sort_keys=True) + "\n"
        (workdir / "catalog" / f"{name}.expected.json").write_text(expected)


def render(workdir: Path) -> dict[str, bytes]:
    """Produce every golden file inside the empty directory ``workdir``.

    The CLI runs with ``workdir`` as the current directory, so file
    inputs are named by relative paths and the reports echo no machine
    path.
    """
    runs = [
        (f"{name}.{cmd}.{ext}", [name, "--cmd", cmd, "--format", fmt])
        for name in catalog_names()
        for cmd in COMMANDS
        for fmt, ext in FORMATS.items()
    ]
    runs += [
        (f"{name}.search.{ext}", [name, "--cmd", "search", "--format", fmt])
        for name in SEARCHED
        for fmt, ext in FORMATS.items()
    ]
    runs.append(("nn3.search.json", ["nn3", "--cmd", "search"]))
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, rel in _write_scrambles(workdir):
            runs.append((f"{name}-scrambled.report.json", [rel, "--cmd", "report"]))
        for name, rel in _write_pinned(workdir):
            runs.extend((f"{name}.{cmd}.json", [rel, "--cmd", cmd]) for cmd in ("suite", "report"))
        status = {}
        for out, argv in runs:
            status[out] = main(["-i", *argv, "--out", out])
    finally:
        os.chdir(previous)
    (workdir / STATUS_FILE).write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")
    _write_catalog(workdir)
    return {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def differences(produced: dict[str, bytes]) -> list[str]:
    """The golden files that ``produced`` lacks, adds or changes, sorted."""
    committed = {
        path.relative_to(GOLDEN).as_posix(): path.read_bytes()
        for path in sorted(GOLDEN.rglob("*"))
        if path.is_file()
    }
    return sorted(
        name
        for name in produced.keys() | committed.keys()
        if produced.get(name) != committed.get(name)
    )


def test_golden_reports_are_byte_identical(tmp_path):
    differing = differences(render(tmp_path))
    assert not differing, f"golden files differ: {differing}"


# The battery statements that no golden report passes (ROADMAP item 14): a
# new witness shortens this set, and a lost one fails the test below.
NEVER_PASSED = {
    "eight_dim_twisted_third_layer_step_four",
    "large_twisted_top_layer_step_three",
    "no_stratification_exists",
}


def test_statements_never_passed_by_a_golden_report():
    seen = {statement.name: set() for statement in (*AUDIT, *BOUNDS, *OBSTRUCTIONS, *SUITE)}
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_bytes())
        for verdict in doc.get("verdicts", ()):
            seen[verdict["name"]].add(verdict["status"])
    assert {name for name, statuses in seen.items() if PASS not in statuses} == NEVER_PASSED


def write_or_check(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden files, or compare them.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed files; write nothing"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        files = render(Path(scratch))
    if args.check:
        differing = differences(files)
        for name in differing:
            print(f"golden file differs: {name}", file=sys.stderr)
        print(f"{len(files) - len(differing)} of {len(files)} golden files match", file=sys.stderr)
        return 1 if differing else 0
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in files.items():
        target = GOLDEN / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    print(f"wrote {len(files)} golden files to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(write_or_check())
