"""Seeded inputs and correctness checks of the benchmark workloads.

Inputs are built here from the workload seed, with the library's public
API only: catalog entries, direct sums, rational changes of basis and the
interchange format.  The program under test then receives nothing but the
generated algebra files (or, for the CLI, builtin names and file paths).

Each workload lists the operations of one *pass*.  A pass runs in a fresh
process (the CLI workload starts one per operation), so no timed operation
is served by a cache that an earlier repetition of the same operation
filled; within a pass every operation has its own input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from liecs import (
    LieAlgebra,
    Matrix,
    Stratification,
    Subspace,
    builtin,
    catalog_names,
    change_of_basis,
    image_subspace,
    is_integrable,
    parse_rational,
    serialize_algebra,
    standard_block_j,
    validate,
    validate_almost_complex,
)

SERIES_KEYS = ("classical_descending", "classical_ascending", "j_ascending", "j_descending", "p_chain")


@dataclass
class Op:
    """One timed operation of a pass.

    Either an algebra file at ``path`` (parse it, build the full report,
    serialize it as JSON and markdown) or the ``argv`` of one fresh
    ``python -m liecs.cli`` process.  ``expect`` holds what the outputs are
    checked against.
    """

    key: str
    path: str | None = None
    argv: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def random_basis_change(rng: random.Random, n: int) -> Matrix:
    """Seeded invertible rational matrix with entries k/d, |k| <= 3, d in {1, 2}."""
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.from_rows(rows)
        if m.det() != 0:
            return m


def transport(alg, cs, strat, p: Matrix):
    """Write (algebra, J, stratification) in the coordinates y = p x."""
    moved = change_of_basis(alg, p)
    moved_cs = None
    if cs is not None:
        moved_cs = validate_almost_complex(moved, p @ cs.matrix @ p.inverse())
    moved_strat = None
    if strat is not None:
        moved_strat = Stratification(tuple(image_subspace(layer, p) for layer in strat.layers))
    return moved, moved_cs, moved_strat


def direct_sum(entry, copies: int):
    """``copies`` copies of a catalog entry with the block J and the block strata."""
    n = entry.algebra.dim
    total = n * copies
    brackets = {}
    for c in range(copies):
        for i, j, coeffs in entry.algebra.structure:
            brackets[(i + c * n, j + c * n)] = {
                k + c * n: v for k, v in enumerate(coeffs) if v != 0
            }
    alg = LieAlgebra.from_brackets(total, brackets, one_based=False)
    cs = validate_almost_complex(alg, standard_block_j(total))
    layers = []
    for layer in entry.primary_stratification.layers:
        rows = [
            [0] * (c * n) + list(row) + [0] * ((copies - c - 1) * n)
            for c in range(copies)
            for row in layer.basis_rows()
        ]
        layers.append(Subspace.from_rows(total, rows))
    return alg, cs, Stratification(tuple(layers))


def jacobi_violating(rng: random.Random) -> LieAlgebra:
    """A scrambled kt4 with one structure constant perturbed until Jacobi fails."""
    alg = change_of_basis(builtin("kt4").algebra, random_basis_change(rng, 4))
    while True:
        i, j, coeffs = rng.choice(alg.structure)
        k = rng.randrange(alg.dim)
        perturbed = list(coeffs)
        perturbed[k] += 1
        structure = tuple(
            (a, b, tuple(perturbed) if (a, b) == (i, j) else c) for a, b, c in alg.structure
        )
        candidate = LieAlgebra(alg.dim, structure)
        if not validate(candidate).ok:
            return candidate


def _expected_facts(entry) -> dict:
    """The entry's documented facts for its primary structure, as report fields."""
    if entry.primary_structure is None:
        return {}
    j_name = entry.complex_structures[0][0]
    per_structure = {
        "j0": "j0",
        "integrable": "integrable",
        "abelian_j": "abelian",
        "bi_invariant_j": "bi_invariant",
        "step2_case": "case",
        "strata_preserving": "strata_preserving",
        "center_preserving": "center_preserving",
    }
    facts = {}
    for key, field_name in per_structure.items():
        if key in entry.expected and j_name in entry.expected[key]:
            facts[field_name] = entry.expected[key][j_name]
    if "step" in entry.expected:
        facts["algebra_step"] = entry.expected["step"]
    if "center_dim" in entry.expected:
        facts["center_dim"] = entry.expected["center_dim"]
    return facts


class Setup:
    """Writes one workload's input files into ``directory``."""

    def __init__(self, directory: Path, seed: int):
        self.directory = directory
        self.rng = random.Random(seed)
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, alg, cs=None, strat=None) -> str:
        path = self.directory / f"{name}.json"
        path.write_bytes(serialize_algebra(alg, cs, strat))
        return str(path)

    def scramble(self, alg, cs=None, strat=None):
        return transport(alg, cs, strat, random_basis_change(self.rng, alg.dim))


def setup_catalog(s: Setup) -> list[Op]:
    """All 8 catalog entries in their own basis, plus two seeded scrambles of each."""
    ops = []
    for name in catalog_names():
        entry = builtin(name)
        base = (entry.algebra, entry.primary_structure, entry.primary_stratification)
        path = s.write(name, *base)
        ops.append(Op(name, path, expect={"facts": _expected_facts(entry), "ok": True}))
        for copy in (1, 2):
            key = f"{name}~{copy}"
            path = s.write(key, *s.scramble(*base))
            ops.append(Op(key, path, expect={"like": name}))
    return ops


def setup_ladder(s: Setup) -> list[Op]:
    """Three scrambles of ch6^2, ch6^3 in its own sparse basis, and a scrambled ch6^3.

    With five operations the median is the middle dim-12 report and the
    90th percentile the scrambled dim-18 one.
    """
    ch6 = builtin("ch6")
    ch6x2, ch6x3 = direct_sum(ch6, 2), direct_sum(ch6, 3)
    expect = {"facts": {"j0": 2}, "ok": True}
    ops = []
    for key, base, scrambled in (
        ("ch6x2~1", ch6x2, True),
        ("ch6x2~2", ch6x2, True),
        ("ch6x2~3", ch6x2, True),
        ("ch6x3", ch6x3, False),
        ("ch6x3~", ch6x3, True),
    ):
        inputs = s.scramble(*base) if scrambled else base
        ops.append(Op(key, s.write(key, *inputs), expect=expect))
    return ops


def setup_cli(s: Setup) -> list[Op]:
    """Six CLI invocations; exit statuses and ``ok`` fields as at the seed commit.

    The two searches do a fixed amount of work.  kt4's standard J passes
    the exact gate at restart 0.  f4 has no integrable J, so its single
    restart runs the optimizer from the identity, on the same algebra every
    time, and the gate rejects.
    """
    fr6 = builtin("fr6")
    fr6_path = s.write(
        "fr6~", *s.scramble(fr6.algebra, fr6.primary_structure, fr6.primary_stratification)
    )
    bad_path = s.write("jacobi-violated", jacobi_violating(s.rng))
    return [
        Op("kt4-report", argv=["-i", "kt4", "--cmd", "report"],
           expect={"status": 0, "ok": True, "facts": {"j0": 2}}),
        Op("rf8-markdown", argv=["-i", "rf8", "--cmd", "report", "--format", "markdown"],
           expect={"status": 0, "markdown_ok": True}),
        Op("fr6~-file", argv=["-i", fr6_path, "--cmd", "report"],
           expect={"status": 0, "ok": True, "facts": {"j0": 3}}),
        Op("jacobi-violated-file", argv=["-i", bad_path, "--cmd", "report"],
           expect={"status": 1, "ok": False, "error": "Jacobi identity violated"}),
        Op("kt4-search", argv=["-i", "kt4", "--cmd", "search"],
           expect={"status": 0, "ok": True, "found": True, "algebra": "kt4"}),
        Op("f4-search", argv=["-i", "f4", "--cmd", "search", "--restarts", "1"],
           expect={"status": 0, "ok": True, "found": False}),
    ]


def report_invariants(doc: dict) -> dict:
    """Fields of a report that a change of basis leaves unchanged."""
    out = {"ok": doc["ok"], "validation_ok": doc["validation"]["ok"]}
    series = doc.get("series")
    if series is not None:
        out["j0"] = series["j0"]
        out["route_agreement"] = series["route_agreement"]
        out["algebra_step"] = series["algebra_step"]
        out["center_dim"] = series["center"]["dim"]
        out["dims"] = {key: series[key]["dims"] for key in SERIES_KEYS}
    if "integrability" in doc:
        out["integrable"] = doc["integrability"]["integrable"]
    if "special" in doc:
        out["abelian"] = doc["special"]["abelian"]
        out["bi_invariant"] = doc["special"]["bi_invariant"]
    classification = doc.get("classification")
    if classification is not None and classification["applicable"]:
        for key in ("case", "strata_preserving", "center_preserving"):
            out[key] = classification[key]
    out["verdicts"] = {v["name"]: v["status"] for v in doc.get("verdicts", [])}
    return out


def _facts_mismatch(facts: dict, invariants: dict) -> str | None:
    for key, want in facts.items():
        if key in invariants and invariants[key] != want:
            return f"{key} is {invariants[key]!r}, expected {want!r}"
        if key not in invariants and want is not None:
            return f"{key} missing from the report, expected {want!r}"
    return None


def check_report(op: Op, invariants: dict, reference: dict | None) -> str | None:
    """Mismatch of one report against its expectation, or None."""
    expect = op.expect
    if "ok" in expect and invariants["ok"] != expect["ok"]:
        return f"ok is {invariants['ok']}, expected {expect['ok']}"
    mismatch = _facts_mismatch(expect.get("facts", {}), invariants)
    if mismatch:
        return mismatch
    if "like" in expect:
        if reference is None:
            return f"no own-basis report {expect['like']!r} to compare with"
        for key in set(reference) | set(invariants):
            if reference.get(key) != invariants.get(key):
                return f"{key} differs from the own-basis report"
    return None


def check_cli(op: Op, status: int, stdout: bytes) -> str | None:
    """Exit status and report body of one CLI process against the seed commit's."""
    expect = op.expect
    if status != expect["status"]:
        return f"exit status {status}, expected {expect['status']}"
    if expect.get("markdown_ok"):
        return None if stdout.endswith(b"overall: ok\n") else "markdown report is not ok"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if doc.get("ok") != expect["ok"]:
        return f"ok is {doc.get('ok')}, expected {expect['ok']}"
    if "error" in expect and not any(expect["error"] in e for e in doc.get("errors", [])):
        return f"errors do not mention {expect['error']!r}"
    if "found" in expect:
        if doc.get("found") != expect["found"]:
            return f"found is {doc.get('found')}"
        if not doc["found"]:
            return None
        alg = builtin(expect["algebra"]).algebra
        j = Matrix.from_rows([[parse_rational(x) for x in row] for row in doc["matrix"]])
        try:
            if not is_integrable(validate_almost_complex(alg, j)).integrable:
                return "returned J is not integrable"
        except ValueError as exc:
            return f"returned J is not almost complex: {exc}"
    if "facts" in expect:
        return _facts_mismatch(expect["facts"], report_invariants(doc))
    return None


SETUPS = {
    "catalog": setup_catalog,
    "ladder": setup_ladder,
    "cli-cold": setup_cli,
}
