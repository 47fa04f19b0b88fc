import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from liecs import Stratification, Subspace, build_report, builtin, catalog_names, serialize_algebra
from liecs.cli import COMMANDS, _build_parser, main
from liecs.report import REPORT_COMMANDS
from liecs.serialization import MAX_DIM

from builders import conjugate_entry, random_invertible
from conftest import step2_kproper

RUN = [sys.executable, "-m", "liecs.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_import_loads_neither_dataclasses_nor_numpy():
    """A cold ``import liecs.cli`` pays for no generated dataclass methods and no numpy."""
    code = "import sys, liecs.cli; print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# -- exit status contract -----------------------------------------------------


def test_validate_builtin_exits_zero():
    result = run_cli("-i", "kt4", "--cmd", "validate")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["validation"]["ok"] is True


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_report_on_every_builtin(name):
    result = run_cli("-i", name, "--cmd", "report")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema"] == "liecs.report/1"
    assert doc["source"] == name
    assert doc["ok"] is True
    assert doc["validation"]["ok"] is True
    if name == "nn3":
        assert "series" not in doc
    else:
        assert set(doc["series"]) >= {
            "classical_descending",
            "classical_ascending",
            "j_ascending",
            "j_descending",
            "p_chain",
            "j0",
            "route_agreement",
        }


def test_suite_on_ch6_reports_route_agreement():
    result = run_cli("-i", "ch6", "--cmd", "suite")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["series"]["route_agreement"] is True
    assert all(v["status"] != "fail" for v in doc["verdicts"])


def test_build_report_rejects_structure_of_another_algebra():
    # ch6's J is a valid J on fr6's basis too, but it is bound to ch6's algebra
    fr6, ch6 = builtin("fr6"), builtin("ch6")
    with pytest.raises(ValueError, match="bound to a different algebra"):
        build_report("report", "fr6", fr6.algebra, ch6.primary_structure, "standard")


def test_build_report_rejects_an_unknown_command():
    kt4 = builtin("kt4")
    message = "unknown report command 'reprot': one of validate, series, classify, suite, report"
    with pytest.raises(ValueError, match=message):
        build_report("reprot", "kt4", kt4.algebra, kt4.primary_structure, "standard")
    # the CLI offers the report commands, from the one tuple, and the search
    assert COMMANDS == (*REPORT_COMMANDS[:-1], "search", "report")


@pytest.mark.parametrize("basis", ["own", "scrambled"])
def test_build_report_rejects_layers_outside_the_algebra_in_every_basis(basis):
    # the CLI's parse gate checks the layers, so only a direct call gets here;
    # the error must not depend on whether the twin moves the layers
    ch6 = builtin("ch6")
    alg, cs = ch6.algebra, ch6.primary_structure
    if basis == "scrambled":
        alg, cs, _ = conjugate_entry(ch6, random_invertible(random.Random(3), 6))
    strat = Stratification((Subspace.full(4),))
    with pytest.raises(ValueError, match="map width does not match ambient dimension"):
        build_report("report", "ch6", alg, cs, "standard", strat)


@pytest.mark.parametrize("basis", ["own", "scrambled"])
def test_step2_proper_k_with_step_two_passes_every_command(tmp_path, capsys, basis):
    """k = n_2 ∩ J n_2 proper does not force j0 = 3: here J[n, n] ⊆ z, so j0 = 2."""
    if basis == "own":
        entry = step2_kproper()
        path = tmp_path / "step2-kproper.json"
        path.write_bytes(serialize_algebra(entry.algebra, entry.primary_structure))
    else:
        path = Path(__file__).parent / "golden" / "scrambled" / "step2-kproper.json"
    for cmd in ("validate", "series", "classify", "suite", "report"):
        status = main(["-i", str(path), "--cmd", cmd])
        out, err = capsys.readouterr()
        assert (status, err) == (0, ""), cmd
        doc = json.loads(out)
        if cmd != "validate":
            assert doc["series"]["j0"] == 2
        if cmd in ("classify", "suite", "report"):
            assert doc["classification"]["case"] == "k_proper"
            assert doc["classification"]["predicted_j0"] == 2


def test_inconsistency_error_propagates_out_of_main(monkeypatch, capsys):
    """An ``InconsistencyError`` refutes the implementation, not the input.

    The CLI does not catch it: it reaches the caller as a traceback, with no
    partial document on stdout and no exit status of its own.
    """
    import liecs.j_series as js
    from liecs import InconsistencyError, Subspace, SubspaceChain

    # the three j0 routes agree by theorem; a truncated p-chain makes them disagree
    monkeypatch.setattr(js, "p_series", lambda cs: SubspaceChain((Subspace.full(4),)))
    with pytest.raises(InconsistencyError, match="routes disagree"):
        main(["-i", "kt4", "--cmd", "series"])
    assert capsys.readouterr().out == ""


def test_jacobi_violation_file_exits_one_and_names_triple(tmp_path):
    bad = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "out": {"3": "1"}},
            {"i": 1, "j": 3, "out": {"1": "1"}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert any("(1, 2, 3)" in e for e in doc["errors"])


def test_invalid_strata_file_exits_one_with_in_band_error(tmp_path):
    from liecs import builtin, serialize_algebra

    entry = builtin("kt4")
    doc = json.loads(serialize_algebra(entry.algebra, entry.primary_structure))
    doc["strata"] = [
        [["1", "0", "0", "0"]],
        [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    ]
    path = tmp_path / "bad_strata.json"
    path.write_text(json.dumps(doc))
    result = run_cli("-i", str(path), "--cmd", "classify")
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert any("generation fails at layer 2" in e for e in doc["errors"])


def test_usage_error_exits_two():
    result = run_cli("--cmd", "report")  # missing --input
    assert result.returncode == 2
    result = run_cli("-i", "kt4", "--cmd", "frobnicate")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args,option",
    [
        (["--restarts", "-3"], "--restarts"),
        (["--restarts", "0"], "--restarts"),
    ],
)
def test_nonpositive_search_arguments_are_usage_errors(args, option):
    result = run_cli("-i", "f4", "--cmd", "search", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {option}: must be a positive integer" in result.stderr


def test_parser_options_are_pinned():
    # the float threshold and the denominator caps are constants of the search
    options = {opt for action in _build_parser()._actions for opt in action.option_strings}
    assert options == {
        "-h", "--help", "--version", "--input", "-i", "--cmd", "--format", "--out",
        "--seed", "--restarts",
    }
    for flag, value in (("--threshold", "1e-8"), ("--den-cap", "1000")):
        result = run_cli("-i", "kt4", "--cmd", "search", flag, value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"unrecognized arguments: {flag} {value}" in result.stderr


def test_unwritable_out_is_a_one_line_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    result = run_cli("-i", "kt4", "--out", str(out))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1 and str(out) in result.stderr
    assert not out.exists()


def test_unknown_input_exits_one():
    result = run_cli("-i", "not_a_thing")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["ok"] is False


@pytest.mark.parametrize(
    "make_input,message",
    [
        (lambda tmp: tmp, "cannot read input"),  # a directory
        (lambda tmp: _write(tmp / "latin1.json", '{"dim": 2, "note": "é"}'.encode("latin-1")),
         "not UTF-8 text"),
        (lambda tmp: _write(tmp / "utf16.json", '{"dim": 2}'.encode("utf-16")), "not UTF-8 text"),
        (lambda tmp: tmp / ("a" * 5000), "cannot read input"),  # a name the OS refuses
        # deep enough for the JSON decoder's recursion guard on every supported Python
        (lambda tmp: _write(tmp / "deep.json", b"[" * 100_000), "nests too deeply"),
    ],
    ids=["directory", "latin-1", "utf-16", "name-too-long", "deep-nesting"],
)
def test_unreadable_input_exits_one_in_band(tmp_path, make_input, message):
    # an unreadable file takes the same path, but root reads any file, so
    # that case is not exercised here
    result = run_cli("-i", str(make_input(tmp_path)), "--cmd", "report")
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert message in doc["errors"][0]


def test_huge_dimension_exits_one_under_a_memory_limit(tmp_path):
    # one child process with 1 GB of address space: a dense dim × dim store
    # allocated before the bound was checked would end in MemoryError
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = _write(tmp_path / "big.json", b'{"dim": 1000000, "brackets": []}')
    result = subprocess.run(
        RUN + ["-i", str(path), "--cmd", "report"],
        capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr == ""
    assert json.loads(result.stdout)["errors"] == [f"'dim' exceeds the limit of {MAX_DIM}"]


def test_overlong_integer_literal_exits_one_in_band(tmp_path):
    digits = sys.get_int_max_str_digits() + 700
    path = _write(tmp_path / "long.json", b'{"dim": %s, "brackets": []}' % (b"1" * digits))
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert doc["errors"] == [
        f"an integer literal exceeds the limit of {sys.get_int_max_str_digits()} digits"
    ]


ERROR_DOCUMENTS = {
    ("report", "json"): (
        "{\n"
        '  "command": "report",\n'
        '  "errors": [\n'
        "    \"cannot read input 'somedir': Is a directory\"\n"
        "  ],\n"
        '  "ok": false,\n'
        '  "schema": "liecs.report/1",\n'
        '  "source": "somedir"\n'
        "}\n"
    ),
    ("report", "markdown"): (
        "# liecs report: somedir\n\n\n## Errors\n\n"
        "- cannot read input 'somedir': Is a directory\n\noverall: FAILED\n"
    ),
    ("search", "json"): (
        "{\n"
        '  "command": "search",\n'
        '  "errors": [\n'
        '    "odd dimension 3: no almost-complex structure exists"\n'
        "  ],\n"
        '  "found": false,\n'
        '  "ok": false,\n'
        '  "schema": "liecs.search/1",\n'
        '  "source": "nn3"\n'
        "}\n"
    ),
    ("search", "markdown"): (
        "# liecs search: nn3\n\n\n## Errors\n\n"
        "- odd dimension 3: no almost-complex structure exists\n\noverall: FAILED\n"
    ),
}


@pytest.mark.parametrize("cmd,fmt", sorted(ERROR_DOCUMENTS))
def test_error_documents_are_pinned(tmp_path, monkeypatch, capsys, cmd, fmt):
    # an unreadable input (a directory) for report, an odd dimension for search
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somedir").mkdir()
    source = "somedir" if cmd == "report" else "nn3"
    assert main(["-i", source, "--cmd", cmd, "--format", fmt]) == 1
    assert capsys.readouterr().out == ERROR_DOCUMENTS[cmd, fmt]


def test_repeated_key_exits_one_in_band(tmp_path):
    path = _write(
        tmp_path / "repeated.json",
        b'{"dim": 2, "dim": 3, "brackets": [{"i": 1, "j": 2, "j": 3, "out": {"2": "1"}}]}',
    )
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 1
    assert result.stderr == ""
    assert json.loads(result.stdout)["errors"] == ["duplicate key 'dim'"]


def test_misspelled_keys_exit_one_in_band(tmp_path):
    path = _write(
        tmp_path / "misspelled.json",
        b'{"dim": 3, "brackets": [{"i": 1, "j": 2, "outs": {"3": "1"}}], "j": []}',
    )
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert doc["errors"] == ["unknown key 'j' (expected 'dim', 'brackets', 'J', 'strata')"]


def test_abelian_plane_report_has_no_false_obstruction(tmp_path):
    doc = {
        "dim": 2,
        "brackets": [],
        "J": [["0", "-1"], ["1", "0"]],
        "strata": [[["1", "0"], ["0", "1"]]],
    }
    path = _write(tmp_path / "plane.json", json.dumps(doc).encode())
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 0, result.stderr
    verdicts = {v["name"]: v for v in json.loads(result.stdout)["verdicts"]}
    assert verdicts["no_stratification_exists"] == {
        "name": "no_stratification_exists",
        "status": "hypothesis_not_met",
        "detail": "dimension profile does not match",
    }
    assert verdicts["strata_preserving_pins_series"]["status"] == "pass"


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


def test_series_without_structure_exits_one():
    result = run_cli("-i", "nn3", "--cmd", "series")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert "complex structure" in doc["errors"][0]


# -- determinism --------------------------------------------------------------


def test_reports_are_byte_identical_across_runs():
    for args in (
        ["-i", "kt4", "--cmd", "report"],
        ["-i", "ch6", "--cmd", "suite", "--format", "markdown"],
        ["-i", "kt4", "--cmd", "search", "--seed", "5", "--restarts", "20"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


# -- files and formats ---------------------------------------------------------


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("-i", "hh6", "--cmd", "report", "--out", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["series"]["j0"] == 2


def test_file_input_round_trip(tmp_path):
    from liecs import builtin, serialize_algebra

    entry = builtin("ch6")
    path = tmp_path / "ch6.json"
    path.write_bytes(
        serialize_algebra(entry.algebra, entry.primary_structure, entry.primary_stratification)
    )
    result = run_cli("-i", str(path), "--cmd", "report")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["series"]["j0"] == 2
    assert doc["classification"]["case"] == "k_full"


def test_markdown_format():
    result = run_cli("-i", "kt4", "--cmd", "report", "--format", "markdown")
    assert result.returncode == 0
    assert "# liecs report: kt4" in result.stdout
    assert "### p_j" in result.stdout


def test_search_command_reports_matrix():
    result = run_cli("-i", "a4", "--cmd", "search", "--seed", "0", "--restarts", "10")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["found"] is True
    assert doc["verified_integrable"] is True
    assert len(doc["matrix"]) == 4


def test_search_on_odd_dimension_exits_one():
    result = run_cli("-i", "nn3", "--cmd", "search")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["found"] is False


def test_search_knob_flags_are_accepted():
    result = run_cli("-i", "kt4", "--cmd", "search", "--seed", "3", "--restarts", "5")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["found"] is True and doc["restarts"] == 5


def test_search_markdown_format():
    result = run_cli(
        "-i", "a4", "--cmd", "search", "--seed", "0", "--restarts", "5",
        "--format", "markdown",
    )
    assert result.returncode == 0
    assert "# liecs search: a4" in result.stdout
    assert "- found: True" in result.stdout


def test_main_callable_in_process(capsys):
    status = main(["-i", "a4", "--cmd", "validate"])
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validation"]["ok"] is True
