import json
import subprocess
import sys

import pytest

from liecs import catalog_names
from liecs.cli import main

RUN = [sys.executable, "-m", "liecs.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


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
        (["--den-cap", "0", "--threshold", "1e9"], "--den-cap"),
        (["--den-cap", "two"], "--den-cap"),
    ],
)
def test_nonpositive_search_arguments_are_usage_errors(args, option):
    result = run_cli("-i", "f4", "--cmd", "search", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {option}: must be a positive integer" in result.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_threshold_must_be_positive_and_finite(value):
    # nan and inf would make every restart snap and run the exact gate; a
    # value <= 0 would silently disable reconstruction
    result = run_cli("-i", "f4", "--cmd", "search", "--threshold", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --threshold: must be a positive finite number" in result.stderr


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
    ],
    ids=["directory", "latin-1", "utf-16", "name-too-long"],
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
    result = run_cli(
        "-i", "kt4", "--cmd", "search",
        "--seed", "3", "--restarts", "5",
        "--threshold", "1e-8", "--den-cap", "1000",
    )
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
