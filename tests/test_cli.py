import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cosetcap
from cosetcap import parse_stack_spec, registry_get, serialize_code
from cosetcap.capacity import DEFAULT_TOL
from cosetcap.cli import (EXIT_DIFF, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                          build_parser, run)
from cosetcap.optimize import DEFAULT_RESTARTS
from xor_reference import compose_stack


def test_help_documents_stack_convention():
    text = build_parser().format_help()
    assert "A x B encodes with B first" in text


def test_codes_list_and_show(capsys):
    assert run(["codes", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "5qubit" in out and "biased9" in out
    assert run(["codes", "show", "5qubit"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == serialize_code(registry_get("5qubit"))


def test_rate_trivial(capsys):
    assert run(["rate", "--code", "", "--channel", "depol", "--p", "0"]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == 1.0
    assert run(["rate", "--code", "", "--channel", "depol", "--p", "0",
                "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "stack": "", "channel": "depol", "p": 0.0, "rate": 1.0}


def test_threshold_output(capsys):
    code = run(["threshold", "--code", "5repZ", "--channel", "depol",
                "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == pytest.approx(0.06345202935, abs=1e-9)
    assert payload["method"] == "grouped"
    assert payload["tol"] == DEFAULT_TOL  # the library's default
    assert 0 < payload["evals"] <= 15


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_threshold_tol_must_be_finite_and_positive(tol, capsys):
    # a bracket cannot shrink below tol = 0 or -1; nan and inf once
    # returned the midpoint of the whole bracket
    assert run(["threshold", "--code", "5qubit", "--channel", "depol",
                "--tol", tol]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "finite and positive" in captured.err


def test_threshold_reports_the_bracket_it_reached(capsys):
    # --tol below the spacing of doubles stops at adjacent doubles, and
    # the error bar printed is that bracket's width (~1.4e-17), not 1e-300
    args = ["threshold", "--code", "5qubit", "--channel", "depol", "--tol", "1e-300"]
    assert run([*args, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert 1e-18 < payload["tol"] < 1e-16
    assert run(args) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"{payload['threshold']:.11f} +- {payload['tol']:.0e}")
    assert "e-300" not in out


def test_unknown_code_is_validation_error(capsys):
    assert run(["threshold", "--code", "nosuchcode", "--channel", "depol"]) \
        == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_bad_channel_is_validation_error(capsys):
    assert run(["rate", "--code", "", "--channel", "wat", "--p", "0.1"]) \
        == EXIT_VALIDATION


def test_out_of_range_p_is_validation_error(capsys):
    assert run(["rate", "--code", "", "--channel", "depol", "--p", "0.9"]) \
        == EXIT_VALIDATION


def test_usage_error_exit_code():
    assert run(["threshold", "--channel"]) == EXIT_VALIDATION


def test_out_and_format_only_where_honoured(tmp_path, capsys):
    # only sweep writes a file, and each subcommand offers only the
    # formats it prints
    out = tmp_path / "out.txt"
    assert run(["threshold", "--code", "5repZ", "--channel", "depol",
                "--out", str(out)]) == EXIT_VALIDATION
    assert run(["rate", "--code", "", "--channel", "depol", "--p", "0",
                "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert run(["rate", "--code", "", "--channel", "depol", "--p", "0",
                "--format", "csv"]) == EXIT_VALIDATION
    assert run(["threshold", "--code", "5repZ", "--channel", "depol",
                "--format", "csv"]) == EXIT_VALIDATION
    assert run(["sweep", "--code", "", "--channel", "depol", "--range", "0:0.06:2",
                "--format", "table"]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_nonpositive_samples_is_validation_error(samples, capsys):
    # the empty stack never samples, but its sample count is checked too
    for code in ("repZ(3) x repX(3)", ""):
        assert run(["rate", "--code", code, "--channel", "depol",
                    "--p", "0.05", "--samples", samples]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "at least one sample" in captured.err


def test_unknown_code_in_sweep(capsys):
    assert run(["sweep", "--code", "zzz", "--channel", "depol",
                "--range", "0:0.01:2"]) == EXIT_VALIDATION


def test_no_bracket_is_numerical_failure(monkeypatch, capsys):
    from cosetcap import cli
    from cosetcap.capacity import NoThresholdError

    def boom(*a, **kw):
        raise NoThresholdError("no rate sign change")

    monkeypatch.setattr(cli, "threshold", boom)
    assert run(["threshold", "--code", "5repZ", "--channel", "depol"]) \
        == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_underflowing_top_is_numerical_failure(capsys):
    # S_RB - 1 of a 5001-block repetition top underflows to 0 near its
    # threshold: exit 3 and name the missing log form, not a noise root
    assert run(["threshold", "--code", "repX(3) x repZ(5001)", "--channel", "depol"]) \
        == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == "" and "log form" in captured.err


def test_sweep_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--code", "", "--channel", "depol",
            "--range", "0:0.06:4", "--format", "csv", "--out", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_text()
    assert first.splitlines()[0] == "p,s_rb,rate,method,std_error"
    assert len(first.splitlines()) == 5
    assert run(argv) == EXIT_OK
    assert out.read_text() == first  # byte-stable
    # the same rows as JSON, to stdout
    assert run(argv[:-4] + ["--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert ",".join(rows[0]) == first.splitlines()[0]
    for row, line in zip(rows, first.splitlines()[1:], strict=True):
        p, s_rb, rr, method, _ = line.split(",")
        assert list(row.values()) == [float(p), float(s_rb), float(rr), method, None]


def test_longrep_row(capsys):
    code = run(["longrep", "--inner", "3", "--outer", "4", "--channel", "depol",
                "--p", "0.06"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,s_rb,rate,method,std_error"
    p, s_rb, rr, method, se = lines[1].split(",")
    from cosetcap import ChannelFamily, family_eval, s_rb_rep
    want = s_rb_rep(3, 4, family_eval(ChannelFamily("depolarizing"), 0.06))
    assert float(s_rb) == pytest.approx(want, abs=1e-12)
    assert run(["longrep", "--inner", "3", "--outer", "4", "--channel", "depol",
                "--range", "0.05:0.07:3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    p_grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert p_grid == pytest.approx([0.05, 0.06, 0.07])
    assert float(lines[2].split(",")[1]) == pytest.approx(want, abs=1e-12)


def test_longrep_needs_p_or_range(capsys):
    assert run(["longrep", "--inner", "3", "--outer", "4",
                "--channel", "depol"]) == EXIT_VALIDATION
    assert run(["longrep", "--inner", "3", "--outer", "4", "--channel", "depol",
                "--range", "1:2"]) == EXIT_VALIDATION
    assert "range must be a:b:steps" in capsys.readouterr().err


def test_optimize_json(capsys):
    assert run(["optimize", "--code", "repZ(3)", "--restarts", "2",
                "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["stack"] == "repZ(3)"
    assert payload["restarts"] == 2
    assert 0 < payload["steps"] <= payload["evaluations"]


def test_optimize_defaults_are_the_library_defaults(capsys):
    assert run(["optimize", "--code", "repZ(3)"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["restarts"] == DEFAULT_RESTARTS and payload["seed"] == 0


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_optimize_needs_a_restart(restarts, capsys):
    assert run(["optimize", "--code", "repZ(3)", "--restarts", restarts]) \
        == EXIT_VALIDATION
    assert "at least one restart" in capsys.readouterr().err


# result lines per manifest: hashing (table1), threshold (tables 6, 7, 9)
# and optimum_eval cells (table10, two lines each)
_TABLE_LINES = {"table1": 18, "table6": 16, "table7": 18, "table9": 16, "table10": 34}


@pytest.mark.parametrize("name", list(_TABLE_LINES))
def test_tables_runner(name, capsys):
    cells = _TABLE_LINES[name]
    code = run(["tables", "--name", name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    # the table's seconds follow its summary
    assert re.search(rf"\n{cells}/{cells} cells PASS\n{name}: \d+\.\d\d s\n", out)


def test_tables_runner_reports_fail(capsys):
    code = run(["tables", "--name", "table10", "--tol", "1e-12"])
    assert code == EXIT_DIFF
    assert "FAIL" in capsys.readouterr().out


def _python_m(*argv):
    """``python -m cosetcap ...`` in a fresh interpreter, on this package."""
    src = str(Path(cosetcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cosetcap", *argv], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))


def test_library_loads_neither_scipy_nor_mpmath():
    # numpy is the one runtime dependency; scipy and mpmath serve only the
    # tests, so importing the library and solving a threshold must load
    # neither of them
    src = str(Path(cosetcap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, cosetcap\n"
              "cosetcap.threshold(cosetcap.parse_stack_spec('5qubit'),\n"
              "                   cosetcap.parse_channel_spec('depol'))\n"
              "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_long_innermost_repetition_layer_has_a_threshold(capsys):
    # the innermost layer's entries come in closed form, for any length
    assert run(["threshold", "--code", "repZ(21) x 5qubit", "--channel", "depol"]) == EXIT_OK
    assert "grouped" in capsys.readouterr().out


def test_python_m_entry_point():
    assert _python_m("codes", "list").returncode == EXIT_OK
    res = _python_m("tables", "--name", "table10", "--tol", "1e-12")
    assert res.returncode == EXIT_DIFF
    assert "FAIL" in res.stdout


def test_stack_over_budget_is_numerical_failure(capsys):
    # the steane top over the 69 entries of repX(5) x 5qubit has 69^7
    # assignments: refused by the assignment budget before any enumeration
    assert run(["threshold", "--code", "repX(5) x 5qubit x steane",
                "--channel", "depol"]) == EXIT_NUMERICAL
    assert "exceed budget" in capsys.readouterr().err


def test_code_over_engine_limit_is_validation_error(tmp_path, capsys):
    # a 14-qubit layer is refused by the exact engine with the same exit
    # code whether it is a stack layer or a single code; only an innermost
    # repetition layer takes its entries in closed form, for any length
    assert run(["rate", "--code", "5qubit x repZ(14) x 5qubit", "--channel", "depol",
                "--p", "0.05"]) == EXIT_VALIDATION
    assert "exceeds exhaustive limit" in capsys.readouterr().err
    flat = dataclasses.replace(compose_stack(parse_stack_spec("repZ(2) x steane")),
                               name="flat14")
    path = tmp_path / "flat14.code"
    path.write_text(serialize_code(flat))
    assert run(["rate", "--code", str(path), "--channel", "depol",
                "--p", "0.05"]) == EXIT_VALIDATION
    assert "flat14: n=14 exceeds exhaustive limit" in capsys.readouterr().err
