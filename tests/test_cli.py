import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosetcap
from cosetcap import registry_get, serialize_code
from cosetcap.cli import (EXIT_DIFF, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                          build_parser, run)


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


def test_threshold_output(capsys):
    code = run(["threshold", "--code", "5repZ", "--channel", "depol",
                "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == pytest.approx(0.06345202935, abs=1e-9)
    assert payload["method"] == "grouped"
    assert 0 < payload["evals"] <= 15


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


def test_longrep_row(capsys):
    code = run(["longrep", "--inner", "3", "--outer", "4", "--channel", "depol",
                "--p", "0.06"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,s_rb,rate"
    p, s_rb, rr = lines[1].split(",")
    from cosetcap import ChannelFamily, family_eval, s_rb_rep
    want = s_rb_rep(3, 4, family_eval(ChannelFamily("depolarizing"), 0.06))
    assert float(s_rb) == pytest.approx(want, abs=1e-12)


def test_longrep_needs_p_or_range(capsys):
    assert run(["longrep", "--inner", "3", "--outer", "4",
                "--channel", "depol"]) == EXIT_VALIDATION


def test_optimize_json(capsys):
    assert run(["optimize", "--code", "repZ(3)", "--restarts", "2",
                "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["stack"] == "repZ(3)"
    assert payload["restarts"] == 2


def test_tables_runner_table10(capsys):
    code = run(["tables", "--name", "table10", "--tol", "1e-4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "34/34 cells PASS" in out


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


def test_python_m_entry_point():
    assert _python_m("codes", "list").returncode == EXIT_OK
    res = _python_m("tables", "--name", "table10", "--tol", "1e-12")
    assert res.returncode == EXIT_DIFF
    assert "FAIL" in res.stdout


def test_stack_over_budget_is_numerical_failure(capsys):
    # the top repX(5) has 15,020,334 multisets over 69 entries: refused by
    # the assignment budget before any enumeration
    assert run(["threshold", "--code", "repX(5) x 5qubit x repZ(5)",
                "--channel", "depol"]) == EXIT_NUMERICAL
    assert "exceed budget" in capsys.readouterr().err
