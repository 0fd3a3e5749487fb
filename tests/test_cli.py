import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import manincert
from manincert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_11(capsys):
    code, out, _ = run(capsys, "--format", "json", "analyze", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["newform_count"] == 1
    assert payload["newforms"][0]["degree"] == 1
    assert payload["newforms"][0]["congruence_number"] == 1


def test_analyze_22_no_newforms(capsys):
    code, out, _ = run(capsys, "--format", "json", "analyze", "22")
    assert code == 0
    assert json.loads(out)["newform_count"] == 0


def test_analyze_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "0")
    assert code == 2 and "usage error" in err


def test_analyze_oversize_level(capsys):
    code, _, err = run(capsys, "analyze", "100000")
    assert code == 2


def test_certify_label_11a2(capsys):
    code, out, _ = run(capsys, "--format", "json", "certify", "--label", "11.a2")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "ManinHolds"
    assert payload["schema_version"] == 1


def test_certify_ainvs_11a1(capsys):
    code, out, _ = run(capsys, "--format", "json", "certify",
                       "--ainvs", "0,-1,1,-10,-20")
    assert code == 0
    assert json.loads(out)["conclusion"] == "ManinHolds"


def test_certify_non_optimal_curve_refused(capsys):
    # (1,1,1,0,0) is in the conductor-15 isogeny class but is not the
    # optimal curve, so it is absent from the snapshot and refused
    code, _, err = run(capsys, "certify", "--ainvs", "1,1,1,0,0")
    assert code == 4 and "not optimal" in err


def test_certify_determinism(capsys):
    _, out1, _ = run(capsys, "--format", "json", "certify", "--label", "11.a2")
    _, out2, _ = run(capsys, "--format", "json", "certify", "--label", "11.a2")
    assert out1 == out2


def test_census_small(capsys):
    code, out, _ = run(capsys, "--format", "json", "census",
                       "--max-conductor", "40")
    assert code == 0
    payload = json.loads(out)
    assert "30.a8" in payload["selected"]
    assert "34.a4" in payload["selected"]


def test_census_bound_10_empty(capsys):
    code, out, _ = run(capsys, "--format", "json", "census",
                       "--max-conductor", "10")
    assert code == 0
    assert json.loads(out)["selected_count"] == 0


def test_census_coverage_gap(capsys):
    code, _, err = run(capsys, "census", "--max-conductor", "100000")
    assert code == 5


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(manincert.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_network_and_pools():
    """`import manincert.cli` pulls in no network or process-pool module.
    A fresh interpreter, since pytest has imported much of the stdlib."""
    env = _src_env()
    heavy = ("urllib.request", "http.client", "ssl", "concurrent.futures",
             "multiprocessing")
    code = ("import sys, manincert.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_under_python_O():
    """certify, numeric and selftest give the same exit code and output
    under -O."""
    for argv in (["--format", "json", "certify", "--label", "11.a2"],
                 ["--format", "json", "numeric", "--label", "11.a2"],
                 ["selftest"]):
        runs = [subprocess.run([sys.executable, *opt, "-m", "manincert.cli", *argv],
                               env=_src_env(), capture_output=True, text=True,
                               timeout=120)
                for opt in ([], ["-O"])]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        assert runs[0].stdout == runs[1].stdout


def test_invariant_error_exit_code(capsys, monkeypatch):
    from manincert import cli
    from manincert.intlattice import InvariantError

    def broken(n):
        raise InvariantError("relations not respected")

    monkeypatch.setattr(cli, "build_space", broken)
    code, _, err = run(capsys, "certify", "--label", "11.a2")
    assert code == 7 and "invariant violated" in err


def test_numeric_11a2(capsys):
    code, out, _ = run(capsys, "--format", "json", "numeric", "--label", "11.a2")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_c"] == 1
    assert payload["residual"] < 1e-6


def test_numeric_tol_zero_usage_error(capsys):
    code, _, _ = run(capsys, "numeric", "--label", "11.a2", "--tol", "0")
    assert code == 2


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_table_format_renders(capsys):
    code, out, _ = run(capsys, "analyze", "11")
    assert code == 0
    assert "newforms" in out and "degree" in out
