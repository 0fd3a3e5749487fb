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


def test_analyze_just_past_level_ceiling(capsys):
    """1001 is the first level past the fixed 1..1000 bound: a usage error,
    not a traceback."""
    code, _, err = run(capsys, "analyze", "1001")
    assert code == 2 and "usage error" in err and "Traceback" not in err


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


@pytest.mark.parametrize("flag", ["--cache=c.jsonl", "--online", "--offline"])
def test_removed_catalog_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, "census", "--max-conductor", "10"])
    assert exc.value.code == 2


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


def test_parser_reused_across_requests(capsys):
    """One process, one parser: each request gives the output and exit code
    of a fresh process, and no option (here --format) carries over."""
    from manincert import cli

    assert cli.build_parser() is cli.build_parser()
    requests = (["--format", "json", "certify", "--label", "11.a2"],
                ["certify", "--ainvs", "0,-1,1,-10,-20"],
                ["census", "--max-conductor", "-1"],
                ["--format", "json", "census", "--max-conductor", "40"])
    got = [run(capsys, *argv) for argv in requests]
    fresh = [subprocess.run([sys.executable, "-m", "manincert.cli", *argv],
                            env=_src_env(), capture_output=True, text=True,
                            timeout=120)
             for argv in requests]
    assert got == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in got] == [0, 0, 2, 0]
    assert not got[1][1].startswith("{")
    golden = Path(__file__).parent / "golden" / "census_40.json"
    assert got[3][1] == golden.read_text()


def test_output_independent_of_earlier_requests(capsys):
    """A request's output does not depend on what ran before it in the
    process: numeric and selftest install a curve's a_p on their newforms
    and grow them past the Sturm bound, and a later analyze at the same
    level must still print only the space's own a_p.  The numeric queries
    at 37 share the level's gamma loops and loop solvers, and the golden
    numeric labels run in reverse order; each equals its golden file."""
    from manincert.modsym import build_space

    numeric = [["--format", "json", "numeric", "--label", label]
               for label in ("37.a1", "37.b1", "37.a1",
                             "66.c1", "54.b1", "37.a1", "11.a2")]
    requests = (["numeric", "--label", "37.a1"],
                ["--format", "json", "analyze", "37"],
                ["selftest"],
                ["analyze", "11"],
                *numeric)
    got = [run(capsys, *argv) for argv in requests]
    fresh = {tuple(argv): subprocess.run(
                 [sys.executable, "-m", "manincert.cli", *argv], env=_src_env(),
                 capture_output=True, text=True, timeout=120)
             for argv in requests}
    runs = [fresh[tuple(argv)] for argv in requests]
    assert got == [(r.returncode, r.stdout, r.stderr) for r in runs]
    golden = Path(__file__).parent / "golden"
    for argv, (_, out, _) in zip(requests, got):
        if argv in numeric and argv[-1] != "37.b1":
            assert out == (golden / f"numeric_{argv[-1]}.json").read_text()
    assert all(f._ap_provider is None
               for f in build_space(37).rational_eigenspaces())


def test_invariant_error_exit_code(capsys, monkeypatch):
    from manincert import cli
    from manincert.intlattice import InvariantError

    def broken(n):
        raise InvariantError("relations not respected")

    monkeypatch.setattr(cli, "build_space", broken)
    code, _, err = run(capsys, "certify", "--label", "11.a2")
    assert code == 7 and "invariant violated" in err


def test_divisibility_error_exit_code(capsys, monkeypatch):
    """A degree that does not divide r_f is a typed invariant failure, not a
    traceback out of main."""
    from manincert import cli

    monkeypatch.setattr(cli, "congruence_number", lambda n, f: 1)
    code, _, err = run(capsys, "analyze", "37")
    assert code == 7 and "does not divide" in err


def test_certify_checks_degree_divides_r_f(capsys, monkeypatch):
    """certify checks deg | r_f on the values it computes live (deg = 2 at
    37.a1) before printing them."""
    from manincert import cli

    monkeypatch.setattr(cli, "congruence_number", lambda n, f: 1)
    code, out, err = run(capsys, "certify", "--label", "37.a1")
    assert code == 7 and "does not divide" in err
    assert out == ""


def test_numeric_11a2(capsys):
    code, out, _ = run(capsys, "--format", "json", "numeric", "--label", "11.a2")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_c"] == 1
    assert payload["residual"] < 1e-6


@pytest.mark.parametrize("tol", ("0", "nan", "inf", "-inf", "1e-17", "1e-23"))
def test_numeric_tol_zero_usage_error(capsys, tol):
    """A zero, NaN or infinite --tol, or one below double precision that no
    residual could meet, is a usage error, not a traceback."""
    code, _, err = run(capsys, "numeric", "--label", "11.a2", f"--tol={tol}")
    assert code == 2 and "usage error" in err and "Traceback" not in err


def test_numeric_exit_code_applies_the_printed_tolerance(capsys):
    """numeric exits 0 only when the residual it prints is below the
    tolerance it prints: 37.a1's residual (5.6e-16) is not below 3e-16."""
    code, out, _ = run(capsys, "--format", "json", "numeric", "--label", "37.a1",
                       "--tol", "3e-16")
    payload = json.loads(out)
    assert payload["abs_c"] == 1 and payload["tolerance"] == 3e-16
    assert payload["residual"] >= 3e-16 and code == 6


@pytest.mark.parametrize("tol", ("5e-8", "1e-7", "1e-6", "1e-5"))
@pytest.mark.parametrize("label", ("11.a2", "37.a1"))
def test_numeric_at_a_coarse_tolerance(capsys, label, tol):
    """A coarse --tol still finds |c| = 1: the newform lattice's real period
    is told from its non-real ones as at 1e-8, and a rounding-moved omega2
    is compared modulo omega1."""
    code, out, _ = run(capsys, "--format", "json", "numeric", "--label", label,
                       "--tol", tol)
    payload = json.loads(out)
    assert code == 0 and payload["abs_c"] == 1 and payload["residual"] < float(tol)


@pytest.mark.parametrize("argv", (
    ("certify", "--ainvs", "0,0,0,0,0"),      # singular
    ("numeric", "--ainvs", "0,0,0,0,0"),
    ("certify", "--ainvs", "0,0,0,1e400,0"),  # refused before any sieve
))
def test_malformed_ainvs_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "usage error" in err and "Traceback" not in err


def test_certify_rescaled_ainvs_matches_label(capsys):
    """11.a2 rescaled by u = 1/2 (a_i -> u^i a_i) has the same minimal model,
    so certify prints the label's JSON."""
    code, out, _ = run(capsys, "--format", "json", "certify",
                       "--ainvs", "0,-1/4,1/8,-5/8,-5/16")
    assert code == 0
    assert out == run(capsys, "--format", "json", "certify", "--label", "11.a2")[1]


def test_large_ainvs_denominator_refused_before_trial_division(capsys, monkeypatch):
    """A prime denominator 2^61 - 1 is refused as a usage error, and trial
    division never sees a number past 2^(2 SIEVE_BITS)."""
    from manincert import elliptic

    bound = 2**(2 * elliptic.SIEVE_BITS)
    factorize = elliptic.factorize
    seen = []

    def recording_factorize(n):
        seen.append(n)
        # a number past the bound is recorded, not trial-divided
        return factorize(n) if abs(n) <= bound else {}

    monkeypatch.setattr(elliptic, "factorize", recording_factorize)
    code, _, err = run(capsys, "certify", "--ainvs", "0,0,0,1/2305843009213693951,0")
    assert code == 2 and "usage error" in err and "Traceback" not in err
    assert all(abs(n) <= bound for n in seen), seen


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_table_format_renders(capsys):
    code, out, _ = run(capsys, "analyze", "11")
    assert code == 0
    assert "newforms" in out and "degree" in out
