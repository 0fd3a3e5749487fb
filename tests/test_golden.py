"""Golden outputs: `--format json certify`, `--format json numeric` and
`--format json census`, byte for byte.

The certificates under tests/golden/ were recorded from the CLI before the
sparse Manin-symbol layer, the numeric outputs (numeric_<label>.json)
before the table-driven point counts and the fraction-free rational solve
(the residuals of 37.a1, 54.b1 and 66.c1 again when the newform periods came
from two gamma loops and the AGM's non-rectangular branch stopped cancelling),
the census outputs (census_<bound>.json) before the census was staged
on the certificate criteria, and the analyze outputs (analyze_<level>.json)
before good-prime Hecke images moved from Merel's set to Cremona's
Heilbronn set (analyze_530.json before the degree and r_f were read
through the complement's annihilator).  Any change to a certified value,
to a census stage, to a floating-point period result or to the JSON layout
shows up here.
"""

from pathlib import Path

import pytest

from manincert import elliptic
from manincert.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = {"11.a2": 0, "34.a4": 0, "66.c1": 0, "130.a2": 0, "198.d4": 3, "530.a1": 0}


@pytest.mark.parametrize("label", sorted(EXIT_CODES))
def test_golden_certificate(label, capsys):
    code = main(["--format", "json", "certify", "--label", label])
    assert capsys.readouterr().out == (GOLDEN / f"{label}.json").read_text()
    assert code == EXIT_CODES[label]


@pytest.mark.parametrize("label", ["11.a2", "37.a1", "54.b1", "66.c1"])
def test_golden_numeric(label, capsys):
    code = main(["--format", "json", "numeric", "--label", label])
    assert capsys.readouterr().out == (GOLDEN / f"numeric_{label}.json").read_text()
    assert code == 0


@pytest.mark.parametrize("level", [54, 198, 530])
def test_golden_analyze(level, capsys):
    code = main(["--format", "json", "analyze", str(level)])
    assert capsys.readouterr().out == (GOLDEN / f"analyze_{level}.json").read_text()
    assert code == 0


@pytest.mark.parametrize("bound", [40, 200])
def test_golden_census(bound, capsys):
    code = main(["--format", "json", "census", "--max-conductor", str(bound)])
    assert capsys.readouterr().out == (GOLDEN / f"census_{bound}.json").read_text()
    assert code == 0


def test_census_reuses_snapshot_records(capsys, monkeypatch):
    """A second census in one process runs no minimal-model search: each
    snapshot record is derived once per process."""
    calls = []
    inner = elliptic.minimal_model

    def counted(w):
        calls.append(w)
        return inner(w)

    monkeypatch.setattr(elliptic, "minimal_model", counted)
    golden = (GOLDEN / "census_200.json").read_text()
    for _ in range(2):
        calls.clear()
        code = main(["--format", "json", "census", "--max-conductor", "200"])
        assert capsys.readouterr().out == golden
        assert code == 0
    assert calls == []
