"""Golden outputs: `--format json certify` and `--format json numeric`,
byte for byte.

The certificates under tests/golden/ were recorded from the CLI before the
sparse Manin-symbol layer, and the numeric outputs (numeric_<label>.json)
before the table-driven point counts and the fraction-free rational solve.
Any change to a certified value, to a floating-point period result or to
the JSON layout shows up here.
"""

from pathlib import Path

import pytest

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
