"""Golden certificates: `--format json certify` output, byte for byte.

The files under tests/golden/ were recorded from the CLI before the sparse
Manin-symbol layer; any change to a certified value or to the JSON layout
shows up here.
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
