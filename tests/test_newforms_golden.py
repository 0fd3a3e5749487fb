"""Golden rational newforms: `ModSymSpace.rational_eigenspaces()` at 54, 130,
198 and 530, byte for byte.

The files tests/golden/newforms_<level>.json were recorded from the full
eigenspace split, which ran every prime up to the Sturm bound on the whole
cuspidal lattice.  Each holds, per newform and in the newforms' order, `ap`
and `sign_w` as ordered lists of pairs and the eigenspace basis entries, so
a change to an eigenvalue, to the order of the `ap` keys, to an
Atkin-Lehner sign, to the basis or to the order of the newforms shows up.
The cached space serves: each call returns fresh copies of its newforms, so
what other code asks of its own copies does not reach these.

Regenerate a file with `PYTHONPATH=src python tests/test_newforms_golden.py
LEVEL > tests/golden/newforms_LEVEL.json`.
"""

import json
import sys
from pathlib import Path

import pytest

from manincert.modsym import build_space

GOLDEN = Path(__file__).parent / "golden"


def newforms_json(level: int) -> str:
    lines = [
        json.dumps({
            "ap": [[p, a] for p, a in f.ap.items()],
            "sign_w": [[q, e] for q, e in f.sign_w.items()],
            "eigenspace": [list(row) for row in f.eigenspace.basis.entries],
        })
        for f in build_space(level).rational_eigenspaces()
    ]
    return f'{{"level": {level}, "newforms": [\n' + ",\n".join(lines) + "\n]}\n"


@pytest.mark.parametrize("level", [54, 130, 198, 530])
def test_golden_newforms(level):
    assert newforms_json(level) == (GOLDEN / f"newforms_{level}.json").read_text()


if __name__ == "__main__":
    sys.stdout.write(newforms_json(int(sys.argv[1])))
