"""No `assert` guards a certificate: `python -O` deletes asserts, so every
load-bearing check in the package and in the snapshot generator is a
`require` (InvariantError, exit code 7) or a typed error.  The asserts
that stay in the package state pure algebra facts that the lines just above
them imply; each is named here by module, enclosing function and condition,
so a new assert (or a moved one) fails this test.  The generator keeps none.
"""

import ast
from pathlib import Path

import manincert

ALLOWED = sorted([
    # xgcd of coprime arguments returns gcd 1
    ("modsym.py", "lift_to_sl2", "g == 1"),
    ("modsym.py", "w_matrix", "g == 1"),
    # det w_q = q, from q x + (N/q) y = 1 just above
    ("modsym.py", "w_matrix",
     "q * x * q - 1 * (-N * y) == q * (q * x + N // q * y) == q"),
    # the last continued-fraction convergent of p/q is p/q
    ("modsym.py", "_zero_to", "(pk, qk) == (p, q)"),
    # deg | r_f is checked with a typed error just above
    ("invariants.py", "degree_congruence_gap", "gap >= 0"),
])


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def package_asserts(paths=None):
    found = []

    def walk(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.Assert):
                found.append((path.name, func, ast.unparse(child.test)))
            walk(child, path, func)

    for path in paths or sorted(Path(manincert.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, None)
    return sorted(found)


def test_only_allowlisted_asserts():
    assert package_asserts() == ALLOWED


def test_snapshot_generator_has_no_asserts():
    """tools/build_fixtures.py re-derives the snapshot; under `python -O` an
    assert there would check nothing, so its checks are all `require`."""
    assert package_asserts(sorted(TOOLS.glob("*.py"))) == []
