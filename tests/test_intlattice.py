import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from manincert.intlattice import (
    INFINITE,
    IntMatrix,
    LatticeError,
    det,
    hnf,
    kernel,
    lattice_from_rows,
    lattice_intersect,
    lattice_sum,
    quotient_order,
    saturate,
    snf,
    solve_in_rowspace,
    stack,
    standard_lattice,
    subspace_integer_points,
    zero_lattice,
)


def snf_diag(m):
    d, _, _ = snf(m)
    return [d.entries[i][i] for i in range(min(d.rows, d.cols))]


def M(rows):
    return IntMatrix.from_rows(rows)


def rand_matrix(rng, rows, cols, bound=9):
    return M([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def rand_unimodular(rng, n, steps=8):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            u[i][k] += q * u[j][k]
    return M(u)


def test_hnf_identity():
    assert hnf(IntMatrix.identity(2)) == IntMatrix.identity(2)


def test_hnf_zero_matrix_drops_rows():
    assert hnf(M([[0, 0], [0, 0]])).rows == 0


def test_hnf_example():
    assert hnf(M([[2, 4], [6, 8]])) == M([[2, 0], [0, 4]])


def test_hnf_idempotent_random():
    rng = random.Random(1)
    for _ in range(200):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h = hnf(a)
        assert hnf(h) == h


def test_snf_identity():
    d, u, v = snf(IntMatrix.identity(3))
    assert d == IntMatrix.identity(3)


def test_snf_example():
    assert snf_diag(M([[2, 4], [6, 8]])) == [2, 4]


def test_snf_rank_one():
    assert snf_diag(M([[1, 0], [0, 0]])) == [1, 0]


def test_snf_recomposition_random():
    rng = random.Random(2)
    for _ in range(200):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        d, u, v = snf(a)
        assert u * a * v == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and (x == 0 or y % x == 0 or y == 0)


def test_kernel_basic():
    k = kernel(M([[1, 1, 0]]))
    assert k.rows == 2
    for row in k.entries:
        assert row[0] + row[1] == 0


def test_saturate_scalar_multiple():
    lat = lattice_from_rows(2, [[2, 0]])
    assert saturate(lat) == lattice_from_rows(2, [[1, 0]])


def test_saturate_idempotent():
    lat = lattice_from_rows(3, [[2, 4, 6], [0, 10, 5]])
    s = saturate(lat)
    assert saturate(s) == s


def test_saturate_full_rank_sublattice():
    # Derived by the stated oracle: the smallest lattice containing
    # span{(2,2),(0,4)} with torsion-free quotient in Z^2 is Z^2 itself.
    lat = lattice_from_rows(2, [[2, 2], [0, 4]])
    assert saturate(lat) == standard_lattice(2)


def test_saturation_index_equals_snf_invariants():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        lat = lattice_from_rows(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)])
        if lat.rank == 0:
            continue
        idx = quotient_order(saturate(lat), lat)
        prod = 1
        for dv in snf_diag(lat.basis):
            if dv:
                prod *= dv
        assert idx == prod


def test_quotient_order_examples():
    z2 = standard_lattice(2)
    assert quotient_order(z2, lattice_from_rows(2, [[2, 0], [0, 2]])) == 4
    assert quotient_order(z2, z2) == 1
    assert quotient_order(z2, lattice_from_rows(2, [[1, 0]])) == INFINITE


def test_quotient_order_rejects_non_sublattice():
    with pytest.raises(LatticeError, match="not contained in sup"):
        quotient_order(lattice_from_rows(2, [[2, 0], [0, 2]]), standard_lattice(2))
    with pytest.raises(LatticeError, match="span of sup"):
        quotient_order(lattice_from_rows(3, [[1, 0, 0]]), lattice_from_rows(3, [[0, 1, 0]]))


def test_quotient_order_basis_invariance():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        sup = standard_lattice(n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sub = lattice_from_rows(n, rows)
        if sub.rank < n:
            continue
        order = quotient_order(sup, sub)
        u = rand_unimodular(rng, n)
        rebased = lattice_from_rows(n, (u * sub.basis).entries)
        assert quotient_order(sup, rebased) == order


def test_lattice_sum_intersect_idempotent():
    lat = lattice_from_rows(2, [[1, 2], [0, 3]])
    assert lattice_sum(lat, lat) == lat
    assert lattice_intersect(lat, lat) == lat


def test_lattice_sum_example():
    a = lattice_from_rows(2, [[2, 0], [0, 2]])
    b = lattice_from_rows(2, [[1, 1]])
    s = lattice_sum(a, b)
    assert quotient_order(standard_lattice(2), s) == 2
    assert solve_in_rowspace(s.basis, IntMatrix.from_rows([[1, 1]])) is not None


def test_intersect_coprime_scalings():
    a = lattice_from_rows(2, [[2, 0], [0, 2]])
    b = lattice_from_rows(2, [[3, 0], [0, 3]])
    assert lattice_intersect(a, b) == lattice_from_rows(2, [[6, 0], [0, 6]])


def test_sum_ambient_mismatch():
    with pytest.raises(LatticeError):
        lattice_sum(standard_lattice(2), standard_lattice(3))


def test_second_isomorphism_indices():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 4)
        a = lattice_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = lattice_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if a.rank < n or b.rank < n:
            continue
        s = lattice_sum(a, b)
        i = lattice_intersect(a, b)
        assert quotient_order(s, b) == quotient_order(a, i)
        assert quotient_order(s, a) == quotient_order(b, i)


def _gauss_jordan_solve(basis_rows, t):
    """Reference for x * B = t over Q: Gauss-Jordan in Fractions on the
    columns of B augmented by t.  One solution (free unknowns 0), or None."""
    n = len(basis_rows)
    a = [[Fraction(r[j]) for r in basis_rows] + [Fraction(t[j])]
         for j in range(len(t))]
    pivots = []
    for col in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][col]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][col]:
                a[k] = [x - a[k][col] * y for x, y in zip(a[k], a[r])]
        pivots.append(col)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x


def _fraction_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for c in range(len(a)):
        i = next((i for i in range(c, len(a)) if a[i][c]), None)
        if i is None:
            return Fraction(0)
        if i != c:
            a[c], a[i] = a[i], a[c]
            out = -out
        out *= a[c][c]
        for k in range(c + 1, len(a)):
            f = a[k][c] / a[c][c]
            a[k] = [x - f * y for x, y in zip(a[k], a[c])]
    return out


def _minor_gcd(rows, r):
    """gcd of the r x r minors: the product of the lattice's elementary divisors."""
    g = 0
    for ri in combinations(range(len(rows)), r):
        for ci in combinations(range(len(rows[0])), r):
            g = math.gcd(g, int(_fraction_det([[rows[i][j] for j in ci] for i in ri])))
    return g


def _row_rank(rows):
    """Rank by the reference solve: rows that are not combinations of the
    earlier ones."""
    kept = []
    for r in rows:
        if not kept or _gauss_jordan_solve(kept, r) is None:
            kept.append(r)
    return len(kept) if any(any(r) for r in kept) else 0


def test_solve_in_rowspace_roundtrip():
    rng = random.Random(6)
    for _ in range(100):
        b = rand_matrix(rng, 3, 4)
        c = rand_matrix(rng, 2, 3)
        t = c * b
        got = solve_in_rowspace(b, t, integral=True)
        assert got is not None
        assert got * b == t
    # Edge cases, both paths against the Gauss-Jordan reference: rank-
    # deficient bases (a combined row, a zero row), targets outside the span,
    # and targets inside the span with non-integer coordinates (t combines
    # the rows before they are scaled by 2 or 3).  An integer solution exists
    # iff adding t to the rows leaves the gcd of the maximal minors unchanged.
    for _ in range(300):
        base = rand_matrix(rng, rng.randint(1, 3), 4, 5)
        t = list((M([[rng.randint(-3, 3) for _ in range(base.rows)]]) * base).entries[0])
        rows = []
        for r in base.entries:
            k = rng.choice((1, 1, 2, 3))
            rows.append([k * x for x in r])
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        elif kind == 1:
            rows.append([0] * 4)
        b = M(rows)
        if rng.random() < 0.3:
            t[rng.randrange(4)] += 1  # usually leaves the span
        ref = _gauss_jordan_solve(rows, t)
        rat = solve_in_rowspace(b, M([t]), integral=False)
        got = solve_in_rowspace(b, M([t]), integral=True)
        if ref is None:
            assert rat is None and got is None
            continue
        assert rat is not None
        assert all(isinstance(q, Fraction) for q in rat[0])
        assert [sum(q * x for q, x in zip(rat[0], col)) for col in zip(*rows)] == t
        rk = _row_rank(rows)
        if rk == len(rows):
            assert rat[0] == ref  # the solution is unique
        in_lattice = _minor_gcd(rows, rk) == _minor_gcd(rows + [t], rk)
        assert (got is not None) == in_lattice
        if got is not None:
            assert got * b == M([t])
            if rk == len(rows):
                assert list(got.entries[0]) == ref


def test_subspace_integer_points_is_saturated():
    lat = subspace_integer_points(3, [[2, 2, 0], [0, 0, 4]])
    assert lat == lattice_from_rows(3, [[1, 1, 0], [0, 0, 1]])
