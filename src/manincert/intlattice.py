"""Exact integer linear algebra: HNF, SNF, kernels, saturation, lattice indices.

All arithmetic is on Python ints (arbitrary precision); nothing here ever
touches floating point.  Vectors are rows; operator matrices act on column
vectors.  Lattices store a row basis kept in Hermite normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class LatticeError(ValueError):
    """Invalid lattice pair (span containment or ambient mismatch)."""


class InvariantError(RuntimeError):
    """A load-bearing invariant of an exact computation does not hold."""


def require(cond, msg: str) -> None:
    """Raise InvariantError(msg) unless cond; unlike assert, kept under -O."""
    if not cond:
        raise InvariantError(msg)


INFINITE = math.inf


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        """A matrix from rows of integer-like values, each coerced with int()
        and the widths checked.  Int rows that this module built itself skip
        the coercion and go to the constructor directly."""
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        if tup:
            widths = {len(r) for r in tup}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            if cols is not None and widths != {cols}:
                raise ValueError("unexpected column count")
        return IntMatrix(tup)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return self
        return IntMatrix(tuple(zip(*self.entries)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries))
        )

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(k * a for a in r) for r in self.entries))

    def matvec(self, v) -> list[int]:
        """self @ v for a column vector v (returned as a list)."""
        return [sum(a * b for a, b in zip(row, v)) for row in self.entries]


def stack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows and b.rows and a.cols != b.cols:
        raise ValueError("shape mismatch")
    return IntMatrix(a.entries + b.entries)


def _hnf_work(rows: list[list[int]], transform: bool):
    """In-place row HNF.  Returns (pivot list, U) with U*input = result."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        # Euclidean elimination in column c, min-|pivot| selection.
        while True:
            live = [i for i in range(r, m) if rows[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            if i0 != r:
                rows[i0], rows[r] = rows[r], rows[i0]
                if transform:
                    u[i0], u[r] = u[r], u[i0]
            if len(live) == 1:
                break
            p = rows[r][c]
            for i in range(r + 1, m):
                if rows[i][c]:
                    q = rows[i][c] // p
                    if q:
                        ri, rr = rows[i], rows[r]
                        for j in range(c, n):
                            ri[j] -= q * rr[j]
                        if transform:
                            ui, ur = u[i], u[r]
                            for j in range(m):
                                ui[j] -= q * ur[j]
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            if transform:
                u[r] = [-x for x in u[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p  # floor: entries above pivot land in [0, p)
            if q:
                ri, rr = rows[i], rows[r]
                for j in range(n):
                    ri[j] -= q * rr[j]
                if transform:
                    ui, ur = u[i], u[r]
                    for j in range(m):
                        ui[j] -= q * ur[j]
        pivots.append(c)
        r += 1
    return pivots, u


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows removed."""
    rows = m.tolists()
    pivots, _ = _hnf_work(rows, transform=False)
    return IntMatrix(tuple(map(tuple, rows[: len(pivots)])))


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """Return (H, U, pivots) with U*m = H, U unimodular, zero rows kept."""
    rows = m.tolists()
    pivots, u = _hnf_work(rows, transform=True)
    return IntMatrix(tuple(map(tuple, rows))), IntMatrix(tuple(map(tuple, u))), pivots


def kernel(m: IntMatrix) -> IntMatrix:
    """Saturated basis (as rows) of {x : m @ x = 0}, in HNF."""
    if m.cols == 0:
        return IntMatrix.from_rows([])
    if m.rows == 0:
        return IntMatrix.identity(m.cols)
    h, u, pivots = hnf_with_transform(m.transpose())
    rk = len(pivots)
    ker_rows = u.entries[rk:]
    return hnf(IntMatrix(ker_rows)) if ker_rows else IntMatrix(())


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = m.tolists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[i], a[k] = a[k], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (d, u, v) with u*m*v = d, u and v unimodular,
    d diagonal with d1 | d2 | ... >= 0."""
    a = m.tolists()
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, k, q):  # row_i -= q*row_k
        for j in range(nc):
            a[i][j] -= q * a[k][j]
        for j in range(nr):
            u[i][j] -= q * u[k][j]

    def col_op(j, k, q):  # col_j -= q*col_k
        for i in range(nr):
            a[i][j] -= q * a[i][k]
        for i in range(nc):
            v[i][j] -= q * v[i][k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot of least absolute value
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # pivot must divide the rest of the block
        p = a[t][t]
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                for j in range(nc):
                    a[t][j] = -a[t][j]
                for j in range(nr):
                    u[t][j] = -u[t][j]
            t += 1
    d = IntMatrix.from_rows(a)
    return d, IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def _solve_rows(h, u, pivots, target, integral: bool):
    """x with x * basis = target, given U * basis = H in row HNF, or None.

    The coefficient of H's i-th row is fixed by the target's entry at that
    row's pivot, since later rows vanish there.  The solve is in ints: with
    integral=True a nonzero remainder at a pivot means no integer solution;
    with integral=False the target is first scaled by d, the product of the
    pivots, which makes every division exact, and the coefficients come back
    as Fractions over d."""
    he, ue = h.entries, u.entries
    ncols = h.cols
    d = 1 if integral else math.prod(he[i][pc] for i, pc in enumerate(pivots))
    rem = [d * x for x in target] if d != 1 else list(target)
    c = []
    for i, pc in enumerate(pivots):
        q, r = divmod(rem[pc], he[i][pc])
        if r:
            return None
        c.append(q)
        if q:
            hi = he[i]
            for j in range(pc, ncols):
                rem[j] -= q * hi[j]
    if any(rem):
        return None
    # coefficients are w.r.t. rows of H; convert back through U
    live = [i for i, q in enumerate(c) if q]
    x = [sum(c[i] * ue[i][j] for i in live) for j in range(u.cols)]
    return x if integral else [Fraction(v, d) for v in x]


def solve_in_rowspace(basis: IntMatrix, targets: IntMatrix, integral: bool = True):
    """Return C with C * basis = targets, or None if some target row is
    outside the row span.  With integral=True the coefficients must be
    integers (None otherwise) and C is an IntMatrix; with integral=False
    Fractions are allowed and C is a list of rows."""
    h, u, pivots = hnf_with_transform(basis)
    out = []
    for t in targets.entries:
        row = _solve_rows(h, u, pivots, t, integral)
        if row is None:
            return None
        out.append(row)
    if integral:
        return IntMatrix.from_rows(out, basis.rows if targets.rows else None)
    return out


class RowSolver:
    """Precomputed HNF data for solving C * basis = target repeatedly."""

    def __init__(self, basis: IntMatrix):
        self.basis = basis
        self.h, self.u, self.pivots = hnf_with_transform(basis)

    def solve(self, target_row, integral: bool = True):
        return _solve_rows(self.h, self.u, self.pivots, target_row, integral)


@dataclass(frozen=True)
class Lattice:
    """Free integer lattice of finite rank inside Z^ambient_rank.

    The basis is always a row HNF with zero rows removed, so equal lattices
    compare equal.
    """

    ambient_rank: int
    basis: IntMatrix

    @property
    def rank(self) -> int:
        return self.basis.rows

    def __post_init__(self):
        if self.basis.rows and self.basis.cols != self.ambient_rank:
            raise ValueError("basis width != ambient rank")


def lattice_from_rows(ambient_rank: int, rows) -> Lattice:
    mat = IntMatrix.from_rows(rows, ambient_rank if rows else None)
    if mat.rows and mat.cols != ambient_rank:
        raise ValueError("row width != ambient rank")
    return Lattice(ambient_rank, hnf(mat))


def zero_lattice(ambient_rank: int) -> Lattice:
    return Lattice(ambient_rank, IntMatrix.from_rows([]))


def standard_lattice(ambient_rank: int) -> Lattice:
    return Lattice(ambient_rank, IntMatrix.identity(ambient_rank))


def saturate(lat: Lattice) -> Lattice:
    """Smallest lattice containing lat with torsion-free quotient inside the
    rational span intersected with Z^n."""
    return subspace_integer_points(lat.ambient_rank, lat.basis.entries)


def quotient_order(sup: Lattice, sub: Lattice):
    """#(sup/sub) as an int, or INFINITE when sub has lower rank.

    Raises LatticeError when sub is not contained in sup (as lattices) or the
    ambients differ.
    """
    if sup.ambient_rank != sub.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    if sub.rank == 0:
        return 1 if sup.rank == 0 else INFINITE
    c = solve_in_rowspace(sup.basis, sub.basis, integral=True)
    if c is None:
        if solve_in_rowspace(sup.basis, sub.basis, integral=False) is None:
            raise LatticeError("sub lattice is not contained in the span of sup")
        raise LatticeError("sub lattice is not contained in sup")
    if sub.rank < sup.rank:
        return INFINITE
    return abs(det(c))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    return Lattice(a.ambient_rank, hnf(stack(a.basis, b.basis)))


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    if a.rank == 0 or b.rank == 0:
        return zero_lattice(a.ambient_rank)
    c = stack(a.basis, b.basis)
    left = kernel(c.transpose())  # rows (x | -y) with x*A = y*B
    rows = []
    for w in left.entries:
        x = w[: a.rank]
        rows.append([sum(x[i] * a.basis.entries[i][j] for i in range(a.rank))
                     for j in range(a.ambient_rank)])
    return lattice_from_rows(a.ambient_rank, rows)


def subspace_integer_points(ambient_rank: int, spanning_rows) -> Lattice:
    """The saturated lattice Z^n intersect span_Q(spanning_rows)."""
    mat = IntMatrix.from_rows(spanning_rows, ambient_rank if spanning_rows else None)
    if mat.rows == 0:
        return zero_lattice(ambient_rank)
    ann = kernel(mat)
    if ann.rows == 0:
        return standard_lattice(ambient_rank)
    return Lattice(ambient_rank, kernel(ann))
