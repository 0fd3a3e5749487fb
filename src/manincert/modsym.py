"""Exact weight-2 modular symbols for Gamma0(N).

The presentation is by Manin symbols indexed by P^1(Z/NZ) modulo the two- and
three-term relations x + xS = 0 and x + xU + xU^2 = 0.  Instead of forming the
(possibly torsion-carrying) quotient, classes are coordinatized through the
dual: the saturated integer kernel K of the relation matrix gives a Z-basis of
Hom(quotient, Z), and v |-> K.v identifies the torsion-free quotient with Z^k.
The cuspidal lattice is the saturated kernel of the boundary map in these
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .intlattice import (
    IntMatrix,
    Lattice,
    hnf,
    kernel,
    lattice_from_rows,
    require,
    solve_in_rowspace,
    stack,
)

# ---------------------------------------------------------------------------
# arithmetic helpers


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with a*x + b*y = g = gcd(a, b) >= 0."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * 0 or bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def index_mu(n: int) -> int:
    """[SL2(Z) : Gamma0(n)] = n * prod_{p|n} (1 + 1/p)."""
    mu = n
    for p in factorize(n):
        mu = mu // p * (p + 1)
    return mu


def nu2(n: int) -> int:
    if n % 4 == 0:
        return 0
    out = 1
    for p in factorize(n):
        if p == 2:
            continue
        out *= 1 + (1 if p % 4 == 1 else -1)
    return out


def nu3(n: int) -> int:
    if n % 9 == 0:
        return 0
    out = 1
    for p in factorize(n):
        if p == 3:
            continue
        out *= 1 + (1 if p % 3 == 1 else -1)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def nu_inf(n: int) -> int:
    return sum(euler_phi(gcd(d, n // d)) for d in divisors(n))


def genus_x0(n: int) -> int:
    g12 = 12 + index_mu(n) - 3 * nu2(n) - 4 * nu3(n) - 6 * nu_inf(n)
    assert g12 % 12 == 0
    return g12 // 12


# ---------------------------------------------------------------------------
# P^1(Z/NZ)


def _lift_unit(n: int, d: int, a: int) -> int:
    """Lift a unit a modulo d (d | n) to a unit modulo n."""
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    x, y, _ = xgcd(u, v)
    return (u * x + a * y * v) % n


class P1List:
    """Canonical representatives for P^1(Z/NZ) (Stein, Algs. 8.29/8.32).

    `table[c][d]` is the index of (c : d) for residues c, d mod N, or -1 when
    gcd(c, d, N) > 1.  Each valid pair is a unit multiple of exactly one
    representative, so the table is filled from the unit orbits of the
    representatives (Cremona, Algorithms for Modular Elliptic Curves, 2.2).
    """

    def __init__(self, N: int):
        self.N = N
        reps = set()
        for c in divisors(N) + ([0] if N > 1 else []):
            for d in range(N):
                pt = self.normalize(c, d)
                if pt is not None:
                    reps.add(pt)
        if N == 1:
            reps = {(0, 0)}
        self.pairs: list[tuple[int, int]] = sorted(reps)
        self.lookup = {p: i for i, p in enumerate(self.pairs)}
        require(len(self.pairs) == index_mu(N),
                f"P^1(Z/{N}Z) has {len(self.pairs)} points, not {index_mu(N)}")
        units = [t for t in range(N) if gcd(t, N) == 1]
        self.table = [[-1] * N for _ in range(N)]
        for i, (c, d) in enumerate(self.pairs):
            for t in units:
                self.table[c * t % N][d * t % N] = i

    def __len__(self) -> int:
        return len(self.pairs)

    def normalize(self, u: int, v: int):
        """Canonical form of (u : v), or None when gcd(u, v, N) > 1."""
        N = self.N
        if N == 1:
            return (0, 0)
        u %= N
        v %= N
        if u == 0:
            return (0, 1) if gcd(v, N) == 1 else None
        x, s, g = xgcd(N, u)
        if gcd(g, v) > 1:
            return None
        s = _lift_unit(N, N // g, s)
        u, v = g, (s * v) % N
        if g == 1:
            return (1, v)
        v = min((v * t) % N for t in range(1, N, N // g) if gcd(N, t) == 1)
        return (g, v)

    def index(self, u: int, v: int):
        i = self.table[u % self.N][v % self.N]
        return None if i < 0 else i


def lift_to_sl2(c: int, d: int, N: int) -> tuple[int, int, int, int]:
    """Some [[a, b], [c*, d*]] in SL2(Z) with (c*, d*) = (c, d) mod N."""
    if N == 1:
        return (1, 0, 0, 1)
    c %= N
    d %= N
    cc = c if c != 0 else N
    dd = d
    k = 0
    while gcd(cc, dd) != 1:
        k += 1
        dd = d + k * N
        if k > 4 * cc + 4:
            raise AssertionError(f"no coprime lift for ({c}:{d}) mod {N}")
    x, y, g = xgcd(dd, cc)
    assert g == 1
    return (x, -y, cc, dd)


# ---------------------------------------------------------------------------
# cusps


def normalize_cusp(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        return (1, 0)
    g = gcd(num, den)
    if g:
        num //= g
        den //= g
    if den < 0:
        num, den = -num, -den
    return (num, den)


def cusps_equivalent(p1: tuple[int, int], p2: tuple[int, int], N: int) -> bool:
    """Gamma0(N)-equivalence of cusps p1 = u1/v1 and p2 = u2/v2."""
    u1, v1 = p1
    u2, v2 = p2
    s1 = xgcd(u1, v1)[0]
    s2 = xgcd(u2, v2)[0]
    m = gcd(N, (v1 * v2) % N if N > 1 else 0)
    if m == 0:
        m = N
    return (s1 * v2 - s2 * v1) % m == 0


def mobius(mat: tuple[int, int, int, int], cusp: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = mat
    p, q = cusp
    return normalize_cusp(a * p + b * q, c * p + d * q)


# ---------------------------------------------------------------------------
# Heilbronn-Merel matrices


def merel_matrices(n: int):
    """Merel's set: [[a,b],[c,d]], det = n, a > b >= 0, d > c >= 0."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield (a, b, 0, d)
                for c in range(1, d):
                    yield (a, 0, c, d)
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield (a, b, bc // b, d)


def _iround(a: int, b: int) -> int:
    """Nearest integer to a/b (ties away from the floor)."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def heilbronn_cremona(p: int):
    """Cremona's Heilbronn family of determinant p (p prime, used for good
    primes; much denser enumeration than Merel's set)."""
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    out = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2 = p, -r, 0, 1
        a, b = -p, r
        out.append((x1, x2, y1, y2))
        while b:
            q = _iround(a, b)
            c = a - b * q
            a, b = -b, c
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


# ---------------------------------------------------------------------------
# the modular symbol space


@dataclass(frozen=True)
class P1Point:
    """Canonical projective pair (c : d) modulo N."""

    c: int
    d: int


@dataclass(frozen=True)
class HeckeOperator:
    """Hecke operator T_m as an exact matrix on cuspidal-lattice coordinates."""

    index: int
    matrix: IntMatrix


class ModSymSpace:
    """Weight-2 modular symbols for Gamma0(N) with exact integral structure."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("level must be >= 1")
        self.level = N
        self.p1 = P1List(N)
        self.mu = len(self.p1)
        self.genus = genus_x0(N)
        self._build_coordinates()
        self._build_boundary()
        self._hecke_coord_cache: dict[int, IntMatrix] = {}
        self._hecke_cusp_cache: dict[int, IntMatrix] = {}
        self._lower_cache: dict[tuple[int, int], IntMatrix] = {}
        self._al_cache: dict[int, IntMatrix] = {}
        self._newforms = None
        self._cusp_solver = None

    # -- presentation ------------------------------------------------------

    def _symbol_S(self, i: int) -> int:
        c, d = self.p1.pairs[i]
        return self.p1.index(d, -c)

    def _symbol_U(self, i: int) -> int:
        c, d = self.p1.pairs[i]
        return self.p1.index(d, -c - d)

    def _build_coordinates(self):
        mu = self.mu
        zero = [False] * mu
        rep = list(range(mu))
        sgn = [1] * mu

        for i in range(mu):
            j = self._symbol_S(i)
            if j == i:
                zero[i] = True
            elif j > i:
                rep[j] = i
                sgn[j] = -1

        # three-term relations over the S-representatives; U-orbit fixed
        # points force their variable to zero, so mark those first
        orbits = []
        seen = set()
        for i in range(mu):
            orbit = (i, self._symbol_U(i), self._symbol_U(self._symbol_U(i)))
            key = min(orbit)
            if key in seen:
                continue
            seen.add(key)
            if orbit[1] == i:
                zero[rep[i]] = True
            else:
                orbits.append(orbit)
        rels: list[dict[int, int]] = []
        for orbit in orbits:
            r: dict[int, int] = {}
            for t in orbit:
                v, s = rep[t], sgn[t]
                if zero[v]:
                    continue
                r[v] = r.get(v, 0) + s
            rels.append({v: c for v, c in r.items() if c})

        exprs: dict[int, dict[int, int]] = {}
        live = {rep[i] for i in range(mu) if not zero[rep[i]] and rep[i] == i}

        def mark_zero(v: int):
            zero[v] = True
            live.discard(v)

        # iterative simplification with unit-pivot elimination
        var_rels: dict[int, set[int]] = {v: set() for v in live}
        active: dict[int, dict[int, int]] = {}
        for ridx, r in enumerate(rels):
            active[ridx] = r
            for v in r:
                var_rels[v].add(ridx)

        def substitute_zero(v: int):
            for ridx in list(var_rels.get(v, ())):
                r = active.get(ridx)
                if r is None:
                    continue
                r.pop(v, None)
                _post_update(ridx, r)
            var_rels.pop(v, None)

        def _post_update(ridx: int, r: dict[int, int]):
            if not r:
                active.pop(ridx, None)
            elif len(r) == 1:
                ((v, c),) = r.items()
                active.pop(ridx, None)
                var_rels[v].discard(ridx)
                if c:
                    mark_zero(v)
                    substitute_zero(v)

        changed = True
        while changed:
            changed = False
            for ridx in list(active):
                r = active.get(ridx)
                if r is None:
                    continue
                unit_vars = [v for v, c in r.items() if abs(c) == 1]
                if not unit_vars:
                    continue
                v = min(unit_vars, key=lambda w: len(var_rels[w]))
                s = r[v]
                expr = {w: -s * c for w, c in r.items() if w != v}
                exprs[v] = expr
                live.discard(v)
                active.pop(ridx)
                var_rels[v].discard(ridx)
                for other in list(var_rels[v]):
                    ro = active.get(other)
                    if ro is None:
                        continue
                    coef = ro.pop(v, 0)
                    if coef:
                        for w, c in expr.items():
                            nc = ro.get(w, 0) + coef * c
                            if nc:
                                ro[w] = nc
                                var_rels[w].add(other)
                            else:
                                ro.pop(w, None)
                                var_rels[w].discard(other)
                    _post_update(other, ro)
                var_rels.pop(v, None)
                changed = True

        residual = [dict(r) for r in active.values()]
        res_vars = sorted({v for r in residual for v in r})
        free_vars = sorted(v for v in live if v not in res_vars)

        params: list[dict[int, int]] = [{v: 1} for v in free_vars]
        if residual:
            mat = IntMatrix.from_rows(
                [[r.get(v, 0) for v in res_vars] for r in residual]
            )
            for row in kernel(mat).entries:
                params.append({v: c for v, c in zip(res_vars, row) if c})

        # resolve expressed variables against each parameter assignment
        def resolve(assign: dict[int, int]) -> dict[int, int]:
            val: dict[int, int] = dict(assign)
            order: list[int] = []
            state: dict[int, int] = {}

            def visit(v: int):
                stk = [v]
                while stk:
                    w = stk[-1]
                    if state.get(w) == 2 or w in val and w not in exprs:
                        stk.pop()
                        continue
                    if state.get(w) == 1:
                        state[w] = 2
                        order.append(w)
                        stk.pop()
                        continue
                    state[w] = 1
                    if w in exprs:
                        for dep in exprs[w]:
                            if state.get(dep, 0) == 0:
                                stk.append(dep)

            for v in exprs:
                visit(v)
            for v in order:
                if v in exprs:
                    val[v] = sum(c * val.get(w, 0) for w, c in exprs[v].items())
            return val

        rows = []
        for assign in params:
            val = resolve(assign)
            full = [0] * mu
            for i in range(mu):
                v = rep[i]
                if zero[v]:
                    continue
                full[i] = sgn[i] * val.get(v, 0)
            rows.append(full)

        coords = hnf(IntMatrix.from_rows(rows, mu)) if rows else IntMatrix.from_rows([])
        expected = 2 * self.genus + nu_inf(self.level) - 1
        assert coords.rows == expected, (self.level, coords.rows, expected)
        self.coords = coords
        self.rank = coords.rows
        # column j of coords as its nonzero (row, value) pairs
        cols: list[list[tuple[int, int]]] = [[] for _ in range(mu)]
        for t, row in enumerate(coords.entries):
            for j, x in enumerate(row):
                if x:
                    cols[j].append((t, x))
        self._coord_cols = [tuple(c) for c in cols]
        self._pivots = [next(j for j, x in enumerate(row) if x) for row in coords.entries]

    @property
    def generators(self) -> list[P1Point]:
        return [P1Point(c, d) for c, d in self.p1.pairs]

    @property
    def presentation(self) -> IntMatrix:
        """The raw two- and three-term relation matrix on Manin symbols."""
        if getattr(self, "_presentation", None) is None:
            rows = []
            seen = set()
            for i in range(self.mu):
                j = self._symbol_S(i)
                if (j, i) not in seen:
                    seen.add((i, j))
                    row = [0] * self.mu
                    row[i] += 1
                    row[j] += 1
                    rows.append(row)
            seen = set()
            for i in range(self.mu):
                orbit = (i, self._symbol_U(i), self._symbol_U(self._symbol_U(i)))
                if min(orbit) in seen:
                    continue
                seen.add(min(orbit))
                row = [0] * self.mu
                for t in orbit:
                    row[t] += 1
                rows.append(row)
            self._presentation = IntMatrix.from_rows(rows, self.mu)
        return self._presentation

    @property
    def cuspidal_lattice_rank(self) -> int:
        return self.cuspidal_basis.rows

    def symbol_lift(self, i: int) -> tuple[int, int, int, int]:
        c, d = self.p1.pairs[i]
        return lift_to_sl2(c, d, self.level)

    def _class_of(self, combo: dict[int, int]) -> list[int]:
        out = [0] * self.rank
        for idx, coef in combo.items():
            for t, x in self._coord_cols[idx]:
                out[t] += coef * x
        return out

    def _solve_and_check(self, image_class, out_rank: int) -> IntMatrix:
        """The out_rank x rank matrix A with A . class(i) = image_class(i) for
        every Manin symbol i.

        A is solved through the pivot symbols of the HNF coordinates, then
        checked on every symbol: an image map that does not respect the two-
        and three-term relations raises InvariantError.
        """
        k = self.rank
        if k == 0:
            return IntMatrix.from_rows([])
        images = [image_class(i) for i in range(self.mu)]
        # A . P = images of the pivot symbols, where P (the pivot columns of
        # coords) is upper triangular
        a = [[0] * k for _ in range(out_rank)]
        for j, pc in enumerate(self._pivots):
            above = [(t, x) for t, x in self._coord_cols[pc] if t < j]
            pj = self.coords.entries[j][pc]
            img = images[pc]
            for r, row in enumerate(a):
                q, rem = divmod(img[r] - sum(row[t] * x for t, x in above), pj)
                require(rem == 0, "operator image is not integral on coordinates")
                row[j] = q
        a_cols = [[row[s] for row in a] for s in range(k)]

        def a_times_class(i: int) -> list[int]:
            out = [0] * out_rank
            for s, x in self._coord_cols[i]:
                out = [o + x * y for o, y in zip(out, a_cols[s])]
            return out

        bad = next((i for i in range(self.mu) if images[i] != a_times_class(i)), None)
        require(bad is None, f"image map does not respect the relations at Manin "
                             f"symbol {bad} of level {self.level}")
        return IntMatrix.from_rows(a, k if out_rank else None)

    # -- boundary and the cuspidal lattice ----------------------------------

    def _build_boundary(self):
        N = self.level
        cusp_reps: list[tuple[int, int]] = []

        def cusp_index(c: tuple[int, int]) -> int:
            for i, r in enumerate(cusp_reps):
                if cusps_equivalent(c, r, N):
                    return i
            cusp_reps.append(c)
            return len(cusp_reps) - 1

        ends = []
        for i in range(self.mu):
            a, b, c, d = self.symbol_lift(i)
            ends.append((cusp_index(normalize_cusp(a, c)),
                         cusp_index(normalize_cusp(b, d))))

        assert len(cusp_reps) == nu_inf(N), (N, len(cusp_reps))
        self.cusps = cusp_reps
        ncusp = len(cusp_reps)

        if self.rank == 0:
            self.boundary = IntMatrix.from_rows([])
            self.cuspidal_basis = IntMatrix.from_rows([])
            self.cuspidal_lattice = lattice_from_rows(0, [])
            return

        def boundary_of(i: int) -> list[int]:
            out = [0] * ncusp
            top, bot = ends[i]
            out[top] += 1
            out[bot] -= 1
            return out

        # boundary matrix on coordinates: Bd . class(i) = boundary of symbol i
        bd = self._solve_and_check(boundary_of, ncusp)
        self.boundary = bd
        cusp_kernel = kernel(bd)
        assert cusp_kernel.rows == 2 * self.genus, (self.level, cusp_kernel.rows)
        self.cuspidal_basis = cusp_kernel
        self.cuspidal_lattice = Lattice(self.rank, cusp_kernel)

    # -- operators -----------------------------------------------------------

    def _restrict_to_cuspidal(self, a: IntMatrix) -> IntMatrix:
        """R with a . B^T = B^T . R for the cuspidal basis B; must be exact."""
        from .intlattice import RowSolver

        if self.cuspidal_basis.rows == 0:
            return IntMatrix.from_rows([])
        b = self.cuspidal_basis
        if self._cusp_solver is None:
            self._cusp_solver = RowSolver(b)
        a_cols = a.transpose().entries
        rows = []
        for brow in b.entries:
            # a . brow, summed over the few nonzero entries of the basis row
            t = [0] * a.rows
            for s, x in enumerate(brow):
                if x:
                    t = [o + x * y for o, y in zip(t, a_cols[s])]
            sol = self._cusp_solver.solve(t, integral=True)
            require(sol is not None, "operator does not preserve the cuspidal lattice")
            rows.append(sol)
        return IntMatrix.from_rows(rows).transpose()

    def _hecke_images(self, m: int):
        N = self.level
        mats = list(merel_matrices(m))
        p1 = self.p1
        table = p1.table

        def image_of(i: int) -> dict[int, int]:
            c, d = p1.pairs[i]
            out: dict[int, int] = {}
            for a, b, cc, dd in mats:
                idx = table[(c * a + d * cc) % N][(c * b + d * dd) % N]
                if idx >= 0:
                    out[idx] = out.get(idx, 0) + 1
            return out

        return image_of

    def hecke_on_coords(self, m: int) -> IntMatrix:
        if m not in self._hecke_coord_cache:
            images = self._hecke_images(m)
            self._hecke_coord_cache[m] = self._solve_and_check(
                lambda i: self._class_of(images(i)), self.rank)
        return self._hecke_coord_cache[m]

    def hecke_on_cuspidal(self, m: int) -> IntMatrix:
        if m not in self._hecke_cusp_cache:
            self._hecke_cusp_cache[m] = self._restrict_to_cuspidal(self.hecke_on_coords(m))
        return self._hecke_cusp_cache[m]

    def hecke_operator(self, m: int) -> HeckeOperator:
        if m < 1:
            raise ValueError("Hecke index must be >= 1")
        return HeckeOperator(m, self.hecke_on_cuspidal(m))

    # -- paths ---------------------------------------------------------------

    def _zero_to(self, cusp: tuple[int, int]) -> list[int]:
        """Symbol indices (each with coefficient +1) for the path {0, cusp}."""
        p, q = cusp
        if q == 0:
            return [self.p1.index(0, 1)]
        if p == 0:
            return []
        if q < 0:
            p, q = -p, -q
        out = [self.p1.index(0, 1)]
        pm1, qm1 = 1, 0
        pk, qk = None, None
        a, b = p, q
        k = 0
        while b:
            quo = a // b
            a, b = b, a - quo * b
            if pk is None:
                pk, qk = quo, 1
            else:
                pk, qk, pm1, qm1 = quo * pk + pm1, quo * qk + qm1, pk, qk
            s = -1 if k % 2 == 0 else 1
            idx = self.p1.index(qk, s * qm1)
            assert idx is not None
            out.append(idx)
            k += 1
        assert (pk, qk) == (p, q)
        return out

    def path_class(self, alpha: tuple[int, int], beta: tuple[int, int]) -> list[int]:
        """Coordinates of the modular symbol {alpha, beta} (cusps as pairs)."""
        combo: dict[int, int] = {}
        for idx in self._zero_to(normalize_cusp(*beta)):
            combo[idx] = combo.get(idx, 0) + 1
        for idx in self._zero_to(normalize_cusp(*alpha)):
            combo[idx] = combo.get(idx, 0) - 1
        return self._class_of(combo)

    def to_cuspidal_coords(self, class_vec: list[int]) -> list[int]:
        """Express a (cuspidal) coordinate vector in the cuspidal basis."""
        from .intlattice import RowSolver

        if getattr(self, "_cusp_solver", None) is None:
            self._cusp_solver = RowSolver(self.cuspidal_basis)
        sol = self._cusp_solver.solve(class_vec, integral=True)
        assert sol is not None, "class is not in the cuspidal lattice"
        return sol

    def _mobius_operator(self, mat: tuple[int, int, int, int]) -> IntMatrix:
        """Coordinate matrix of the path map {alpha, beta} -> {mat alpha, mat beta}."""
        def image_class(i: int) -> list[int]:
            a, b, c, d = self.symbol_lift(i)
            return self.path_class(mobius(mat, (b, d)), mobius(mat, (a, c)))

        return self._solve_and_check(image_class, self.rank)

    def atkin_lehner(self, q_power: int) -> IntMatrix:
        """Matrix of w_q on the cuspidal lattice, for q_power || level."""
        N = self.level
        q = q_power
        if q < 1 or N % q or gcd(q, N // q) != 1 or q == 1:
            raise ValueError(f"{q} does not exactly divide {N} (or is 1)")
        if q not in self._al_cache:
            x, y, g = xgcd(q, N // q)
            assert g == 1
            w = (q * x, 1, -N * y, q)
            assert q * x * q - 1 * (-N * y) == q * (q * x + (N // q) * y) == q
            mat = self._restrict_to_cuspidal(self._mobius_operator(w))
            ident = IntMatrix.identity(mat.rows)
            assert mat * mat == ident, "Atkin-Lehner matrix is not an involution"
            self._al_cache[q] = mat
        return self._al_cache[q]

    def fricke(self) -> IntMatrix:
        return self.atkin_lehner(self.level) if self.level > 1 else \
            IntMatrix.identity(self.cuspidal_basis.rows)

    def star_involution(self) -> IntMatrix:
        """The star involution {a, b} -> {-a, -b} on the cuspidal lattice."""
        return self._restrict_to_cuspidal(self._mobius_operator((-1, 0, 0, 1)))

    # -- degeneracy maps and the new subspace --------------------------------

    def degeneracy_lower(self, target: "ModSymSpace", d: int) -> IntMatrix:
        """Matrix of the level-lowering map L_N -> L_M induced by tau -> d*tau.

        Requires target.level | level and d | level/target.level.
        """
        N, M = self.level, target.level
        if M < 1 or N % M or (N // M) % d:
            raise ValueError(f"need M | N and d | N/M; got N={N}, M={M}, d={d}")
        key = (M, d)
        if key in self._lower_cache:
            return self._lower_cache[key]
        if target.cuspidal_basis.rows == 0 or self.cuspidal_basis.rows == 0:
            out = IntMatrix.from_rows(
                [[0] * self.cuspidal_basis.rows
                 for _ in range(target.cuspidal_basis.rows)]
            )
            self._lower_cache[key] = out
            return out

        def image_class(i: int) -> list[int]:
            a, b, c, cdd = self.symbol_lift(i)
            lo = mobius((d, 0, 0, 1), (b, cdd))
            hi = mobius((d, 0, 0, 1), (a, c))
            return target.path_class(lo, hi)

        raw = self._solve_and_check(image_class, target.rank)

        # restrict: raw . B_N^T = B_M^T . out
        lhs = self.cuspidal_basis * raw.transpose()
        out_t = solve_in_rowspace(target.cuspidal_basis, lhs, integral=True)
        assert out_t is not None, "degeneracy image is not cuspidal-integral"
        out = out_t.transpose()
        self._lower_cache[key] = out
        return out

    def degeneracy_raise(self, source: "ModSymSpace") -> IntMatrix:
        """Transfer of the forgetful covering X0(N) -> X0(M): the matrix of
        the map L_M -> L_N sending a class to the sum of its preimage paths.

        Composing with degeneracy_lower(source, 1) multiplies by the covering
        degree mu(N)/mu(M).
        """
        N, M = self.level, source.level
        if M < 1 or N % M:
            raise ValueError(f"need M | N; got N={N}, M={M}")
        # right coset representatives of Gamma0(N) \ Gamma0(M): the P^1(N)
        # points (c : d) with M | c, lifted to SL2(Z) (the lift keeps M | c)
        reps = []
        for c, d in self.p1.pairs:
            if c % M == 0:
                reps.append(lift_to_sl2(c, d, N))
        assert len(reps) * index_mu(M) == index_mu(N)
        if source.cuspidal_basis.rows == 0 or self.cuspidal_basis.rows == 0:
            return IntMatrix.from_rows(
                [[0] * source.cuspidal_basis.rows
                 for _ in range(self.cuspidal_basis.rows)])
        def image_class(i: int) -> list[int]:
            a, b, c, dd = source.symbol_lift(i)
            out = [0] * self.rank
            for r in reps:
                lo = mobius(r, (b, dd))
                hi = mobius(r, (a, c))
                part = self.path_class(lo, hi)
                for t in range(self.rank):
                    out[t] += part[t]
            return out

        raw = source._solve_and_check(image_class, self.rank)
        lhs = source.cuspidal_basis * raw.transpose()
        out_t = solve_in_rowspace(self.cuspidal_basis, lhs, integral=True)
        assert out_t is not None, "transfer image is not cuspidal-integral"
        return out_t.transpose()

    def new_subspace(self) -> Lattice:
        """Saturated kernel of all level-lowering maps to N/p, both optands."""
        n2g = self.cuspidal_basis.rows
        if n2g == 0:
            return lattice_from_rows(0, [])
        blocks = []
        for p in factorize(self.level):
            target = build_space(self.level // p)
            for d in (1, p):
                blocks.append(self.degeneracy_lower(target, d))
        blocks = [b for b in blocks if b.rows]
        if not blocks:
            return Lattice(n2g, IntMatrix.identity(n2g))
        big = blocks[0]
        for b in blocks[1:]:
            big = stack(big, b)
        return Lattice(n2g, kernel(big))

    # -- rational eigenspaces -------------------------------------------------

    def rational_eigenspaces(self):
        from .heckeforms import RationalNewform, sturm_bound

        if self._newforms is not None:
            return self._newforms
        bound = sturm_bound(self.level)
        plist = primes_up_to(bound) or [2]
        new = self.new_subspace()
        found = []

        def split(basis: IntMatrix, ap: dict[int, int], pidx: int):
            if basis.rows == 0:
                return
            if pidx == len(plist):
                assert basis.rows == 2, \
                    f"rational system of rank {basis.rows} at level {self.level}"
                found.append((ap, basis))
                return
            p = plist[pidx]
            big = self.hecke_on_cuspidal(p)
            r_t = solve_in_rowspace(basis, basis * big.transpose(), integral=True)
            assert r_t is not None, "T_p does not preserve the lattice"
            restricted = r_t.transpose()
            for lam in _eigenvalue_candidates(p, self.level):
                shifted = restricted - IntMatrix.identity(basis.rows).scale(lam)
                ker = kernel(shifted)
                if ker.rows:
                    sub = hnf(ker * basis)
                    split(sub, {**ap, p: lam}, pidx + 1)

        split(new.basis, {}, 0)
        found.sort(key=lambda t: tuple(t[0][p] for p in plist))
        out = []
        for ap, basis in found:
            sign_w = {}
            for p, e in factorize(self.level).items():
                q = p**e
                w = self.atkin_lehner(q)
                r_t = solve_in_rowspace(basis, basis * w.transpose(), integral=True)
                assert r_t is not None
                eps = r_t.entries[0][0]
                assert r_t == IntMatrix.identity(2).scale(eps) and eps in (1, -1), \
                    "Atkin-Lehner does not act as +-1 on an eigenspace"
                sign_w[q] = eps
            nf = RationalNewform(
                level=self.level,
                ap=dict(ap),
                eigenspace=Lattice(self.cuspidal_basis.rows, basis),
                sign_w=sign_w,
            )
            for p in primes_up_to(max(bound, 7)):
                nf.prime_eigenvalue(p)
            out.append(nf)
        self._newforms = out
        return out


def _eigenvalue_candidates(p: int, N: int):
    if N % p:
        h = isqrt(4 * p)
        return range(-h, h + 1)
    if (N // p) % p:
        return (-1, 1)
    return (0,)


_SPACES: dict[int, ModSymSpace] = {}


def build_space(N: int) -> ModSymSpace:
    """Build (and cache) the modular symbol space for Gamma0(N)."""
    if N not in _SPACES:
        _SPACES[N] = ModSymSpace(N)
    return _SPACES[N]
