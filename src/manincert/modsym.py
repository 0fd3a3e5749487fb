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

from dataclasses import replace
from functools import cached_property
from itertools import count
from math import gcd, isqrt

from .arith import divisors, factorize, primes_up_to, xgcd
from .intlattice import (
    IntMatrix,
    InvariantError,
    Lattice,
    RowSolver,
    hnf,
    kernel,
    require,
    stack,
)

# ---------------------------------------------------------------------------
# Gamma0(N) counts


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
    require(g12 % 12 == 0, f"genus formula is not integral at level {n}")
    return g12 // 12


def new_rank(n: int) -> int:
    """Rank of the new part of the cuspidal lattice at level n:
    2 sum_{M | n} beta(n/M) genus(M), for the multiplicative beta with
    beta(p) = -2, beta(p^2) = 1 and beta(p^k) = 0 for k >= 3."""
    total = 0
    for m in divisors(n):
        beta = 1
        for e in factorize(n // m).values():
            beta *= (-2, 1, 0)[min(e, 3) - 1]
        total += beta * genus_x0(m)
    return 2 * total


# ---------------------------------------------------------------------------
# P^1(Z/NZ)


class P1List:
    """Representatives for P^1(Z/NZ): the least pair (c, d) of each unit orbit
    {(ct, dt) : t a unit mod N} of residue pairs with gcd(c, d, N) = 1
    (Stein, Algs. 8.29/8.32; Cremona, Algorithms for Modular Elliptic Curves,
    2.2).  The least pair of an orbit has c = gcd(c, N) mod N, so one scan of
    those c in increasing order, d = 0..N-1, meets each orbit first at its
    least pair.  `table[c][d]` is the index of the orbit of (c : d), or -1
    when gcd(c, d, N) > 1.
    """

    def __init__(self, N: int):
        self.N = N
        units = [t for t in range(N) if gcd(t, N) == 1]
        self.table = [[-1] * N for _ in range(N)]
        self.pairs: list[tuple[int, int]] = []
        for c in sorted({g % N for g in divisors(N)}):
            for d in range(N):
                if self.table[c][d] < 0 and gcd(gcd(c, d), N) == 1:
                    for t in units:
                        self.table[c * t % N][d * t % N] = len(self.pairs)
                    self.pairs.append((c, d))
        require(len(self.pairs) == index_mu(N),
                f"P^1(Z/{N}Z) has {len(self.pairs)} points, not {index_mu(N)}")

    def __len__(self) -> int:
        return len(self.pairs)

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
        require(k <= 4 * cc + 4, f"no coprime lift for ({c}:{d}) mod {N}")
    x, y, g = xgcd(dd, cc)
    assert g == 1
    return (x, -y, cc, dd)


def w_matrix(N: int, q: int) -> tuple[int, int, int, int]:
    """The matrix [[q x, 1], [-N y, q]] of determinant q that defines w_q,
    for q || N (q > 1), with q x + (N/q) y = 1."""
    if q < 1 or N % q or gcd(q, N // q) != 1 or q == 1:
        raise ValueError(f"{q} does not exactly divide {N} (or is 1)")
    x, y, g = xgcd(q, N // q)
    assert g == 1
    assert q * x * q - 1 * (-N * y) == q * (q * x + (N // q) * y) == q
    return (q * x, 1, -N * y, q)


def gamma_loops(N: int):
    """The loops [[a, b], [cN, d]] in Gamma0(N) with c <= 40, as (a, b, cN, d)
    by increasing c then d; the paths {0, b/d} of all such loops span the
    cuspidal homology (Cremona, Algorithms for Modular Elliptic Curves, ch. 2)."""
    for c in range(1, 41):
        mod = c * N
        for d in range(1, mod):
            if gcd(d, mod) == 1:
                a = pow(d, -1, mod)
                if a > mod // 2:
                    a -= mod
                yield (a, (a * d - 1) // mod, mod, d)
    raise InvariantError(f"no two independent gamma loops up to c = 40 at level {N}")


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


def heilbronn_cremona(p: int):
    """Cremona's Heilbronn family of determinant p (p prime; smaller than
    Merel's set, and used for primes not dividing the level)."""
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    out = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2 = p, -r, 0, 1
        a, b = -p, r
        out.append((x1, x2, y1, y2))
        while b:
            q = (2 * a + b) // (2 * b)  # a/b rounded, halves upward
            c = a - b * q
            a, b = -b, c
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


# ---------------------------------------------------------------------------
# the modular symbol space


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
        self._newform_data: dict = {}  # (build, newform index) -> its result
        self._eigen_aps: dict[int, list[int]] = {}  # see eigen_ap

    # -- presentation ------------------------------------------------------

    def _symbol_S(self, i: int) -> int:
        c, d = self.p1.pairs[i]
        return self.p1.index(d, -c)

    def _symbol_U(self, i: int) -> int:
        c, d = self.p1.pairs[i]
        return self.p1.index(d, -c - d)

    def _build_coordinates(self):
        mu = self.mu
        # x + xS = 0: the larger symbol of each S-pair is minus the smaller
        # (its variable); an S-fixed symbol is 2-torsion, and a U-fixed one
        # 3-torsion, so their variables are zero in the torsion-free quotient
        rep = list(range(mu))
        sgn = [1] * mu
        zero = set()
        for i in range(mu):
            j = self._symbol_S(i)
            if j == i:
                zero.add(i)
            elif j > i:
                rep[j] = i
                sgn[j] = -1
        orbits = {}
        for i in range(mu):
            orbit = (i, self._symbol_U(i), self._symbol_U(self._symbol_U(i)))
            if orbit[1] == i:
                zero.add(rep[i])
            else:
                orbits[min(orbit)] = orbit

        # x + xU + xU^2 = 0 on the variables, by unit-pivot elimination: each
        # pass solves every relation with a +-1 coefficient for such a
        # variable in the fewest relations (a relation +-v solves to v = 0)
        # and substitutes it into the others
        active: dict[int, dict[int, int]] = {}
        var_rels: dict[int, set[int]] = {}
        for ridx, orbit in enumerate(orbits.values()):
            r: dict[int, int] = {}
            for t in orbit:
                if rep[t] not in zero:
                    r[rep[t]] = r.get(rep[t], 0) + sgn[t]
            active[ridx] = {v: c for v, c in r.items() if c}
            for v in active[ridx]:
                var_rels.setdefault(v, set()).add(ridx)
        exprs: dict[int, dict[int, int]] = {}
        changed = True
        while changed:
            changed = False
            for ridx in list(active):
                r = active[ridx]
                unit_vars = [v for v, c in r.items() if abs(c) == 1]
                if not unit_vars:
                    continue
                del active[ridx]
                for w in r:
                    var_rels[w].discard(ridx)
                v = min(unit_vars, key=lambda w: len(var_rels[w]))
                s = r.pop(v)
                exprs[v] = expr = {w: -s * c for w, c in r.items()}
                for other in var_rels.pop(v):
                    ro = active[other]
                    coef = ro.pop(v)
                    for w, c in expr.items():
                        nc = ro.get(w, 0) + coef * c
                        if nc:
                            ro[w] = nc
                            var_rels[w].add(other)
                        else:
                            del ro[w]
                            var_rels[w].discard(other)
                changed = True

        # what is left has no unit coefficient: its kernel, with the variables
        # in no relation, parametrizes the solutions
        residual = [r for r in active.values() if r]
        res_vars = sorted({v for r in residual for v in r})
        taken = zero | exprs.keys() | set(res_vars)
        params = [{i: 1} for i in range(mu) if rep[i] == i and i not in taken]
        if residual:
            mat = IntMatrix.from_rows(
                [[r.get(v, 0) for v in res_vars] for r in residual]
            )
            for row in kernel(mat).entries:
                params.append({v: c for v, c in zip(res_vars, row) if c})

        # an expression names only variables still live when it was made, so
        # reverse elimination order evaluates each after its dependencies
        rows = []
        for assign in params:
            val = dict(assign)
            for v in reversed(exprs):
                val[v] = sum(c * val.get(w, 0) for w, c in exprs[v].items())
            rows.append([sgn[i] * val.get(rep[i], 0) for i in range(mu)])

        coords = hnf(IntMatrix.from_rows(rows, mu)) if rows else IntMatrix.from_rows([])
        expected = 2 * self.genus + nu_inf(self.level) - 1
        require(coords.rows == expected, f"coordinate rank {coords.rows} at level "
                                         f"{self.level}, expected {expected}")
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

    def symbol_lift(self, i: int) -> tuple[int, int, int, int]:
        c, d = self.p1.pairs[i]
        return lift_to_sl2(c, d, self.level)

    def _class_of(self, combo: dict[int, int]) -> list[int]:
        out = [0] * self.rank
        for idx, coef in combo.items():
            for t, x in self._coord_cols[idx]:
                out[t] += coef * x
        return out

    def formal_sum(self, cls) -> dict[int, int]:
        """A formal sum of pivot symbols whose class is `cls`.

        The pivot columns of coords are upper triangular, so the coefficients
        come from back-substitution, last pivot first."""
        rem = list(cls)
        out: dict[int, int] = {}
        for j in range(self.rank - 1, -1, -1):
            pc = self._pivots[j]
            q, r = divmod(rem[j], self.coords.entries[j][pc])
            require(r == 0, "class is not an integral sum of Manin symbols")
            if q:
                out[pc] = q
                for t, x in self._coord_cols[pc]:
                    rem[t] -= q * x
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

        require(len(cusp_reps) == nu_inf(N),
                f"{len(cusp_reps)} cusp classes at level {N}, expected {nu_inf(N)}")
        self.cusps = cusp_reps
        ncusp = len(cusp_reps)

        if self.rank == 0:
            self.cuspidal_basis = IntMatrix.from_rows([])
            return

        def boundary_of(i: int) -> list[int]:
            out = [0] * ncusp
            top, bot = ends[i]
            out[top] += 1
            out[bot] -= 1
            return out

        # boundary matrix on coordinates: Bd . class(i) = boundary of symbol i
        cusp_kernel = kernel(self._solve_and_check(boundary_of, ncusp))
        require(cusp_kernel.rows == 2 * self.genus,
                f"cuspidal rank {cusp_kernel.rows} at level {self.level}, "
                f"expected {2 * self.genus}")
        self.cuspidal_basis = cusp_kernel

    # -- operators -----------------------------------------------------------

    @cached_property
    def _cusp_solver(self) -> RowSolver:
        return RowSolver(self.cuspidal_basis)

    def _restrict_to_cuspidal(self, a: IntMatrix) -> IntMatrix:
        """R with a . B^T = B^T . R for the cuspidal basis B; must be exact."""
        return restrict(self.cuspidal_basis, a, self._cusp_solver,
                        "operator does not preserve the cuspidal lattice")

    def _hecke_images(self, m: int):
        """The map taking a formal sum {symbol: coef} to its image under T_m.

        For a prime m not dividing the level this applies Cremona's Heilbronn
        set; otherwise (composite m, or m | level) Merel's set."""
        N = self.level
        if N % m and factorize(m) == {m: 1}:
            mats = heilbronn_cremona(m)
        else:
            mats = list(merel_matrices(m))
        pairs = self.p1.pairs
        table = self.p1.table

        def image(combo: dict[int, int]) -> dict[int, int]:
            out: dict[int, int] = {}
            for i, coef in combo.items():
                c, d = pairs[i]
                for a, b, cc, dd in mats:
                    idx = table[(c * a + d * cc) % N][(c * b + d * dd) % N]
                    out[idx] = out.get(idx, 0) + coef
            # pairs with gcd(c, d, N) > 1 are not symbols; the table maps them to -1
            out.pop(-1, None)
            return out

        return image

    def hecke_on_coords(self, m: int) -> IntMatrix:
        if m not in self._hecke_coord_cache:
            images = self._hecke_images(m)
            self._hecke_coord_cache[m] = self._solve_and_check(
                lambda i: self._class_of(images({i: 1})), self.rank)
        return self._hecke_coord_cache[m]

    def hecke_on_cuspidal(self, m: int) -> IntMatrix:
        if m not in self._hecke_cusp_cache:
            self._hecke_cusp_cache[m] = self._restrict_to_cuspidal(self.hecke_on_coords(m))
        return self._hecke_cusp_cache[m]

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
            require(idx is not None, f"convergent ({qk}:{s * qm1}) is not in P^1")
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
        sol = self._cusp_solver.solve(class_vec, integral=True)
        require(sol is not None, "class is not in the cuspidal lattice")
        return sol

    def _path_images(self, mats, target: "ModSymSpace"):
        """The map taking a formal sum {symbol: coef} of this space to a formal
        sum of `target`'s symbols: its image under the path map
        {alpha, beta} -> sum over m in mats of {m alpha, m beta}."""
        def image(combo: dict[int, int]) -> dict[int, int]:
            out: dict[int, int] = {}
            for i, coef in combo.items():
                a, b, c, d = self.symbol_lift(i)
                for m in mats:
                    for sgn, cusp in ((coef, mobius(m, (a, c))), (-coef, mobius(m, (b, d)))):
                        for idx in target._zero_to(cusp):
                            out[idx] = out.get(idx, 0) + sgn
            return out

        return image

    def _path_map(self, mats, target: "ModSymSpace") -> IntMatrix:
        """Coordinate matrix, into `target`, of the path map of _path_images,
        checked on every Manin symbol."""
        images = self._path_images(mats, target)
        return self._solve_and_check(lambda i: target._class_of(images({i: 1})), target.rank)

    def atkin_lehner(self, q_power: int) -> IntMatrix:
        """Matrix of w_q on the cuspidal lattice, for q_power || level, checked
        on every Manin symbol and as an involution of the whole lattice."""
        mat = self._restrict_to_cuspidal(self._path_map([w_matrix(self.level, q_power)], self))
        require(mat * mat == IntMatrix.identity(mat.rows),
                f"Atkin-Lehner w_{q_power} is not an involution at level {self.level}")
        return mat

    # -- degeneracy maps and the new subspace --------------------------------

    def degeneracy_lower(self, target: "ModSymSpace", d: int) -> IntMatrix:
        """Matrix of the level-lowering map L_N -> L_M induced by tau -> d*tau.

        Requires target.level | level and d | level/target.level.
        """
        N, M = self.level, target.level
        if M < 1 or N % M or (N // M) % d:
            raise ValueError(f"need M | N and d | N/M; got N={N}, M={M}, d={d}")
        if target.cuspidal_basis.rows == 0 or self.cuspidal_basis.rows == 0:
            return IntMatrix.from_rows(
                [[0] * self.cuspidal_basis.rows
                 for _ in range(target.cuspidal_basis.rows)])
        return restrict(self.cuspidal_basis, self._path_map([(d, 0, 0, 1)], target),
                        target._cusp_solver, "degeneracy image is not cuspidal-integral")

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
        require(len(reps) * index_mu(M) == index_mu(N),
                f"{len(reps)} coset representatives for level {M} in level {N}")
        if source.cuspidal_basis.rows == 0 or self.cuspidal_basis.rows == 0:
            return IntMatrix.from_rows(
                [[0] * source.cuspidal_basis.rows
                 for _ in range(self.cuspidal_basis.rows)])
        return restrict(source.cuspidal_basis, source._path_map(reps, self),
                        self._cusp_solver, "transfer image is not cuspidal-integral")

    def new_subspace(self) -> Lattice:
        """Saturated kernel of all level-lowering maps to N/p, both optands.

        Its rank must be 2 sum_{M | N} beta(N/M) genus(M), the dimension count
        of the new part, so a lowering map that loses rank raises
        InvariantError."""
        n2g = self.cuspidal_basis.rows
        blocks = []
        if n2g:
            for p in factorize(self.level):
                target = build_space(self.level // p)
                for d in (1, p):
                    blocks.append(self.degeneracy_lower(target, d))
        blocks = [b for b in blocks if b.rows]
        if blocks:
            big = blocks[0]
            for b in blocks[1:]:
                big = stack(big, b)
            new = Lattice(n2g, kernel(big))
        else:
            new = Lattice(n2g, IntMatrix.identity(n2g))
        expected = new_rank(self.level)
        require(new.rank == expected, f"new subspace of rank {new.rank} at level "
                                      f"{self.level}, expected {expected}")
        return new

    # -- rational eigenspaces -------------------------------------------------

    @cached_property
    def hecke_algebra(self):
        """The Hecke algebra of this level, built once per space."""
        from .heckeforms import HeckeAlgebra

        return HeckeAlgebra(self)

    def rational_eigenspaces(self):
        """The rational newforms of the level, each with its rank-2 eigenspace.

        The split, and what it fixes for each newform (newform_data), run once
        per space.  Each call returns fresh copies, which carry only the a_p
        and a_n memos a caller grows and the caller's a_p source."""
        return [replace(f, ap=dict(f.ap), _an={}) for f in self._newforms]

    @cached_property
    def _newforms(self):
        """The certified split behind rational_eigenspaces.

        The new cuspidal lattice is split by kernels of T_p - a_p, p up to
        the Sturm bound, until each piece has rank 2.  Such a piece is
        Hecke-stable, so by multiplicity one it is the isotypic part of a
        single rational newform.  One pass over the operators then reads
        every newform off the formal-sum lifts of its basis rows, each
        operator's image map built once for all newforms:
        - at each q = p^e || N, w_q must map both lifts to eps times their
          classes, for one eps = +-1 (the full w_q matrix, atkin_lehner, is
          not built);
        - at each p <= max(sturm, 7) and each p | N, T_p (U_p, through
          Merel's set, at p | N) must map the row-0 lift x to a_p x, a_p
          must be the eigenvalue the split chose, and at p | N it must obey
          bad_prime_eigenvalue.  The a_p with p <= max(sturm, 7) are kept,
          in increasing order."""
        from .heckeforms import RationalNewform, bad_prime_eigenvalue, sturm_bound

        N = self.level
        bound = sturm_bound(N)
        plist = primes_up_to(bound) or [2]
        new = self.new_subspace()
        found = []

        def split(basis: IntMatrix, ap: dict[int, int], pidx: int):
            if basis.rows == 0:
                return
            if basis.rows == 2 or pidx == len(plist):
                require(basis.rows == 2,
                        f"rational system of rank {basis.rows} at level {N}")
                found.append((ap, basis))
                return
            p = plist[pidx]
            restricted = restrict(basis, self.hecke_on_cuspidal(p), RowSolver(basis),
                                  f"T_{p} does not preserve the lattice")
            for lam in _eigenvalue_candidates(p, N):
                shifted = restricted - IntMatrix.identity(basis.rows).scale(lam)
                ker = kernel(shifted)
                if ker.rows:
                    sub = hnf(ker * basis)
                    split(sub, {**ap, p: lam}, pidx + 1)

        split(new.basis, {}, 0)
        lifts = [[self._lift_cuspidal(row) for row in basis.entries] for _, basis in found]
        bad = factorize(N)
        sign_ws = [{} for _ in found]
        for p, e in bad.items():
            images = self._path_images([w_matrix(N, p**e)], self)
            for rows, sign_w in zip(lifts, sign_ws):
                signs = {_scalar_of(self._class_of(images(combo)), x) for x, combo in rows}
                require(len(signs) == 1 and signs <= {1, -1},
                        f"Atkin-Lehner w_{p**e} does not act as +-1 on an eigenspace "
                        f"at level {N}")
                sign_w[p**e] = signs.pop()
        limit = max(bound, 7)
        aps = [{} for _ in found]
        for p in sorted(set(primes_up_to(limit)) | set(bad)):
            images = self._hecke_images(p)
            for (split_ap, _), ((x, combo), _), sign_w, ap in zip(found, lifts, sign_ws, aps):
                a = _scalar_of(self._class_of(images(combo)), x)
                require(a is not None,
                        f"T_{p} does not act as a scalar on an eigenvector at level {N}")
                require(split_ap.get(p, a) == a,
                        f"a_{p} = {a} on an eigenvector, but the split chose {split_ap.get(p)}")
                if p in bad:
                    q = p**bad[p]
                    require(a == bad_prime_eigenvalue(N, p, sign_w),
                            f"a_{p} = {a} disagrees with w_{q} = {sign_w[q]} at level {N}")
                if p <= limit:
                    ap[p] = a
        out = [RationalNewform(level=N, ap=ap, sign_w=sign_w,
                               eigenspace=Lattice(self.cuspidal_basis.rows, basis))
               for (_, basis), ap, sign_w in zip(found, aps, sign_ws)]
        out.sort(key=lambda f: tuple(f.ap[p] for p in plist))
        return out

    def newform_index(self, f) -> int:
        """Index of f's newform in this space, found by its eigenspace, which
        every copy shares and no caller can grow (its a_p memo can)."""
        i = next((i for i, g in enumerate(self._newforms)
                  if g.eigenspace == f.eigenspace), None)
        require(i is not None, f"newform is not a rational eigenspace of level {self.level}")
        return i

    def newform_data(self, f, build):
        """build(self, g) for the space's own newform g with f's eigenspace,
        computed once per newform and `build`: what the split fixes for a
        newform (heckeforms.homology_annihilator, periods.period_combos)."""
        key = (build, self.newform_index(f))
        if key not in self._newform_data:
            self._newform_data[key] = build(self, self._newforms[key[1]])
        return self._newform_data[key]

    @cached_property
    def _eigen_functionals(self):
        """Per newform f, a left Hecke eigenvector u_f on formal symbols and a
        start symbol w with u_f(w) != 0, first among the symbols by how many
        newforms they serve.  u_f is f's homology annihilator row after
        T_l - l - 1, l the least prime not dividing N with l = 1 mod m, m^2
        the largest square dividing N: an Eisenstein class has T_l-eigenvalue
        chi(l) + l chi^-1(l) with cond(chi) | m, that is l + 1, so T_l - l - 1
        maps every class into the cuspidal lattice (to_cuspidal_coords checks
        it), on which u_f = (a_l - l - 1) row != 0: the row kills f's complement."""
        from .heckeforms import homology_annihilator

        m = max(d for d in divisors(self.level) if self.level % (d * d) == 0)
        ell = next(q for q in count(m + 1, m) if self.level % q and factorize(q) == {q: 1})
        shifted = self.hecke_on_coords(ell) - IntMatrix.identity(self.rank).scale(ell + 1)
        cusp = IntMatrix.from_rows([self.to_cuspidal_coords(c)
                                    for c in shifted.transpose().entries])
        us = []
        for g in self._newforms:
            w = cusp.matvec(self.newform_data(g, homology_annihilator).entries[0])
            us.append([sum(w[t] * x for t, x in col) for col in self._coord_cols])
        served = sorted(range(self.mu), key=lambda j: -sum(1 for u in us if u[j]))
        return [(u, next(j for j in served if u[j])) for u in us]

    def eigen_ap(self, p: int) -> list[int]:
        """a_p = u_f(T_p w)/u_f(w) for every newform f, in newform order, from
        one T_p family and one image per start symbol; memoized per prime."""
        if p not in self._eigen_aps:
            images = self._hecke_images(p)
            starts = {j: images({j: 1}) for j in {j for _, j in self._eigen_functionals}}
            aps = [divmod(sum(u[i] * c for i, c in starts[j].items()), u[j])
                   for u, j in self._eigen_functionals]
            require(all(r == 0 for _, r in aps), "a_p table read a non-integer ratio")
            self._eigen_aps[p] = [a for a, _ in aps]
        return self._eigen_aps[p]

    def _lift_cuspidal(self, row) -> tuple[list[int], dict[int, int]]:
        """The class x of a cuspidal-coordinate row and its formal_sum lift."""
        x = self.cuspidal_basis.transpose().matvec(row)
        return x, self.formal_sum(x)


def restrict(src: IntMatrix, op: IntMatrix, dst_solver: RowSolver, what: str) -> IntMatrix:
    """The R with op . src^T = dst^T . R, for lattice bases src and dst (as
    rows, dst through its RowSolver); raises InvariantError(what) when op does
    not map the span of src into the lattice of dst."""
    op_cols = op.transpose().entries
    rows = []
    for srow in src.entries:
        # op . srow, summed over the nonzero entries of the basis row
        t = [0] * op.rows
        for s, x in enumerate(srow):
            if x:
                t = [o + x * y for o, y in zip(t, op_cols[s])]
        sol = dst_solver.solve(t, integral=True)
        require(sol is not None, what)
        rows.append(sol)
    return IntMatrix.from_rows(rows).transpose()


def _scalar_of(img: list[int], x: list[int]):
    """The integer a with img = a x, for a nonzero x; None if there is none."""
    j = next(j for j, v in enumerate(x) if v)
    a = img[j] // x[j]
    return a if img == [a * v for v in x] else None


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
