"""q-expansions of rational newforms, the integral cusp-form lattice via
Hecke-algebra duality, Sturm bounds, and congruence numbers.

S_2(Gamma0(N), Z) is realized as Hom(T, Z) through the perfect pairing
<T_n, f> = a_n(f): the Hecke algebra T is spanned over Z by T_1..T_B for any
B >= sturm_bound(N), its Z-module structure is captured by a faithful probe
map into class coordinates of a few Manin symbols, and the dual basis read
off against T_1..T_B gives a Z-basis of integer q-expansions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .intlattice import (
    IntMatrix,
    Lattice,
    RowSolver,
    hnf,
    kernel,
    lattice_from_rows,
    lattice_sum,
    quotient_order,
    require,
    solve_in_rowspace,
    stack,
    standard_lattice,
    subspace_integer_points,
)
from .modsym import (
    build_space,
    factorize,
    heilbronn_cremona,
    index_mu,
    merel_matrices,
    primes_up_to,
)


class PrecisionError(ValueError):
    """Requested q-expansion precision below the Sturm bound."""


class ComplementRankError(RuntimeError):
    """The Hecke complement did not reach its certified rank by the Sturm
    bound: this signals a bug in the Hecke operators, not bad input."""


def sturm_bound(N: int) -> int:
    """ceil(mu(N)/6): coefficients a_1..a_bound pin a weight-2 form on Gamma0(N)."""
    if N < 1:
        raise ValueError("level must be >= 1")
    return -(-index_mu(N) // 6)


@dataclass
class RationalNewform:
    """A rational (integer-eigenvalue) newform given by its modular symbol data."""

    level: int
    ap: dict[int, int]
    eigenspace: Lattice
    sign_w: dict[int, int]
    _an: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    # Hecke complement in the cuspidal homology (see homology_complement);
    # copies made with dataclasses.replace start without it
    _complement: IntMatrix | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _ap_provider = None

    def __post_init__(self):
        for p, a in self.ap.items():
            if self.level % p:
                require(a * a <= 4 * p, f"Hasse bound fails at {p}")
            elif (self.level // p) % p:
                require(a in (-1, 1), f"a_{p} = {a} at a prime exactly dividing "
                                      f"the level {self.level}")
            else:
                require(a == 0, f"a_{p} = {a} at a prime whose square divides "
                                f"the level {self.level}")

    def prime_eigenvalue(self, p: int) -> int:
        if p not in self.ap:
            if self.level % p == 0:
                # a_p = -w_p for p || N, a_p = 0 for p^2 | N (weight 2)
                self.ap[p] = -self.sign_w[p] if (self.level // p) % p else 0
            else:
                if self._ap_provider is None:
                    self._ap_provider = eigen_ap_provider(build_space(self.level), self)
                a = self._ap_provider(p)
                require(a * a <= 4 * p, f"Hasse bound fails at {p}")
                self.ap[p] = a
        return self.ap[p]


def eigen_ap_provider(space, f: RationalNewform):
    """Exact a_p extraction from the eigenspace via a dual eigenvector.

    Builds an integer functional u on formal symbols that is a simultaneous
    left eigenvector for the Hecke action; then a_p = u(T_p w0)/u(w0) for any
    symbol w0 with u(w0) != 0, at cost |Merel(p)| lookups.
    """
    k = space.rank
    left = None
    for p in sorted(f.ap):
        a_full = space.hecke_on_coords(p)
        shifted = a_full.transpose() - IntMatrix.identity(k).scale(f.ap[p])
        ker = kernel(shifted)
        left = ker if left is None else _intersect_rowspans(left, ker)
        if left.rows == 2:
            break
    require(left is not None and left.rows == 2, "dual eigenspace has wrong rank")
    w = left.entries[0]
    # u as a functional on formal symbol sums: u = w . K
    u = [sum(w[t] * space.coords.entries[t][j] for t in range(k))
         for j in range(space.mu)]
    i0 = max(range(space.mu), key=lambda j: abs(u[j]))
    u0 = u[i0]
    require(u0 != 0, "dual eigenvector vanishes on every Manin symbol")
    c0, d0 = space.p1.pairs[i0]
    table = space.p1.table
    n = space.level
    # functional value per residue pair, 0 where the symbol is invalid
    uval = [[u[idx] if idx >= 0 else 0 for idx in row] for row in table]

    def provider(p: int) -> int:
        require(n % p, "provider is for good primes only")
        acc = 0
        for a, b, cc, dd in heilbronn_cremona(p):
            acc += uval[(c0 * a + d0 * cc) % n][(c0 * b + d0 * dd) % n]
        q, r = divmod(acc, u0)
        require(r == 0, "dual eigenvector extraction returned a non-integer")
        return q

    return provider


def _intersect_rowspans(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = a.cols
    la = lattice_from_rows(n, a.entries)
    lb = lattice_from_rows(n, b.entries)
    from .intlattice import lattice_intersect

    return lattice_intersect(la, lb).basis


def extend_an(f: RationalNewform, n: int) -> int:
    """a_n by multiplicativity and the Hecke recursion at prime powers."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return 1
    if n in f._an:
        return f._an[n]
    fac = factorize(n)
    if len(fac) > 1:
        out = 1
        for p, e in fac.items():
            out *= extend_an(f, p**e)
    else:
        ((p, e),) = fac.items()
        ap = f.prime_eigenvalue(p)
        if f.level % p == 0:
            out = ap**e
        else:
            prev, cur = 1, ap  # a_{p^0}, a_{p^1}
            for _ in range(e - 1):
                prev, cur = cur, ap * cur - p * prev
            out = cur
    f._an[n] = out
    return out


def a_list(f: RationalNewform, B: int) -> list[int]:
    return [extend_an(f, n) for n in range(1, B + 1)]


@dataclass(frozen=True)
class IntegralCuspBasis:
    level: int
    precision: int
    coeff_matrix: IntMatrix  # rows: Z-basis of S_2(Gamma0(N), Z), columns a_1..a_B


class HeckeAlgebra:
    """The Hecke algebra of level N (acting on the cuspidal lattice) as a
    Z-module, with its dual q-expansion lattice.

    T_n is probed through its action on a few cuspidal vectors; the probe
    T -> Z^m is certified faithful by a rank check against the genus.
    """

    def __init__(self, N: int, precision: int | None = None):
        self.level = N
        self.space = build_space(N)
        self.genus = self.space.genus
        b0 = sturm_bound(N)
        self.sturm = b0
        self.precision = max(precision or 0, b0)
        self._probe_vectors: list[dict[int, int]] = []
        self._h: IntMatrix | None = None  # HNF of the probe rows of T
        self._h_solver: RowSolver | None = None
        self._build(self.precision)

    def _cuspidal_sections(self, count: int) -> list[dict[int, int]]:
        """Formal-symbol lifts of the first `count` cuspidal basis vectors."""
        space = self.space
        solver = getattr(self, "_section_solver", None)
        if solver is None:
            solver = RowSolver(space.coords.transpose())
            self._section_solver = solver
        out = []
        for i in range(min(count, space.cuspidal_basis.rows)):
            x = solver.solve(space.cuspidal_basis.entries[i], integral=True)
            assert x is not None, "coordinate map is not surjective"
            out.append({j: c for j, c in enumerate(x) if c})
        return out

    def _probe_of(self, n: int) -> list[int]:
        space = self.space
        N = self.level
        pairs = space.p1.pairs
        table = space.p1.table
        mats = list(merel_matrices(n))
        row: list[int] = []
        for vec in self._probe_vectors:
            combo: dict[int, int] = {}
            for j, coef in vec.items():
                c, d = pairs[j]
                for a, b, cc, dd in mats:
                    idx = table[(c * a + d * cc) % N][(c * b + d * dd) % N]
                    if idx >= 0:
                        combo[idx] = combo.get(idx, 0) + coef
            row.extend(space._class_of(combo))
        return row

    def _build(self, precision: int):
        g = self.genus
        if g == 0:
            self.basis_coeffs = IntMatrix.from_rows([])
            self.precision = max(precision, self.precision)
            return
        nvec = len(self._probe_vectors) or 1
        while True:
            self._probe_vectors = self._cuspidal_sections(nvec)
            probe = IntMatrix.from_rows(
                [self._probe_of(n) for n in range(1, precision + 1)]
            )
            h = hnf(probe)
            if h.rows == g:
                break
            if nvec >= self.space.cuspidal_basis.rows:
                raise AssertionError(f"probe map not faithful at level {self.level}")
            nvec = min(2 * nvec, self.space.cuspidal_basis.rows)
        if self._h is not None:
            # rebuilds at higher precision must keep the same coordinates:
            # the probe row lattice is already complete at the Sturm bound
            assert h == self._h, "Hecke-algebra basis changed under extension"
        self._h = h
        coeffs = solve_in_rowspace(h, probe, integral=True)
        assert coeffs is not None, "T_n outside the Z-span of the Sturm set"
        # row i of the dual basis has a_n = coeffs[n-1][i]
        self.basis_coeffs = IntMatrix.from_rows(
            [[coeffs.entries[n][i] for n in range(precision)] for i in range(g)]
        )
        self.precision = precision

    def extend_precision(self, precision: int):
        if precision > self.precision:
            self._build(precision)

    def coefficient_basis(self, B: int) -> IntMatrix:
        """Canonical (HNF) basis of S_2(Z) truncated to a_1..a_B."""
        if B < self.sturm:
            raise PrecisionError(
                f"precision {B} is below the Sturm bound {self.sturm}"
            )
        self.extend_precision(B)
        return hnf(IntMatrix.from_rows(
            [row[:B] for row in self.basis_coeffs.entries]
        ))

    def newform_coordinates(self, f: RationalNewform) -> list[int]:
        """Coordinates of f's coefficient vector in the (raw) dual basis."""
        avec = a_list(f, self.precision)
        sol = solve_in_rowspace(
            self.basis_coeffs, IntMatrix.from_rows([avec]), integral=True
        )
        assert sol is not None, "newform is not in the integral cusp lattice"
        return list(sol.entries[0])

    def hecke_matrix_on_dual(self, p: int) -> IntMatrix:
        """Matrix of T_p on column coordinate vectors of the S_2(Z) lattice.

        T_p acts on S_2(Z) = Hom(T, Z) by precomposition with multiplication
        by T_p on T, so this is the matrix M with T_p t_j = sum_k M[j][k] t_k
        for the basis t_j of T whose probes are the rows of _h.  T is
        commutative, so the probe of T_p t_j is the probe of t_j with T_p
        applied to each symbol class in it: the coordinate Hecke matrix acts
        on each rank-wide block.  No q-expansion coefficient past the Sturm
        bound is needed.
        """
        a = self.space.hecke_on_coords(p).entries
        k = self.space.rank
        if self._h_solver is None:
            self._h_solver = RowSolver(self._h)
        rows = []
        for probe in self._h.entries:
            img: list[int] = []
            for s in range(0, len(probe), k):
                block = probe[s:s + k]
                img.extend(sum(x * y for x, y in zip(arow, block)) for arow in a)
            sol = self._h_solver.solve(img, integral=True)
            assert sol is not None, "T_p times the Hecke algebra left the algebra"
            rows.append(sol)
        return IntMatrix.from_rows(rows)


_ALGEBRAS: dict[int, HeckeAlgebra] = {}


def hecke_algebra(N: int) -> HeckeAlgebra:
    if N not in _ALGEBRAS:
        _ALGEBRAS[N] = HeckeAlgebra(N)
    return _ALGEBRAS[N]


def integral_cusp_basis(N: int, B: int) -> IntegralCuspBasis:
    if B < sturm_bound(N):
        raise PrecisionError(f"precision {B} below Sturm bound {sturm_bound(N)}")
    alg = hecke_algebra(N)
    return IntegralCuspBasis(N, B, alg.coefficient_basis(B))


def hecke_complement_rows(hecke: Callable[[int], IntMatrix], f: RationalNewform,
                          target: int) -> IntMatrix:
    """Row span of the Hecke complement of f in a Hecke-stable lattice.

    `hecke(p)` is the matrix of T_p on column coordinate vectors of the
    lattice, and `target` the rank of the complement (the lattice rank less
    the rank of f's isotypic part).  The span is accumulated as the sum over
    primes p up to the Sturm bound of the stabilized images im((T_p - a_p)^k)
    until the rank certificate `target` holds; a Sturm-bound separation
    argument makes the partial sum exact once it does.
    """
    rows = IntMatrix.from_rows([])
    if target == 0:
        return rows
    for p in primes_up_to(max(sturm_bound(f.level), 2)):
        t = hecke(p)
        op_t = (t - IntMatrix.identity(t.rows).scale(f.prime_eigenvalue(p))).transpose()
        im = hnf(op_t)  # im(op^k) for k past stabilization
        while im.rows:
            nxt = hnf(im * op_t)
            if nxt.rows == im.rows:
                break
            im = nxt
        rows = hnf(stack(rows, im)) if rows.rows else im
        if rows.rows == target:
            return rows
        assert rows.rows < t.rows, "complement overflow"
    raise ComplementRankError(
        f"Hecke complement has rank {rows.rows}, expected {target} "
        f"(level {f.level})"
    )


def homology_complement(space, f: RationalNewform) -> IntMatrix:
    """Hecke complement of f in the cuspidal homology lattice of `space`
    (f's level), computed once per newform: the modular degree and the
    newform periods both start from it."""
    if f._complement is None:
        f._complement = hecke_complement_rows(
            space.hecke_on_cuspidal, f, space.cuspidal_basis.rows - 2)
    return f._complement


def isotypic_complement_on_dual(alg: HeckeAlgebra, f: RationalNewform) -> IntMatrix:
    """Row span of the Hecke complement of Q.f inside S_2 tensor Q, in dual
    coordinates."""
    return hecke_complement_rows(alg.hecke_matrix_on_dual, f, alg.genus - 1)


def congruence_number(N: int, f: RationalNewform) -> int:
    """r_f = #( S / (S cap Q.f + S cap (Q.f)^perp) ) on the q-expansion lattice."""
    alg = hecke_algebra(N)
    g = alg.genus
    x = alg.newform_coordinates(f)
    if g == 1:
        return 1
    comp = isotypic_complement_on_dual(alg, f)
    from math import gcd as _gcd

    content = 0
    for v in x:
        content = _gcd(content, v)
    prim = [v // content for v in x]
    l1 = lattice_from_rows(g, [prim])
    l2 = subspace_integer_points(g, comp.entries)
    total = lattice_sum(l1, l2)
    assert total.rank == g, "f-line meets its complement"
    order = quotient_order(standard_lattice(g), total)
    assert isinstance(order, int)
    return order
