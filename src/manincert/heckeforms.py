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
from functools import cached_property
from math import gcd, isqrt

from .arith import primes_up_to
from .intlattice import (
    IntMatrix,
    InvariantError,
    Lattice,
    RowSolver,
    hnf,
    kernel,
    require,
    saturate,
    stack,
)
from .modsym import build_space, index_mu


class PrecisionError(ValueError):
    """Requested q-expansion precision below the Sturm bound."""


class ComplementRankError(InvariantError):
    """The Hecke complement did not reach its certified rank by the Sturm
    bound: this signals a bug in the Hecke operators, not bad input."""


def sturm_bound(N: int) -> int:
    """ceil(mu(N)/6): coefficients a_1..a_bound pin a weight-2 form on Gamma0(N)."""
    if N < 1:
        raise ValueError("level must be >= 1")
    return -(-index_mu(N) // 6)


def bad_prime_eigenvalue(N: int, p: int, sign_w: dict[int, int]) -> int:
    """a_p at a prime p | N of a weight-2 newform of level N with Atkin-Lehner
    signs sign_w: -w_p for p || N, and 0 for p^2 | N."""
    return -sign_w[p] if (N // p) % p else 0


@dataclass
class RationalNewform:
    """A rational (integer-eigenvalue) newform given by its modular symbol data."""

    level: int
    ap: dict[int, int]
    eigenspace: Lattice
    sign_w: dict[int, int]
    _an: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    # the caller's a_p source past the stored primes (numeric passes the
    # curve's point counts); without one, the space's a_p table serves
    _ap_provider: Callable[[int], int] | None = field(default=None, repr=False,
                                                      compare=False)

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
                a = bad_prime_eigenvalue(self.level, p, self.sign_w)
            elif self._ap_provider:
                a = self._ap_provider(p)
            else:
                space = build_space(self.level)
                a = space.eigen_ap(p)[space.newform_index(self)]
            require(a * a <= 4 * p, f"Hasse bound fails at {p}")
            self.ap[p] = a
        return self.ap[p]


def a_list(f: RationalNewform, B: int) -> list[int]:
    """[a_1, ..., a_B] of f.  f._an holds a prefix a_1..a_k, filled on in
    increasing n: a_n = a_{p^e} a_m for the least prime p of n = p^e m, p
    not dividing m, and a_{p^e} = a_p a_{p^(e-1)} - p a_{p^(e-2)} (a_p^e if
    p | N).  A sieve gives the least primes of k+1..B: nothing is factorized,
    and prime_eigenvalue runs once per new prime, in increasing order."""
    an = f._an
    lo = len(an) + 1
    if B >= lo:
        least = [0] * (B - lo + 1)  # least prime factor of lo..B; 0 at 1 and primes
        for p in reversed(primes_up_to(isqrt(B))):
            start = max(p * p, -(-lo // p) * p)
            least[start - lo::p] = [p] * len(range(start, B + 1, p))
        for n, p in enumerate(least, lo):
            if not p:
                an[n] = f.prime_eigenvalue(n) if n > 1 else 1
                continue
            m = n // p
            while m % p == 0:
                m //= p
            if m > 1:  # n = p^e m
                an[n] = an[n // m] * an[m]
            else:  # n = p^e, e >= 2
                an[n] = an[p] * an[n // p] - (p * an[n // p // p] if f.level % p else 0)
    return [an[n] for n in range(1, B + 1)]


class HeckeAlgebra:
    """The Hecke algebra of level N (acting on the cuspidal lattice) as a
    Z-module, with its dual q-expansion lattice.

    T_n is probed through its action on a few cuspidal vectors; the probe
    T -> Z^m is certified faithful by a rank check against the genus.  The
    space owns its algebra (ModSymSpace.hecke_algebra), and the algebra
    memoizes T_p on the dual lattice per prime.
    """

    def __init__(self, space):
        self.space = space
        self.level = space.level
        self.genus = space.genus
        self.sturm = self.precision = sturm_bound(space.level)  # perfbench reads `precision`
        self._dual_hecke: dict[int, IntMatrix] = {}
        self._build()

    def _cuspidal_sections(self, count: int) -> list[dict[int, int]]:
        """Formal-symbol lifts of the first `count` cuspidal basis vectors."""
        basis = self.space.cuspidal_basis
        return [self.space.formal_sum(row) for row in basis.entries[:count]]

    def _probe_of(self, n: int) -> list[int]:
        images = self.space._hecke_images(n)
        row: list[int] = []
        for vec in self._probe_vectors:
            row.extend(self.space._class_of(images(vec)))
        return row

    def _build(self):
        g = self.genus
        nvec = 1
        while True:
            self._probe_vectors = self._cuspidal_sections(nvec)
            probe = IntMatrix.from_rows(
                [self._probe_of(n) for n in range(1, self.sturm + 1)]
            )
            h = hnf(probe)
            if h.rows == g:
                break
            require(nvec < self.space.cuspidal_basis.rows,
                    f"probe map not faithful at level {self.level}")
            nvec = min(2 * nvec, self.space.cuspidal_basis.rows)
        self._h = h  # HNF of the probe rows of T
        self._h_solver = RowSolver(h)
        # row i of the dual basis has a_n = coeffs[n-1][i]
        coeffs = [self._solve_probe(row) for row in probe.entries]
        self.basis_coeffs = IntMatrix.from_rows(
            [[c[i] for c in coeffs] for i in range(g)])

    def _solve_probe(self, probe_row) -> list[int]:
        sol = self._h_solver.solve(probe_row, integral=True)
        require(sol is not None, "T_n outside the Z-span of the Sturm set")
        return sol

    def coefficient_basis(self, B: int) -> IntMatrix:
        """Canonical (HNF) basis of S_2(Z) truncated to a_1..a_B."""
        if B < self.sturm:
            raise PrecisionError(
                f"precision {B} is below the Sturm bound {self.sturm}"
            )
        extra = [self._solve_probe(self._probe_of(n))
                 for n in range(self.sturm + 1, B + 1)]
        return hnf(IntMatrix.from_rows(
            [list(row) + [c[i] for c in extra]
             for i, row in enumerate(self.basis_coeffs.entries)]
        ))

    def newform_coordinates(self, f: RationalNewform) -> list[int]:
        """Coordinates of f's coefficient vector in the (raw) dual basis."""
        sol = self._coeff_solver.solve(a_list(f, self.precision), integral=True)
        require(sol is not None, "newform is not in the integral cusp lattice")
        return sol

    @cached_property
    def _coeff_solver(self) -> RowSolver:
        return RowSolver(self.basis_coeffs)

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
        if p in self._dual_hecke:
            return self._dual_hecke[p]
        a = self.space.hecke_on_coords(p).entries
        k = self.space.rank
        rows = []
        for probe in self._h.entries:
            img: list[int] = []
            for s in range(0, len(probe), k):
                block = probe[s:s + k]
                img.extend(sum(x * y for x, y in zip(arow, block)) for arow in a)
            sol = self._h_solver.solve(img, integral=True)
            require(sol is not None, "T_p times the Hecke algebra left the algebra")
            rows.append(sol)
        self._dual_hecke[p] = IntMatrix.from_rows(rows)
        return self._dual_hecke[p]


def hecke_algebra(N: int) -> HeckeAlgebra:
    """The Hecke algebra of the cached space of level N."""
    return build_space(N).hecke_algebra


def hecke_complement_rows(hecke: Callable[[int], IntMatrix], f: RationalNewform,
                          target: int) -> IntMatrix:
    """Row span of the Hecke complement of f in a Hecke-stable lattice.

    `hecke(p)` is the matrix of T_p on column coordinate vectors of the
    lattice, and `target` the rank of the complement (the lattice rank less
    the rank of f's isotypic part).  The span is the running sum, over primes
    p up to the Sturm bound, of the images im(T_p - a_p), returned once its
    rank reaches `target`.  That sum is exact over Q.  The isotypic part V_f
    is a Hecke-stable summand on which every T_p (U_p for p | N too) acts as
    a_p, and by strong multiplicity one no oldform shares f's eigenvalues, so
    the rest W of the space is Hecke-stable as well, also where U_p is not
    semisimple.  Hence each image lies in W, and a sum of rank dim W =
    `target` spans W.  Each image contains the stabilized image
    im((T_p - a_p)^k), so the sum reaches `target` no later than the sum of
    those.  Only the rational span of the rows is meant: callers saturate it
    or take its kernel.
    """
    rows = IntMatrix.from_rows([])
    if target == 0:
        return rows
    for p in primes_up_to(max(sturm_bound(f.level), 2)):
        t = hecke(p)
        shifted = t - IntMatrix.identity(t.rows).scale(f.prime_eigenvalue(p))
        rows = hnf(stack(rows, shifted.transpose()))
        if rows.rows == target:
            return rows
        require(rows.rows < t.rows, "complement overflow")
    raise ComplementRankError(
        f"Hecke complement has rank {rows.rows}, expected {target} "
        f"(level {f.level})"
    )


def homology_annihilator(space, f: RationalNewform) -> IntMatrix:
    """Saturated annihilator (2 x 2g) of f's Hecke complement in the cuspidal
    lattice of `space`, which builds it once per newform
    (ModSymSpace.newform_data): the modular degree and the newform periods
    both read it."""
    lf = f.eigenspace
    require(lf.rank == 2 and saturate(lf) == lf,
            "newform eigenspace is not a saturated rank-2 lattice")
    n = space.cuspidal_basis.rows
    return complement_annihilator(
        hecke_complement_rows(space.hecke_on_cuspidal, f, n - 2), n, 2)


def isotypic_complement_on_dual(alg: HeckeAlgebra, f: RationalNewform) -> IntMatrix:
    """Row span of the Hecke complement of Q.f inside S_2 tensor Q, in dual
    coordinates."""
    return hecke_complement_rows(alg.hecke_matrix_on_dual, f, alg.genus - 1)


def complement_annihilator(comp: IntMatrix, n: int, rank: int) -> IntMatrix:
    """Saturated basis K of the functionals on Z^n that vanish on the span of
    the Hecke complement `comp`, which must leave a quotient of rank `rank`.

    v -> K v maps Z^n onto Z^rank with kernel Z^n cap span(comp), so for a
    sublattice V of rank `rank` meeting that span in 0,
    #( Z^n / (V + Z^n cap span(comp)) ) = |det(K V^T)|.
    """
    quot = kernel(comp) if comp.rows else IntMatrix.identity(n)
    require(quot.rows == rank, f"Hecke complement leaves a quotient of rank "
                               f"{quot.rows}, not {rank}")
    return quot


def congruence_number(N: int, f: RationalNewform) -> int:
    """r_f = #( S / (S cap Q.f + S cap (Q.f)^perp) ) on the q-expansion lattice:
    |det| of the line's image in S/S_perp, that is |k . x| / content(x) for
    the primitive functional k annihilating the complement."""
    alg = hecke_algebra(N)
    g = alg.genus
    x = alg.newform_coordinates(f)
    if g == 1:
        return 1
    (k,) = complement_annihilator(isotypic_complement_on_dual(alg, f), g, 1).entries
    r_f = abs(sum(a * b for a, b in zip(k, x))) // gcd(*x)
    require(r_f != 0, "f-line meets its complement")
    return r_f
