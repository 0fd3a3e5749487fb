"""Exact elliptic-curve model arithmetic: invariants, Laska-Kraus-Connell
minimal models, rational 2-torsion, point counts mod p, newform matching."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors, factorize, primes_up_to
from .heckeforms import RationalNewform, sturm_bound
from .intlattice import require


SIEVE_BITS = 20  # minimal_model sieves primes below 6 * 2^SIEVE_BITS at most


class ModelSizeError(ValueError):
    """c-invariants too large for the prime search of minimal_model."""


class SingularCurveError(ValueError):
    """Zero discriminant."""


class BadReductionError(ValueError):
    """Point count requested at a prime of bad reduction."""


class MatchingError(RuntimeError):
    """Curve <-> newform matching failed (zero or multiple candidates)."""


@dataclass(frozen=True)
class WeierstrassModel:
    """A model with rational coefficients; integral ones are held as ints,
    so their invariants are computed in int arithmetic."""

    a1: Fraction | int
    a2: Fraction | int
    a3: Fraction | int
    a4: Fraction | int
    a6: Fraction | int

    @staticmethod
    def from_ainvs(ainvs) -> "WeierstrassModel":
        vals = [Fraction(x) for x in ainvs]
        if all(v.denominator == 1 for v in vals):
            vals = [v.numerator for v in vals]
        return WeierstrassModel(*vals)

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class MinimalModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    c4: int
    c6: int
    delta_min: int

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def as_weierstrass(self) -> WeierstrassModel:
        return WeierstrassModel.from_ainvs(self.ainvs)

    # the integral coefficients go straight into the int formula
    b_invariants = WeierstrassModel.b_invariants


def _ainvs_from_c4c6(c4: int, c6: int):
    """Integral (a1, a2, a3, a4, a6) with reduced a1, a2, a3 realizing the
    pair (c4, c6), or None (Kraus obstruction)."""
    if (c4**3 - c6 * c6) % 1728:
        return None
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                b2 = a1 * a1 + 4 * a2
                num_b4 = b2 * b2 - c4
                if num_b4 % 24:
                    continue
                b4 = num_b4 // 24
                num_b6 = -b2**3 + 36 * b2 * b4 - c6
                if num_b6 % 216:
                    continue
                b6 = num_b6 // 216
                num_a4 = b4 - a1 * a3
                if num_a4 % 2:
                    continue
                a4 = num_a4 // 2
                num_a6 = b6 - a3 * a3
                if num_a6 % 4:
                    continue
                a6 = num_a6 // 4
                w = WeierstrassModel.from_ainvs((a1, a2, a3, a4, a6))
                if w.c_invariants() == (c4, c6):
                    return (a1, a2, a3, a4, a6)
    return None


def minimal_model(w: WeierstrassModel) -> MinimalModel:
    """Global minimal model via Laska-Kraus-Connell on (c4, c6)."""
    delta = w.discriminant()
    if delta == 0:
        raise SingularCurveError("discriminant is zero")
    c4, c6 = w.c_invariants()
    # scale to integral invariants by the least u_den with den(c4) | u_den^4
    # and den(c6) | u_den^6; their primes all divide some a_i denominator,
    # which trial division factors only below 2^(2 SIEVE_BITS)
    dens = {a.denominator for a in (w.a1, w.a2, w.a3, w.a4, w.a6)}
    if max(dens).bit_length() > 2 * SIEVE_BITS:
        raise ModelSizeError(f"a coefficient denominator past 2^{2 * SIEVE_BITS}")
    u_den = 1
    for p in set().union(*map(factorize, dens)):
        e = 0
        while c4.denominator % p**(4 * e + 1) == 0 or \
                c6.denominator % p**(6 * e + 1) == 0:
            e += 1
        u_den *= p**e
    c4i = c4 * u_den**4
    c6i = c6 * u_den**6
    require(c4i.denominator == 1 and c6i.denominator == 1,
            "scaled c-invariants are not integral")
    c4i, c6i = int(c4i), int(c6i)
    # the prime search below sieves up to about 6 max(|c4|^(1/4), |c6|^(1/6))
    if abs(c4i).bit_length() > 4 * SIEVE_BITS or abs(c6i).bit_length() > 6 * SIEVE_BITS:
        raise ModelSizeError(f"c-invariants need a prime sieve past 6 * 2^{SIEVE_BITS}")

    # Maximize the rational scaling u = d/w (w | 6: obstructions to realizing
    # an integral (c4, c6) pair live only at 2 and 3) such that
    # (c4/u^4, c6/u^6) is integral and comes from an integral model.
    best = None  # (u as Fraction, ainvs)
    for w in (1, 2, 3, 6):
        C4, C6 = c4i * w**4, c6i * w**6
        u0 = 1
        cap = max(isqrt(isqrt(abs(C4))) if C4 else 0,
                  int(round(abs(C6) ** (1 / 6))) if C6 else 0) + 2
        for p in primes_up_to(cap):
            e = 0
            while (C4 == 0 or C4 % p**(4 * (e + 1)) == 0) and \
                    (C6 == 0 or C6 % p**(6 * (e + 1)) == 0):
                e += 1
            u0 *= p**e
        for d in sorted(divisors(u0), reverse=True):
            u = Fraction(d, w)
            if best is not None and u <= best[0]:
                break
            if C4 % d**4 == 0 and C6 % d**6 == 0:
                got = _ainvs_from_c4c6(C4 // d**4, C6 // d**6)
                if got is not None:
                    best = (u, got)
                    break
    require(best is not None, "no Kraus-valid reduction found")
    _, ainvs = best
    mm = WeierstrassModel.from_ainvs(ainvs)
    dmin = mm.discriminant()
    require(dmin.denominator == 1 and dmin != 0,
            "minimal discriminant is not a nonzero integer")
    cc4, cc6 = mm.c_invariants()
    require(int(cc4) ** 3 - int(cc6) ** 2 == 1728 * int(dmin),
            "c4^3 - c6^2 != 1728 Delta on the minimal model")
    return MinimalModel(*ainvs, c4=int(cc4), c6=int(cc6), delta_min=int(dmin))


def minimal_model_from_ainvs(ainvs) -> MinimalModel:
    return minimal_model(WeierstrassModel.from_ainvs(ainvs))


def _rational_roots_of_integer_cubic(coeffs):
    """Rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (integer coefficients)."""
    c3, c2, c1, c0 = coeffs
    require(c3 != 0, "cubic has zero leading coefficient")
    if c0 == 0:
        rest = _rational_roots_of_quadratic(c3, c2, c1)
        return sorted(set([Fraction(0)] + rest))
    # x = s/t is a root when t^3 times the cubic at x, an int, vanishes
    roots = set()
    for s in divisors(abs(c0)):
        for t in divisors(abs(c3)):
            if gcd(s, t) != 1:
                continue
            for num in (s, -s):
                if ((c3 * num + c2 * t) * num + c1 * t * t) * num + c0 * t**3 == 0:
                    roots.add(Fraction(num, t))
    return sorted(roots)


def _rational_roots_of_quadratic(a, b, c):
    if a == 0:
        return [] if b == 0 else [Fraction(-c, b)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    return sorted({Fraction(-b + r, 2 * a), Fraction(-b - r, 2 * a)})


def two_torsion_rank(m: MinimalModel) -> int:
    """dim_F2 E(Q)[2]: 0 roots -> 0, 1 root -> 1, 3 roots -> 2 for the
    2-division cubic 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6, _ = m.b_invariants()
    roots = _rational_roots_of_integer_cubic((4, int(b2), 2 * int(b4), int(b6)))
    n = len(roots)
    require(n in (0, 1, 3), f"2-division cubic has {n} rational roots")
    return {0: 0, 1: 1, 3: 2}[n]


_DIGITS = bytes.maketrans(bytes(range(4)), b"0123")
_NONZERO = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


def _digits_int(values: bytes, base: int, table: bytes = _DIGITS) -> int:
    """The int whose base-`base` digit v is values[v] mapped through table."""
    return int(values.translate(table)[::-1], base)


class _PrimeTables:
    """What count_points reads at a prime p >= 5, built from p alone: the
    quadratic character chi as bit masks, square roots mod p, and for each
    a in {0, 1, n} (n the least non-residue) the multiplicities
    H_a(v) = #{X : X^3 + a X = v} as bit planes.  Each table is filled by
    one interpreted pass over x <= (p - 1) / 2 and held in a byte buffer
    and ints, with no Python object per entry."""

    def __init__(self, p: int):
        width = 2 if p < 1 << 16 else 4  # bytes per square root
        root = memoryview(bytearray(width * p)).cast("H" if width == 2 else "I")
        for y in range(1, (p + 1) // 2):
            root[y * y % p] = y
        raw = root.tobytes()
        square = 0  # bit v: v a nonzero square
        for j in range(width):
            square |= _digits_int(raw[j::width], 2, _NONZERO)
        nonsquare = (1 << p) - 2 - square
        self.p = p
        self.root = root
        # doubled, so a right shift by s has bit v set where v + s is a
        # nonzero square (a non-square)
        self.square2 = square | square << p
        self.nonsquare2 = nonsquare | nonsquare << p
        self.n = (nonsquare & -nonsquare).bit_length() - 1
        self.n_inv = pow(self.n, -1, p)
        self._planes: dict[int, tuple[int, int]] = {}

    def planes(self, a: int) -> tuple[int, int]:
        """The low and high binary digits of H_a(v) (at most 3) at bit v.

        h_a is odd, so H_a(v) = c(v) + c(-v) + [v = 0] with c counting only
        x in 1..(p-1)/2; as base-4 digits the two counts add without carry."""
        if a not in self._planes:
            p = self.p
            c = bytearray(p)
            for x in range(1, (p + 1) // 2):
                c[(x * x + a) * x % p] += 1
            h = _digits_int(c, 4) + _digits_int(c[:1] + c[:0:-1], 4) + 1
            bits = format(h, f"0{2 * p}b")
            self._planes[a] = int(bits[1::2], 2), int(bits[::2], 2)
        return self._planes[a]


_prime_tables = lru_cache(maxsize=None)(_PrimeTables)


def count_points(m: MinimalModel, p: int) -> int:
    """#E(F_p) at a prime p of good reduction.

    p = 2, 3 by direct enumeration.  For p >= 5, X = 36x + 3 b2 and
    Y = 108 (2y + a1 x + a3) take the model to Y^2 = X^3 + A X + B with
    A = -27 c4, B = -54 c6, so #E(F_p) = p + 1 + sum_X chi(X^3 + A X + B),
    chi the quadratic character mod p.  With a in {1, n} the class of A
    modulo squares and lam^2 = A / a (a = 0, lam = 1 when A = 0), X = lam X'
    makes the sum chi(lam) sum_v H_a(v) chi(v + B lam^-3).  That is a few
    popcounts of H_a's bit planes against the shifted character masks of
    the tables that _prime_tables caches on p alone.
    """
    a1, a2, a3, a4, a6 = m.ainvs
    if p in (2, 3):
        count = 1
        for x in range(p):
            for y in range(p):
                if (y * y + a1 * x * y + a3 * y -
                        (x * x * x + a2 * x * x + a4 * x + a6)) % p == 0:
                    count += 1
        return count
    t = _prime_tables(p)
    big_a, big_b = -27 * m.c4 % p, -54 * m.c6 % p
    if big_a == 0:
        a, lam = 0, 1
    elif t.root[big_a]:
        a, lam = 1, t.root[big_a]
    else:
        a, lam = t.n, t.root[big_a * t.n_inv % p]
    shift = big_b * pow(lam, -3, p) % p
    low, high = t.planes(a)
    sq, nsq = t.square2 >> shift, t.nonsquare2 >> shift
    total = ((low & sq).bit_count() - (low & nsq).bit_count()
             + 2 * ((high & sq).bit_count() - (high & nsq).bit_count()))
    return p + 1 + (total if t.square2 >> lam & 1 else -total)


def ap_via_counting(m: MinimalModel, p: int) -> int:
    if m.delta_min % p == 0:
        raise BadReductionError(f"{p} divides the minimal discriminant")
    ap = p + 1 - count_points(m, p)
    require(ap * ap <= 4 * p, f"point count at {p} violates the Hasse bound")
    return ap


def match_curve_to_newform(m: MinimalModel, conductor: int,
                           candidates: list[RationalNewform]) -> RationalNewform:
    """The unique candidate whose a_p agrees with point counts at every good
    prime up to the Sturm bound."""
    bound = sturm_bound(conductor)
    good = [p for p in primes_up_to(max(bound, 2)) if m.delta_min % p]
    matches = []
    for f in candidates:
        if f.level != conductor:
            raise MatchingError(
                f"candidate has level {f.level}, curve has conductor {conductor}"
            )
        if all(f.prime_eigenvalue(p) == ap_via_counting(m, p) for p in good):
            matches.append(f)
    if len(matches) != 1:
        raise MatchingError(
            f"{len(matches)} candidates match the curve at conductor {conductor}"
        )
    return matches[0]


def curve_ap_provider(m: MinimalModel):
    """a_p source backed by point counting (good primes only)."""

    def provider(p: int) -> int:
        return ap_via_counting(m, p)

    return provider
