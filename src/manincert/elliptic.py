"""Exact elliptic-curve model arithmetic: invariants, Laska-Kraus-Connell
minimal models, rational 2-torsion, point counts mod p, newform matching."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .heckeforms import RationalNewform, sturm_bound
from .intlattice import require
from .modsym import factorize, primes_up_to


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
    # scale to integral invariants
    den = (c4.denominator * c6.denominator)
    u_den = 1
    for p in factorize(den):
        e = 0
        while c4.denominator % p**(4 * (e + 1)) == 0 or \
                c6.denominator % p**(6 * (e + 1)) == 0:
            e += 1
        u_den *= p**e
    c4i = c4 * u_den**4
    c6i = c6 * u_den**6
    assert c4i.denominator == 1 and c6i.denominator == 1
    c4i, c6i = int(c4i), int(c6i)

    # Maximize the rational scaling u = d/w (w | 6: obstructions to realizing
    # an integral (c4, c6) pair live only at 2 and 3) such that
    # (c4/u^4, c6/u^6) is integral and comes from an integral model.
    from .modsym import divisors

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
    assert best is not None, "no Kraus-valid reduction found"
    _, ainvs = best
    mm = WeierstrassModel.from_ainvs(ainvs)
    dmin = mm.discriminant()
    assert dmin.denominator == 1 and dmin != 0
    cc4, cc6 = mm.c_invariants()
    assert int(cc4) ** 3 - int(cc6) ** 2 == 1728 * int(dmin)
    return MinimalModel(*ainvs, c4=int(cc4), c6=int(cc6), delta_min=int(dmin))


def minimal_model_from_ainvs(ainvs) -> MinimalModel:
    return minimal_model(WeierstrassModel.from_ainvs(ainvs))


def _rational_roots_of_integer_cubic(coeffs):
    """Rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (integer coefficients)."""
    c3, c2, c1, c0 = coeffs
    assert c3 != 0
    if c0 == 0:
        rest = _rational_roots_of_quadratic(c3, c2, c1)
        return sorted(set([Fraction(0)] + rest))
    from .modsym import divisors

    roots = set()
    for s in divisors(abs(c0)):
        for t in divisors(abs(c3)):
            if gcd(s, t) != 1:
                continue
            for sign in (1, -1):
                x = Fraction(sign * s, t)
                if ((c3 * x + c2) * x + c1) * x + c0 == 0:
                    roots.add(x)
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
    assert n in (0, 1, 3)
    return {0: 0, 1: 1, 3: 2}[n]


def count_points(m: MinimalModel, p: int) -> int:
    """#E(F_p) at a prime p of good reduction.

    p = 2, 3 by direct enumeration.  For p >= 5, completing the square turns
    the model into (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so each x
    contributes 1 + chi(rhs) affine points, chi the quadratic character mod
    p; chi is read from a table of the squares mod p built once per call.
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
    b2, b4, b6, _ = m.b_invariants()
    b2, b4, b6 = b2 % p, 2 * b4 % p, b6 % p
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, (p + 1) // 2):
        chi[y * y % p] = 1
    return p + 1 + sum([chi[(((4 * x + b2) * x + b4) * x + b6) % p]
                        for x in range(p)])


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
