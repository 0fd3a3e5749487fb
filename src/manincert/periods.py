"""Floating-point period lattices and the numerical Manin constant.

Floating point is confined to this module; nothing here feeds the exact
certification logic.  Period integrals of 2*pi*i*f(tau)*dtau are evaluated by
q-series summation over gamma-loop representatives of homology classes, with
certified geometric tail bounds (|a_n| <= 2n for weight 2) and an opportunistic
Fricke reflection to raise evaluation heights.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .heckeforms import RationalNewform, extend_an, homology_complement
from .intlattice import IntMatrix, kernel, solve_in_rowspace
from .modsym import ModSymSpace, xgcd


class ToleranceError(ValueError):
    """Nonpositive tolerance."""


class ConvergenceError(RuntimeError):
    """AGM or q-series failed to meet the tolerance within the cap."""


class InconsistencyError(RuntimeError):
    """Numeric lattice comparison did not produce a nonzero near-integer."""


TERM_CAP = 5_000_000
AGM_CAP = 200


@dataclass(frozen=True)
class PeriodLattice:
    omega1: complex
    omega2: complex
    kind: str  # "rectangular" | "non-rectangular"
    precision: float

    def covolume(self) -> float:
        return abs((self.omega1.conjugate() * self.omega2).imag)


# ---------------------------------------------------------------------------
# AGM periods of the minimal model


def _agm(a: float, b: float) -> float:
    for _ in range(AGM_CAP):
        if abs(a - b) <= 1e-15 * abs(a):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError("AGM did not converge")


def _real_roots_of_quartic_free_cubic(b2: int, b4: int, b6: int):
    """Real roots of 4x^3 + b2 x^2 + 2 b4 x + b6, by Cardano."""
    # normalize: x^3 + p x + q after x -> x - b2/12
    a2 = b2 / 4.0
    a1 = b4 / 2.0
    a0 = b6 / 4.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    roots = []
    if disc > 0:
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
        for k in range(3):
            roots.append(shift + r * math.cos(phi / 3.0 - 2.0 * math.pi * k / 3.0))
        roots.sort(reverse=True)
        return roots, []
    # one real root
    u = cmath.sqrt(q * q / 4.0 + p**3 / 27.0)
    for cand in (-q / 2.0 + u, -q / 2.0 - u):
        cr = cand ** (1.0 / 3.0) if isinstance(cand, float) else cand ** (1 / 3)
        if abs(cr) > 1e-18:
            break
    w = cr - p / (3.0 * cr)
    x0 = shift + w.real
    # polish with Newton on the exact cubic
    for _ in range(60):
        fx = ((4.0 * x0 + b2) * x0 + 2.0 * b4) * x0 + b6
        dfx = (12.0 * x0 + 2.0 * b2) * x0 + 2.0 * b4
        if dfx == 0:
            break
        step = fx / dfx
        x0 -= step
        if abs(step) < 1e-14 * (1.0 + abs(x0)):
            break
    # complex pair from the depressed quadratic 4x^2 + (b2+4x0)x + ...
    # divide: 4x^3+b2x^2+2b4x+b6 = (x - x0)(4x^2 + c1 x + c0)
    c1 = b2 + 4.0 * x0
    c0 = 2.0 * b4 + c1 * x0
    sigma = -c1 / 8.0
    tau2 = c0 / 4.0 - sigma * sigma
    tau = math.sqrt(max(tau2, 0.0))
    return [x0], [complex(sigma, tau), complex(sigma, -tau)]


def elliptic_period_lattice(m, tol: float) -> PeriodLattice:
    """Neron period lattice of a minimal model via real AGM."""
    if tol <= 0:
        raise ToleranceError("tolerance must be positive")
    b2, b4, b6, _ = m.b_invariants()
    b2, b4, b6 = int(b2), int(b4), int(b6)
    if m.delta_min > 0:
        (e1, e2, e3), _ = _real_roots_of_quartic_free_cubic(b2, b4, b6)
        om_re = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        om_im = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e2 - e3))
        lat = PeriodLattice(complex(om_re, 0.0), complex(0.0, om_im),
                            "rectangular", tol)
    else:
        (e1,), (z, _) = _real_roots_of_quartic_free_cubic(b2, b4, b6)
        sigma, tau = z.real, abs(z.imag)
        c = e1 - sigma
        big_a = math.hypot(c, tau)
        om_re = math.pi / _agm(math.sqrt(big_a), math.sqrt((big_a + c) / 2.0))
        om_im = math.pi / _agm(math.sqrt(big_a), math.sqrt((big_a - c) / 2.0))
        lat = PeriodLattice(complex(om_re, 0.0),
                            complex(om_re / 2.0, om_im / 2.0),
                            "non-rectangular", tol)
    got_c4, got_c6 = lattice_c4c6(lat.omega1, lat.omega2)
    scale = max(1.0, abs(m.c4), abs(m.c6))
    if abs(got_c4 - m.c4) > 1e-6 * scale or abs(got_c6 - m.c6) > 1e-6 * scale:
        raise ConvergenceError(
            f"AGM lattice fails the Eisenstein self-check: "
            f"({got_c4:.6g}, {got_c6:.6g}) vs ({m.c4}, {m.c6})"
        )
    return lat


def lattice_c4c6(w1: complex, w2: complex) -> tuple[float, float]:
    """(c4, c6) of the lattice Z w1 + Z w2 via Eisenstein q-series."""
    w1, w2 = _gauss_reduce(w1, w2)
    tau = w2 / w1
    if tau.imag < 0:
        tau = -tau
        w2 = -w2
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, 80):
        qn *= q
        if abs(qn) < 1e-19:
            break
        term = qn / (1 - qn)
        e4 += 240.0 * n**3 * term
        e6 -= 504.0 * n**5 * term
    c4 = (2 * math.pi / w1) ** 4 * e4
    c6 = (2 * math.pi / w1) ** 6 * e6
    return c4.real, c6.real


def _gauss_reduce(w1: complex, w2: complex) -> tuple[complex, complex]:
    for _ in range(200):
        if abs(w2) < abs(w1):
            w1, w2 = w2, w1
        ratio = w2 / w1
        q = round(ratio.real)
        if q == 0:
            return w1, w2
        w2 -= q * w1
    return w1, w2


# ---------------------------------------------------------------------------
# newform periods


class NewformPeriods:
    """Period integrals of 2*pi*i*f over cuspidal homology classes."""

    def __init__(self, space: ModSymSpace, f: RationalNewform, tol: float):
        if tol <= 0:
            raise ToleranceError("tolerance must be positive")
        self.space = space
        self.f = f
        self.tol = tol
        self.N = space.level
        self.w_fricke = 1
        for s in f.sign_w.values():
            self.w_fricke *= s
        self._an: list[int] = [0]  # a_0 unused
        self._gammas: list[tuple[int, int, int, int]] = []
        self._classes: list[list[int]] = []
        self._gamma_iter = None
        self._star_height = 1.0 / math.sqrt(self.N)
        self._s_star: complex | None = None
        self._fricke_checked = False

    # -- coefficients --------------------------------------------------------

    def _ensure_an(self, n: int):
        while len(self._an) <= n:
            self._an.append(extend_an(self.f, len(self._an)))

    def _f_value(self, z: complex, tol: float) -> complex:
        """f(z) = sum a_n e^{2 pi i n z} with certified tail <= tol."""
        y = z.imag
        m = self._terms_needed(y, tol, weight_extra=1)
        self._ensure_an(m)
        q = cmath.exp(2j * math.pi * z)
        acc = 0j
        qn = 1.0 + 0j
        for n in range(1, m + 1):
            qn *= q
            acc += self._an[n] * qn
        return acc

    @staticmethod
    def _terms_needed(y: float, tol: float, weight_extra: int = 0) -> int:
        """Smallest M with sum_{n>M} 2 n^{weight_extra} e^{-2 pi n y} <= tol."""
        r = math.exp(-2.0 * math.pi * y)
        if r >= 1.0:
            raise ConvergenceError("evaluation point on the real line")
        m = max(8, int(math.log(max(tol * (1 - r) / 4.0, 1e-300)) /
                       (-2.0 * math.pi * y)))
        # crude polynomial correction for the n^k factor
        def tail(mm: int) -> float:
            x = math.exp(-2.0 * math.pi * y * (mm + 1))
            poly = (mm + 1) ** weight_extra if weight_extra else 1.0
            return 2.0 * poly * x / (1 - r) ** (weight_extra + 1)

        while tail(m) > tol:
            m = int(m * 1.3) + 8
            if m > TERM_CAP:
                raise ConvergenceError(
                    f"term cap exceeded at height {y:.3g} for tol {tol:.3g}"
                )
        return m

    # -- the S-sum with the Fricke reflection ---------------------------------

    def _s_raw(self, z: complex, tol: float) -> complex:
        """S(z) = sum (a_n / n) e^{2 pi i n z}, certified tail <= tol."""
        m = self._terms_needed(z.imag, tol)
        self._ensure_an(m)
        q = cmath.exp(2j * math.pi * z)
        acc = 0j
        qn = 1.0 + 0j
        for n in range(1, m + 1):
            qn *= q
            acc += self._an[n] / n * qn
        return acc

    def _verify_fricke(self):
        if self._fricke_checked:
            return
        n = self.N
        z = complex(0.17, 1.31 / math.sqrt(n))
        wz = -1.0 / (n * z)
        fz = self._f_value(z, 1e-9)
        fwz = self._f_value(wz, 1e-9)
        predicted = self.w_fricke * n * z * z * fz
        scale = max(abs(fwz), abs(predicted), 1e-9)
        if abs(fwz - predicted) > 1e-3 * scale:
            raise InconsistencyError(
                f"Fricke eigenvalue {self.w_fricke} fails the q-series identity "
                f"at level {n} (residual {abs(fwz - predicted) / scale:.2e})"
            )
        self._fricke_checked = True

    def _s_value(self, z: complex, tol: float) -> complex:
        """S(z), reflecting through w_N when that raises the height."""
        wz = -1.0 / (self.N * z)
        if wz.imag > 1.7 * z.imag and z.imag < self._star_height:
            self._verify_fricke()
            w = self.w_fricke
            if self._s_star is None or self._s_star_tol > tol / 4:
                self._s_star = self._s_raw(complex(0.0, self._star_height), tol / 4)
                self._s_star_tol = tol / 4
            return w * self._s_raw(wz, tol / 4) - (w - 1) * self._s_star
        return self._s_raw(z, tol)

    # -- gamma loops ----------------------------------------------------------

    def _gamma_candidates(self):
        """All loops [[a, b], [cN, d]] in Gamma0(N), by increasing c then d."""
        n = self.N
        c = 1
        while True:
            mod = c * n
            for d in range(1, mod):
                if math.gcd(d, mod) != 1:
                    continue
                x, _, g = xgcd(d, mod)
                assert g == 1
                a = x % mod
                if a > mod // 2:
                    a -= mod
                b = (a * d - 1) // mod
                yield (a, b, mod, d)
            c += 1
            if c > 40:
                raise ConvergenceError(
                    "gamma loops up to c=40 do not span the target classes")

    def _take_gammas(self, count: int):
        if self._gamma_iter is None:
            self._gamma_iter = self._gamma_candidates()
        while len(self._gammas) < count:
            gam = next(self._gamma_iter)
            cls = self.space.path_class((0, 1), (gam[1], gam[3]))
            self._gammas.append(gam)
            self._classes.append(self.space.to_cuspidal_coords(cls))

    def _express(self, rows: list[list[int]]):
        """Rational combinations of gamma classes giving the target rows."""
        want = 2 * self.space.genus + 6
        while True:
            self._take_gammas(want)
            basis = IntMatrix.from_rows(self._classes)
            combo = solve_in_rowspace(basis, IntMatrix.from_rows(rows), integral=False)
            if combo is not None:
                return combo
            want += max(8, self.space.genus)

    def _gamma_period(self, i: int, tol: float) -> complex:
        a, b, mod, d = self._gammas[i]
        y = 1.0
        z0 = complex(-d / mod, y / mod)
        gz0 = complex(a / mod, 1.0 / (y * mod))
        return self._s_value(gz0, tol / 2) - self._s_value(z0, tol / 2)

    def periods_of_rows(self, rows: list[list[int]], tol: float | None = None):
        """Periods of cuspidal-coordinate rows, certified to tol each."""
        tol = tol or self.tol
        combos = self._express(rows)
        out = []
        for combo in combos:
            weight = sum(abs(q) for q in combo) or Fraction(1)
            per_gamma_tol = tol / float(2 * weight)
            acc = 0j
            for j, q in enumerate(combo):
                if q:
                    acc += float(q) * self._gamma_period(j, per_gamma_tol)
            out.append(acc)
        return out


def newform_period_lattice(space: ModSymSpace, f: RationalNewform,
                           tol: float) -> PeriodLattice:
    """Lattice of integrals of 2*pi*i*f over L / (L cap V_f-perp)."""
    if tol <= 0:
        raise ToleranceError("tolerance must be positive")
    n2g = space.cuspidal_basis.rows
    comp = homology_complement(space, f)
    if comp.rows:
        quot = kernel(IntMatrix.from_rows(
            [list(r) for r in comp.entries], n2g))
    else:
        quot = IntMatrix.identity(n2g)
    assert quot.rows == 2
    lifts = solve_in_rowspace(quot.transpose(), IntMatrix.identity(2), integral=True)
    assert lifts is not None, "quotient coordinate map is not surjective"
    calc = NewformPeriods(space, f, tol)
    w1, w2 = calc.periods_of_rows(lifts.tolists(), tol)
    if (w1.conjugate() * w2).imag == 0:
        raise InconsistencyError("degenerate newform period lattice")
    if (w1.conjugate() * w2).imag < 0:
        w2 = -w2
    return _canonicalize(w1, w2, tol)


def _canonicalize(w1: complex, w2: complex, tol: float) -> PeriodLattice:
    """Canonical basis (least positive real period, minimal-height partner)
    of a lattice stable under complex conjugation."""
    u, v = _gauss_reduce(w1, w2)
    scale = max(abs(u), abs(v))
    best_re = None
    best_im = None
    rng = range(-4, 5)
    for mm in rng:
        for nn in rng:
            z = mm * u + nn * v
            if abs(z) < 1e-13 * scale:
                continue
            if abs(z.imag) < 1e7 * tol * scale and z.real > 0:
                if best_re is None or z.real < best_re.real - 1e-12 * scale:
                    best_re = z
    if best_re is None:
        raise InconsistencyError("no real period found: lattice not conjugation-stable")
    for mm in rng:
        for nn in rng:
            z = mm * u + nn * v
            if z.imag > 1e7 * tol * scale:
                # normalize the real part into [0, omega1)
                k = math.floor(z.real / best_re.real + 1e-9)
                z = z - k * best_re
                if best_im is None or z.imag < best_im.imag - 1e-12 * scale:
                    best_im = z
    assert best_im is not None
    ratio = best_im.real / best_re.real
    kind = "rectangular" if ratio < 0.25 else "non-rectangular"
    return PeriodLattice(best_re, best_im, kind, tol)


def manin_constant_numeric(lat_e: PeriodLattice, lat_f: PeriodLattice,
                           tol: float):
    """|c| with Lambda_f = c * Lambda_E, asserted to be a nonzero integer."""
    if tol <= 0:
        raise ToleranceError("tolerance must be positive")
    ce = _canonicalize(lat_e.omega1, lat_e.omega2, lat_e.precision)
    cf = _canonicalize(lat_f.omega1, lat_f.omega2, lat_f.precision)
    c = cf.omega1.real / ce.omega1.real
    c_im = cf.omega2.imag / ce.omega2.imag
    if abs(c - c_im) > 1e4 * tol * max(1.0, c):
        raise InconsistencyError(
            f"lattices are not homothetic: real ratio {c}, imaginary ratio {c_im}"
        )
    nearest = round(c)
    resid = abs(c - nearest)
    if nearest == 0 or resid >= max(tol, 1e4 * lat_f.precision):
        raise InconsistencyError(
            f"period ratio {c} is not within {tol} of a nonzero integer"
        )
    return abs(nearest), resid
