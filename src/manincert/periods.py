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

from .heckeforms import RationalNewform, a_list, homology_annihilator
from .intlattice import require
from .modsym import ModSymSpace, gamma_loops


class ToleranceError(ValueError):
    """A tolerance that is not finite, or below double precision."""


class ConvergenceError(RuntimeError):
    """AGM or q-series failed to meet the tolerance within the cap."""


class InconsistencyError(RuntimeError):
    """Numeric lattice comparison did not produce a nonzero near-integer."""


TERM_CAP = 5_000_000
AGM_CAP = 200


def check_tolerance(tol: float):
    """Refuse a tolerance that is not finite (NaN too), or below the double
    precision epsilon 2^-52, which no floating-point residual can meet."""
    if not math.ulp(1.0) <= tol < math.inf:
        raise ToleranceError(f"tolerance must be finite and at least {math.ulp(1.0):.3g}, "
                             f"not {tol}")


@dataclass(frozen=True)
class PeriodLattice:
    """A period lattice in its one canonical basis, made where it is built:
    omega1 is the least positive real period, and omega2 the partner of least
    positive height, with real part in [0, omega1)."""
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
    """Real roots of 4x^3 + b2 x^2 + 2 b4 x + b6, by Cardano, in decreasing
    order."""
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
        return roots
    # one real root
    u = cmath.sqrt(q * q / 4.0 + p**3 / 27.0)
    for cand in (-q / 2.0 + u, -q / 2.0 - u):
        cr = cand ** (1 / 3)
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
    return [x0]


def elliptic_period_lattice(m, tol: float) -> PeriodLattice:
    """Neron period lattice of a minimal model via real AGM, in the canonical
    basis (omega2 = i*y when rectangular, omega1/2 + i*y otherwise)."""
    check_tolerance(tol)
    b2, b4, b6, _ = m.b_invariants()
    b2, b4, b6 = int(b2), int(b4), int(b6)
    if m.delta_min > 0:
        e1, e2, e3 = _real_roots_of_quartic_free_cubic(b2, b4, b6)
        om_re = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2))
        om_im = math.pi / _agm(math.sqrt(e1 - e3), math.sqrt(e2 - e3))
        lat = PeriodLattice(complex(om_re, 0.0), complex(0.0, om_im),
                            "rectangular", tol)
    else:
        # e2, e3 = sigma +- i tau; A^2 = (e1 - e2)(e1 - e3) = c^2 + tau^2 with
        # c = e1 - sigma, and Delta = -64 A^4 tau^2 gives tau^2 exactly, so
        # whichever of A +- c cancels is taken as tau^2 / (A -+ c)
        e1, = _real_roots_of_quartic_free_cubic(b2, b4, b6)
        a2 = ((12.0 * e1 + 2.0 * b2) * e1 + 2.0 * b4) / 4.0
        big_a, c = math.sqrt(a2), (3.0 * e1 + b2 / 4.0) / 2.0
        tau2 = -m.delta_min / (64.0 * a2 * a2)
        plus, minus = big_a + c, big_a - c
        if c > 0:
            minus = tau2 / plus
        else:
            plus = tau2 / minus
        om_re = math.pi / _agm(math.sqrt(big_a), math.sqrt(plus / 2.0))
        om_im = math.pi / _agm(math.sqrt(big_a), math.sqrt(minus / 2.0))
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

    def __init__(self, space: ModSymSpace, f: RationalNewform):
        self.space = space
        self.f = f
        self.N = space.level
        self.w_fricke = 1
        for s in f.sign_w.values():
            self.w_fricke *= s
        self._star_height = 1.0 / math.sqrt(self.N)
        self._s_star: complex | None = None
        self._fricke_checked = False
        self._weights: dict[tuple[int, bool], list] = {}  # (terms, over_n) -> w_n

    # -- q-series ------------------------------------------------------------

    def _q_sum(self, z: complex, tol: float, over_n: bool = True) -> complex:
        """sum w_n e^{2 pi i n z} with certified tail <= tol, where w_n is
        a_n / n (the S-sum) if over_n, else a_n (f(z) itself)."""
        m = self._terms_needed(z.imag, tol, weight_extra=0 if over_n else 1)
        weights = self._weights.get((m, over_n))
        if weights is None:
            weights = a_list(self.f, m)
            if over_n:
                weights = [a / n for n, a in enumerate(weights, 1)]
            self._weights[m, over_n] = weights
        q = cmath.exp(2j * math.pi * z)
        acc = 0j
        qn = 1.0 + 0j
        for w in weights:
            qn *= q
            acc += w * qn
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

    def _verify_fricke(self):
        if self._fricke_checked:
            return
        n = self.N
        z = complex(0.17, 1.31 / math.sqrt(n))
        wz = -1.0 / (n * z)
        fz = self._q_sum(z, 1e-9, over_n=False)
        fwz = self._q_sum(wz, 1e-9, over_n=False)
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
                self._s_star = self._q_sum(complex(0.0, self._star_height), tol / 4)
                self._s_star_tol = tol / 4
            return w * self._q_sum(wz, tol / 4) - (w - 1) * self._s_star
        return self._q_sum(z, tol)

    # -- gamma loops ----------------------------------------------------------

    def _gamma_period(self, loop: tuple[int, int, int, int], tol: float) -> complex:
        a, b, mod, d = loop
        y = 1.0
        z0 = complex(-d / mod, y / mod)
        gz0 = complex(a / mod, 1.0 / (y * mod))
        return self._s_value(gz0, tol / 2) - self._s_value(z0, tol / 2)

    def periods_of_combos(self, combos, tol: float):
        """Periods of combinations of gamma loops, each given as
        (2 * sum |q|, [(loop, q)]) with float q (period_combos), certified to
        tol each."""
        check_tolerance(tol)
        out = []
        for weight, terms in combos:
            acc = 0j
            for loop, q in terms:
                acc += q * self._gamma_period(loop, tol / weight)
            out.append(acc)
        return out


def newform_period_lattice(space: ModSymSpace, f: RationalNewform,
                           tol: float) -> PeriodLattice:
    """Lattice of integrals of 2*pi*i*f over L / (L cap V_f-perp)."""
    combos = space.newform_data(f, period_combos)
    w1, w2 = NewformPeriods(space, f).periods_of_combos(combos, tol)
    if (w1.conjugate() * w2).imag == 0:
        raise InconsistencyError("degenerate newform period lattice")
    if (w1.conjugate() * w2).imag < 0:
        w2 = -w2
    return _canonicalize(w1, w2, tol)


def period_combos(space: ModSymSpace, f: RationalNewform):
    """f's periods phi(e1), phi(e2) as combinations of two gamma loops, built
    once per newform by the space (ModSymSpace.newform_data).

    The period map of f kills f's Hecke complement, so it factors as phi . K
    through f's homology annihilator K, which maps the cuspidal lattice onto
    Z^2; the lattice is then Z phi(e1) + Z phi(e2).  The first loop whose
    class K maps to k1 != 0 and the first later one whose k2 is independent
    of k1 give (phi(e1), phi(e2)) = (P1, P2) [k1 k2]^-1 from their periods."""
    quot = space.newform_data(f, homology_annihilator)
    classes = ((loop, quot.matvec(space.to_cuspidal_coords(
        space.path_class((0, 1), (loop[1], loop[3]))))) for loop in gamma_loops(space.level))
    l1, (a, c) = next((loop, k) for loop, k in classes if any(k))
    l2, (b, d) = next((loop, k) for loop, k in classes if a * k[1] - c * k[0])
    det = a * d - b * c
    rows = ([(l1, d / det), (l2, -c / det)], [(l1, -b / det), (l2, a / det)])
    return [(2.0 * sum(abs(q) for _, q in terms), [(l, q) for l, q in terms if q])
            for terms in rows]


def _canonicalize(w1: complex, w2: complex, tol: float) -> PeriodLattice:
    """Canonical basis (least positive real period, minimal-height partner)
    of a lattice stable under complex conjugation."""
    u, v = _gauss_reduce(w1, w2)
    scale = max(abs(u), abs(v))
    # real-axis band; wider than at tol 1e-8, it takes non-real periods as real
    band = min(1e7 * tol, 0.1) * scale
    best_re = best_im = None
    rng = range(-4, 5)
    for mm in rng:
        for nn in rng:
            z = mm * u + nn * v
            if abs(z) < 1e-13 * scale:
                continue
            if abs(z.imag) < band and z.real > 0:
                if best_re is None or z.real < best_re.real - 1e-12 * scale:
                    best_re = z
    if best_re is None:
        raise InconsistencyError("no real period found: lattice not conjugation-stable")
    for mm in rng:
        for nn in rng:
            z = mm * u + nn * v
            if z.imag > band:
                # normalize the real part into [0, omega1)
                k = math.floor(z.real / best_re.real + 1e-9)
                z = z - k * best_re
                if best_im is None or z.imag < best_im.imag - 1e-12 * scale:
                    best_im = z
    require(best_im is not None, "no period off the real axis: lattice is degenerate")
    ratio = best_im.real / best_re.real
    kind = "rectangular" if ratio < 0.25 else "non-rectangular"
    return PeriodLattice(best_re, best_im, kind, tol)


def basis_ratio_spread(lat_e: PeriodLattice, lat_f: PeriodLattice) -> tuple[float, float]:
    """(c, spread): c = omega1_f / omega1_E, and how far the two basis ratios
    lie from c.  Both lattices are canonical, so c maps omega1 to omega1 and
    omega2 to omega2 modulo omega1 (rounding may put Re omega2 at either end
    of [0, omega1))."""
    c = lat_f.omega1.real / lat_e.omega1.real
    k = round((lat_f.omega2 - c * lat_e.omega2).real / lat_f.omega1.real)
    c1, c2 = lat_f.omega1 / lat_e.omega1, (lat_f.omega2 - k * lat_f.omega1) / lat_e.omega2
    return c, max(abs(c1 - c), abs(c2 - c))


def manin_constant_numeric(lat_e: PeriodLattice, lat_f: PeriodLattice,
                           tol: float):
    """|c| with Lambda_f = c * Lambda_E, asserted to be a nonzero integer.
    The basis ratios may spread by 1e3 times the lattices' precision, floored
    at double precision's 1e-13 (the spread at 170.a2 at every tol <= 1e-12)."""
    check_tolerance(tol)
    c, spread = basis_ratio_spread(lat_e, lat_f)
    if spread > 1e3 * max(lat_e.precision, lat_f.precision, 1e-13) * max(1.0, c):
        raise InconsistencyError(
            f"lattices are not homothetic: basis ratios spread {spread:.3g} about {c}"
        )
    nearest = round(c)
    resid = abs(c - nearest)
    if nearest == 0 or resid >= max(tol, 1e4 * lat_f.precision):
        raise InconsistencyError(
            f"period ratio {c} is not within {tol} of a nonzero integer"
        )
    return abs(nearest), resid
