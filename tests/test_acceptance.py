"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (run with `pytest -s tests/test_acceptance.py` to see the lines)."""

import random
import time
from contextlib import contextmanager

from manincert.certify import CERTIFIED_ZERO, MANIN_HOLDS, census, certify_manin, certify_stevens
from manincert.elliptic import (
    ap_via_counting,
    curve_ap_provider,
    match_curve_to_newform,
    two_torsion_rank,
)
from manincert.heckeforms import congruence_number, sturm_bound
from manincert.intlattice import (
    IntMatrix,
    det,
    hnf,
    lattice_from_rows,
    lattice_intersect,
    lattice_sum,
    quotient_order,
    snf,
    standard_lattice,
)
from manincert.invariants import degree_congruence_gap, modular_degree
from manincert.lmfdb import coverage_check, fixture_entries, fixture_manifest, record_from_entry
from manincert.arith import factorize, primes_up_to
from manincert.modsym import build_space, genus_x0
from manincert.periods import (
    elliptic_period_lattice,
    manin_constant_numeric,
    newform_period_lattice,
)


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({text}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({text}): PASS")


def optimal_records(max_conductor):
    out = []
    for e in fixture_entries().values():
        if e.optimality_flag and e.conductor <= max_conductor:
            out.append(record_from_entry(e))
    out.sort(key=lambda r: (r.conductor, r.label))
    return out


def test_criterion_1_census_reproduction():
    with criterion(1, "census at conductor 200"):
        t0 = time.time()
        coverage_check(200)
        records = optimal_records(200)
        report = census(200, records,
                        provenance=fixture_manifest()["optimality_convention"])
        assert len(report.selected) == 62, len(report.selected)
        assert "30.a8" in report.selected and "34.a4" in report.selected
        assert len(report.settled_mm1) == 47, len(report.settled_mm1)
        assert len(report.remaining_after_mm1) == 15
        assert "58.a1" in report.remaining_after_mm1
        assert len(report.settled_mm15) == 10
        assert set(report.remaining_after_mm15) == {
            "130.a2", "130.b4", "130.c1", "170.a2", "170.b1"}
        assert all(report.two_torsion_nonzero[lab]
                   for lab in report.remaining_after_mm15)
        assert time.time() - t0 < 60.0


def test_criterion_2_530a1_certificate():
    with criterion(2, "530.a1 certified by MM2"):
        rec = record_from_entry(fixture_entries()["530.a1"])
        cert = certify_manin(rec, {"two_torsion_rank": two_torsion_rank(rec.model)})
        assert cert.conclusion == MANIN_HOLDS
        two = next(pc for pc in cert.per_prime if pc.p == 2)
        assert two.rule == "MM2" and two.status == CERTIFIED_ZERO
        crits = {c.rule: c for c in cert.criteria}
        for rule in ("MK2", "MK3", "MK4", "MM1", "MM15"):
            assert crits[rule].applicable is False, rule


def test_criterion_3_stevens_blanket():
    with criterion(3, "Stevens blanket on squarefree conductors <= 200"):
        by_conductor = {}
        for rec in optimal_records(200):
            by_conductor.setdefault(rec.conductor, []).append(rec)
        checked = 0
        for n, recs in sorted(by_conductor.items()):
            if any(e > 1 for e in factorize(n).values()):
                continue
            cert = certify_stevens(n, recs)
            assert all(pc.status == CERTIFIED_ZERO for pc in cert.per_prime), n
            checked += 1
        assert checked > 50


def test_criterion_4_numeric_manin_constants():
    with criterion(4, "|c_num - 1| < 1e-6 for every optimal snapshot curve "
                      "(conductor <= 200 and 530)"):
        t0 = time.time()
        count = 0
        for rec in optimal_records(530):
            space = build_space(rec.conductor)
            f = match_curve_to_newform(rec.model, rec.conductor,
                                       space.rational_eigenspaces())
            f._ap_provider = curve_ap_provider(rec.model)
            lat_e = elliptic_period_lattice(rec.model, 1e-8)
            lat_f = newform_period_lattice(space, f, 1e-8)
            c, resid = manin_constant_numeric(lat_e, lat_f, 1e-6)
            assert c == 1 and resid < 1e-6, (rec.label, c, resid)
            count += 1
        assert count == 285
        assert time.time() - t0 < 600.0


def test_criterion_5_degree_oracle():
    with criterion(5, "degree oracle and perfect-square index, every optimal "
                      "snapshot curve (conductor <= 200 and 530)"):
        for rec in optimal_records(530):
            space = build_space(rec.conductor)
            f = match_curve_to_newform(rec.model, rec.conductor,
                                       space.rational_eigenspaces())
            d = modular_degree(space, f)
            assert d.index_used == d.degree ** 2, rec.label
            assert d.degree == rec.degree, (rec.label, d.degree, rec.degree)


def test_criterion_6_divisibility_suite():
    with criterion(6, "deg | r_f for every rational newform, levels 1..100 "
                      "and every snapshot conductor (530 included); gap never "
                      "negative and zero at odd levels"):
        levels = set(range(1, 101)) | {e.conductor for e in fixture_entries().values()}
        for n in sorted(levels):
            space = build_space(n)
            for f in space.rational_eigenspaces():
                d = modular_degree(space, f)
                r = congruence_number(n, f)
                gap = degree_congruence_gap(d, r)  # raises unless deg | r_f
                assert gap.gap_ord2 >= 0
                if n % 2 == 1:
                    assert gap.gap_ord2 == 0, (n, d.degree, r)


def test_criterion_7_modular_symbols_properties():
    with criterion(7, "Hecke commutativity, involutivity, point-count "
                      "agreement, genus dimensions"):
        # exact commutation of T_p, T_p' for p, p' <= 13, N <= 60
        for n in range(1, 61):
            space = build_space(n)
            mats = [space.hecke_on_cuspidal(p) for p in (2, 3, 5, 7, 11, 13)]
            for i, a in enumerate(mats):
                for b in mats[i + 1:]:
                    assert a * b == b * a, n
        # Atkin-Lehner involutivity (asserted at construction; exercise it)
        for n in (11, 14, 15, 26, 54, 56):
            space = build_space(n)
            for p, e in factorize(n).items():
                w = space.atkin_lehner(p ** e)
                assert w * w == IntMatrix.identity(w.rows)
        # Eichler-Shimura agreement at all good p <= Sturm bound for every
        # optimal snapshot curve: N <= 200 and the four curves of level 530
        for rec in optimal_records(530):
            space = build_space(rec.conductor)
            f = match_curve_to_newform(rec.model, rec.conductor,
                                       space.rational_eigenspaces())
            for p in primes_up_to(sturm_bound(rec.conductor)):
                if rec.model.delta_min % p:
                    assert f.prime_eigenvalue(p) == \
                        ap_via_counting(rec.model, p), (rec.label, p)
        # genus-dimension agreement for N <= 200
        for n in range(1, 201):
            space = build_space(n)
            assert space.cuspidal_basis.rows == 2 * genus_x0(n), n


def _rand_mat(rng, rows, cols, bound=8):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _rand_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-3, 3)
            for k in range(n):
                u[i][k] += q * u[j][k]
    return IntMatrix.from_rows(u)


def test_criterion_8_lattice_property_suites():
    with criterion(8, "lattice core: 1000 randomized instances per property"):
        rng = random.Random(20260809)
        for _ in range(1000):
            a = _rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            h = hnf(a)
            assert hnf(h) == h
        for _ in range(1000):
            a = _rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            d, u, v = snf(a)
            assert u * a * v == d
            assert abs(det(u)) == 1 and abs(det(v)) == 1
        done = 0
        while done < 1000:
            n = rng.randint(1, 4)
            sub = lattice_from_rows(
                n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if sub.rank < n:
                continue
            order = quotient_order(standard_lattice(n), sub)
            rebased = lattice_from_rows(
                n, (_rand_unimodular(rng, n) * sub.basis).entries)
            assert quotient_order(standard_lattice(n), rebased) == order
            done += 1
        done = 0
        while done < 1000:
            n = rng.randint(2, 4)
            a = lattice_from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = lattice_from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if a.rank < n or b.rank < n:
                continue
            s = lattice_sum(a, b)
            i = lattice_intersect(a, b)
            assert quotient_order(s, b) == quotient_order(a, i)
            done += 1
