import dataclasses
import math

import pytest

from manincert import heckeforms, modsym
from manincert.elliptic import curve_ap_provider, minimal_model_from_ainvs
from manincert.intlattice import IntMatrix, RowSolver, solve_in_rowspace
from manincert.modsym import build_space
from manincert.periods import (
    ConvergenceError,
    InconsistencyError,
    NewformPeriods,
    PeriodLattice,
    ToleranceError,
    elliptic_period_lattice,
    lattice_c4c6,
    manin_constant_numeric,
    newform_period_lattice,
    period_combos,
)
from manincert import periods

E11 = (0, -1, 1, -10, -20)


def reference_periods(s, f, rows, tol):
    """Periods of cuspidal-coordinate rows by the general-row route: each row
    as a rational combination of the classes of the first 2g + 6,
    2g + 6 + max(8, g), ... gamma loops, one RowSolver per width."""
    loops, taken, classes = modsym.gamma_loops(s.level), [], []
    want = 2 * s.genus + 6
    while True:
        while len(taken) < want:
            taken.append(next(loops))
            classes.append(s.to_cuspidal_coords(s.path_class((0, 1), (taken[-1][1], taken[-1][3]))))
        solver = RowSolver(IntMatrix.from_rows(classes))
        combos = [solver.solve(row, integral=False) for row in rows]
        if None not in combos:
            break
        want += max(8, s.genus)
    combos = [(float(2 * (sum(map(abs, c)) or 1)),
               [(loop, float(q)) for loop, q in zip(taken, c) if q]) for c in combos]
    return NewformPeriods(s, f).periods_of_combos(combos, tol)


def annihilator_lifts(s, f):
    """Cuspidal rows that f's homology annihilator maps onto e1 and e2."""
    quot = s.newform_data(f, heckeforms.homology_annihilator)
    return solve_in_rowspace(quot.transpose(), IntMatrix.identity(2), integral=True).tolists()


def matched_newform(n, ainvs):
    from manincert.elliptic import match_curve_to_newform

    m = minimal_model_from_ainvs(ainvs)
    s = build_space(n)
    f = match_curve_to_newform(m, n, s.rational_eigenspaces())
    return s, dataclasses.replace(f, _ap_provider=curve_ap_provider(m)), m


def test_agm_real_period_11a1():
    lat = elliptic_period_lattice(minimal_model_from_ainvs(E11), 1e-10)
    assert abs(lat.omega1.real - 1.2692093042795534) < 1e-9
    assert lat.kind == "non-rectangular"


def test_agm_rectangular_37a1():
    lat = elliptic_period_lattice(minimal_model_from_ainvs((0, 0, 1, -1, 0)), 1e-10)
    assert lat.kind == "rectangular"
    assert abs(lat.omega1.real - 2.993458646231959) < 1e-9
    assert abs(lat.omega2.real) < 1e-12


def test_agm_lemniscatic():
    lat = elliptic_period_lattice(minimal_model_from_ainvs((0, 0, 0, -1, 0)), 1e-10)
    assert abs(lat.omega2 / lat.omega1 - 1j) < 1e-10


def test_agm_eisenstein_roundtrip():
    for ainvs in (E11, (0, 0, 1, -1, 0), (1, 1, 1, -10, -10), (1, 0, 1, 4, -6)):
        m = minimal_model_from_ainvs(ainvs)
        lat = elliptic_period_lattice(m, 1e-10)
        c4, c6 = lattice_c4c6(lat.omega1, lat.omega2)
        assert abs(c4 - m.c4) < 1e-6 * max(1, abs(m.c4))
        assert abs(c6 - m.c6) < 1e-6 * max(1, abs(m.c6))


@pytest.mark.parametrize("ainvs", [E11, (0, 0, 1, -1, 0), (0, 0, 0, -1, 0)])
def test_elliptic_lattice_is_built_canonical(ainvs):
    """At 11.a2, 37.a1 and y^2 = x^3 - x the AGM basis already is the
    canonical one (PeriodLattice): canonicalizing it again
    gives the same omega1, bit for bit, the same kind and, to rounding, the
    same omega2."""
    lat = elliptic_period_lattice(minimal_model_from_ainvs(ainvs), 1e-10)
    again = periods._canonicalize(lat.omega1, lat.omega2, lat.precision)
    assert (again.omega1, again.kind) == (lat.omega1, lat.kind)
    assert abs(again.omega2 - lat.omega2) < 1e-12 * abs(lat.omega2)


@pytest.mark.parametrize("n, ainvs", [(11, E11), (37, (0, 0, 1, -1, 0))])
def test_rebased_lattice_is_refused(n, ainvs):
    """manin_constant_numeric takes both lattices in their canonical bases; a
    lattice handed over in the basis (omega1 + omega2, omega2) is refused,
    on either side, rather than read into a wrong |c|.  Moving the newform's
    omega2 by omega1, as rounding can at either end of [0, omega1), keeps
    the lattice and the answer."""
    s, f, m = matched_newform(n, ainvs)
    lat_e = elliptic_period_lattice(m, 1e-10)
    lat_f = newform_period_lattice(s, f, 1e-9)
    assert manin_constant_numeric(lat_e, lat_f, 1e-6)[0] == 1
    for shift in (lat_f.omega1, -lat_f.omega1):
        moved = dataclasses.replace(lat_f, omega2=lat_f.omega2 + shift)
        assert manin_constant_numeric(lat_e, moved, 1e-6)[0] == 1
    re_e, re_f = (dataclasses.replace(lat, omega1=lat.omega1 + lat.omega2)
                  for lat in (lat_e, lat_f))
    for pair in ((re_e, lat_f), (lat_e, re_f)):
        with pytest.raises(InconsistencyError, match="not homothetic"):
            manin_constant_numeric(*pair, 1e-6)


@pytest.mark.parametrize("label", ["11.a2", "37.a1", "116.a1"])
def test_homothety_bound_follows_the_lattice_precision(label):
    """At tol 1e-8 (compared at numeric's floor 1e-6) a newform lattice with
    omega2 scaled by 1 + 1e-4 is refused: the basis ratios may spread by 1e3
    times the lattices' precision, which the AGM lattice now meets."""
    from manincert.elliptic import match_curve_to_newform
    from manincert.lmfdb import Catalog, record_from_entry

    rec = record_from_entry(Catalog().fetch_curve(label))
    s = build_space(rec.conductor)
    f = dataclasses.replace(match_curve_to_newform(rec.model, rec.conductor,
                                                   s.rational_eigenspaces()),
                            _ap_provider=curve_ap_provider(rec.model))
    lat_e = elliptic_period_lattice(rec.model, 1e-8)
    lat_f = newform_period_lattice(s, f, 1e-8)
    assert manin_constant_numeric(lat_e, lat_f, 1e-6)[0] == 1
    scaled = dataclasses.replace(lat_f, omega2=lat_f.omega2 * (1 + 1e-4))
    with pytest.raises(InconsistencyError, match="not homothetic"):
        manin_constant_numeric(lat_e, scaled, 1e-6)


def test_numeric_canonicalizes_once_and_keeps_float_combos(monkeypatch):
    """One numeric query canonicalizes one lattice (the newform's; the AGM
    builds the elliptic one canonical), and the newform's gamma-class
    combinations are kept as floats, so a period query does no Fraction
    arithmetic."""
    from manincert.cli import main

    canonicalized = []
    orig_canonicalize = periods._canonicalize
    monkeypatch.setattr(periods, "_canonicalize",
                        lambda *args: canonicalized.append(args) or orig_canonicalize(*args))
    assert main(["numeric", "--label", "37.a1"]) == 0
    assert len(canonicalized) == 1
    assert not hasattr(periods, "Fraction")
    s, f, _ = matched_newform(37, (0, 0, 1, -1, 0))
    combos = s.newform_data(f, period_combos)
    assert all(type(x) is float for weight, terms in combos
               for x in [weight] + [q for _, q in terms])


def test_tolerance_errors():
    m = minimal_model_from_ainvs(E11)
    with pytest.raises(ToleranceError):
        elliptic_period_lattice(m, 0.0)
    s, f, _ = matched_newform(11, E11)
    with pytest.raises(ToleranceError):
        newform_period_lattice(s, f, -1.0)


def test_periods_of_rows_refuses_zero_tolerance():
    """A zero tolerance is refused, not replaced by another one."""
    s, f, _ = matched_newform(11, E11)
    with pytest.raises(ToleranceError):
        NewformPeriods(s, f).periods_of_combos(s.newform_data(f, period_combos), 0.0)


def test_newform_lattice_matches_neron_11():
    s, f, m = matched_newform(11, E11)
    lat_e = elliptic_period_lattice(m, 1e-10)
    lat_f = newform_period_lattice(s, f, 1e-9)
    c, resid = manin_constant_numeric(lat_e, lat_f, 1e-6)
    assert c == 1 and resid < 1e-6


def test_newform_lattice_matches_neron_37():
    s, f, m = matched_newform(37, (0, 0, 1, -1, 0))
    lat_e = elliptic_period_lattice(m, 1e-10)
    lat_f = newform_period_lattice(s, f, 1e-9)
    c, resid = manin_constant_numeric(lat_e, lat_f, 1e-6)
    assert c == 1 and resid < 1e-6


def test_doubling_terms_convergence_certificate():
    """Doubling the series length moves each period by less than tol."""
    s, f, _ = matched_newform(11, E11)
    base = reference_periods(s, f, [[1, 0], [0, 1]], 1e-9)
    finer = reference_periods(s, f, [[1, 0], [0, 1]], 1e-12)
    for x, y in zip(base, finer):
        assert abs(x - y) < 1e-9


def test_periods_invariant_under_rebasing():
    s, f, _ = matched_newform(11, E11)
    p1, p2 = reference_periods(s, f, [[1, 0], [0, 1]], 1e-10)
    q1, q2 = reference_periods(s, f, [[1, 1], [2, 1]], 1e-10)
    assert abs(q1 - (p1 + p2)) < 1e-9
    assert abs(q2 - (2 * p1 + p2)) < 1e-9


def test_period_combos_give_the_period_lifts_periods():
    """At every newform of 11, 37, 54, 99, 102 and 120, the two-loop
    phi(e1), phi(e2) of period_combos agree within 1e-9 relative with the
    general-row periods of the rows that the homology annihilator maps onto
    e1 and e2."""
    for n in (11, 37, 54, 99, 102, 120):
        s = build_space(n)
        for f in s.rational_eigenspaces():
            combos = s.newform_data(f, period_combos)
            two_loop = NewformPeriods(s, f).periods_of_combos(combos, 1e-11)
            reference = reference_periods(s, f, annihilator_lifts(s, f), 1e-11)
            for x, y in zip(two_loop, reference):
                assert abs(x - y) <= 1e-9 * abs(y)


def test_q_series_weights_built_once_per_prefix(monkeypatch):
    """One period computation reads a_list once for each series length and
    kind of weight (a_n or a_n / n) it sums, however many sums share it."""
    from manincert import periods

    s, f, _ = matched_newform(11, E11)
    lengths, sums = [], []
    orig, orig_sum = periods.a_list, NewformPeriods._q_sum
    monkeypatch.setattr(periods, "a_list", lambda g, m: lengths.append(m) or orig(g, m))
    monkeypatch.setattr(NewformPeriods, "_q_sum",
                        lambda *args, **kw: sums.append(args) or orig_sum(*args, **kw))
    calc = NewformPeriods(s, f)
    calc.periods_of_combos(s.newform_data(f, period_combos), 1e-8)
    assert len(lengths) == len(calc._weights) < len(sums)


def test_covolume_ratio_is_degree_squared():
    """Independent numeric oracle for the modular degree: the periods over
    the f-isotypic sublattice against those over the projected quotient have
    covolume ratio deg^2."""
    from manincert.invariants import modular_degree

    for n, ainvs in ((37, (0, 0, 1, -1, 0)), (26, (1, 0, 1, -5, -8))):
        s, f, m = matched_newform(n, ainvs)
        deg = modular_degree(s, f).degree
        lat_f = newform_period_lattice(s, f, 1e-10)
        w1, w2 = reference_periods(s, f, f.eigenspace.basis.tolists(), 1e-10)
        cov_sub = abs((w1.conjugate() * w2).imag)
        ratio = cov_sub / lat_f.covolume()
        assert abs(ratio - deg ** 2) < 1e-4 * deg ** 2


def test_nonminimal_scaled_curve_flagged():
    """A non-optimal member of the class is caught by the homothety check."""
    s, f, _ = matched_newform(15, (1, 1, 1, -10, -10))
    wrong = minimal_model_from_ainvs((1, 1, 1, 0, 0))  # same class, not optimal
    lat_e = elliptic_period_lattice(wrong, 1e-10)
    lat_f = newform_period_lattice(s, f, 1e-9)
    with pytest.raises(InconsistencyError):
        manin_constant_numeric(lat_e, lat_f, 1e-6)


def test_fricke_identity_verified_numerically():
    s, f, _ = matched_newform(11, E11)
    calc = NewformPeriods(s, f)
    calc._verify_fricke()  # 11a has eigenvalue -1; identity must hold
    assert calc.w_fricke == -1


def test_homology_complement_computed_once_per_newform(monkeypatch):
    """The space builds what the split fixes for a newform once: across two
    dataclasses.replace copies of each newform at 37 and two numeric queries
    there, the Hecke complement on the cuspidal lattice is computed once per
    newform, and so are its period combinations, which name at most two
    gamma loops; no RowSolver over gamma classes is built.  No Hecke
    complement on class coordinates is built, and a_101 of every copy comes
    from one T_101 family for the level.  No copy ever carries an a_p source
    the package set on it."""
    from manincert import intlattice, modsym, periods
    from manincert.cli import main
    from manincert.invariants import modular_degree

    monkeypatch.setattr(modsym, "_SPACES", {})
    s = build_space(37)
    calls, coord_calls, loop_bases, combos, families = [], [], [], [], []
    orig = heckeforms.hecke_complement_rows
    orig_family = modsym.heilbronn_cremona
    orig_combos = periods.period_combos
    orig_hnf = intlattice.hnf_with_transform

    def counting(*args):
        (calls if args[0] == s.hecke_on_cuspidal else coord_calls).append(args[1])
        return orig(*args)

    def counting_hnf(m):
        # a solver over gamma classes: 2g columns, at least 2g + 6 rows
        n2g = s.cuspidal_basis.rows
        loop_bases.extend([m] if m.cols == n2g and m.rows >= n2g + 6 else [])
        return orig_hnf(m)

    monkeypatch.setattr(heckeforms, "hecke_complement_rows", counting)
    monkeypatch.setattr(modsym, "heilbronn_cremona",
                        lambda p: families.append(p) or orig_family(p))
    monkeypatch.setattr(intlattice, "hnf_with_transform", counting_hnf)
    monkeypatch.setattr(periods, "period_combos",
                        lambda *args: combos.append(orig_combos(*args)) or combos[-1])
    forms = s.rational_eigenspaces()
    copies = [dataclasses.replace(g, ap=dict(g.ap), _an=dict(g._an))
              for _ in range(2) for g in forms]
    for f in copies:
        assert modular_degree(s, f).degree == 2
        newform_period_lattice(s, f, 1e-9)
        f.prime_eigenvalue(101)  # past the stored primes: the space's a_p table
    for label in ("37.a1", "37.b1"):
        assert main(["numeric", "--label", label]) == 0
    assert len(calls) == len(forms) == 2
    assert not coord_calls
    assert families.count(101) == 1
    assert len(combos) == len(forms)
    assert all(len({loop for _, terms in c for loop, _ in terms}) <= 2 for c in combos)
    assert not loop_bases
    assert all(f._ap_provider is None for f in copies + s.rational_eigenspaces())


def test_wrong_rank_complement_is_invariant_error(monkeypatch):
    """A Hecke complement short of one row leaves a rank-3 quotient, which
    the period lattice refuses with a typed error (on a fresh space, so no
    annihilator an earlier test built can hide it)."""
    from manincert import modsym
    from manincert.intlattice import IntMatrix, InvariantError

    monkeypatch.setattr(modsym, "_SPACES", {})
    s = build_space(37)
    f = s.rational_eigenspaces()[0]
    real = heckeforms.hecke_complement_rows(s.hecke_on_cuspidal, f,
                                            s.cuspidal_basis.rows - 2)
    short = IntMatrix.from_rows(real.entries[1:])
    monkeypatch.setattr(heckeforms, "hecke_complement_rows", lambda *args: short)
    with pytest.raises(InvariantError, match="quotient of rank 3"):
        newform_period_lattice(s, f, 1e-9)
