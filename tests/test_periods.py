import dataclasses
import math

import pytest

from manincert import heckeforms
from manincert.elliptic import curve_ap_provider, minimal_model_from_ainvs
from manincert.heckeforms import a_list
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
)

E11 = (0, -1, 1, -10, -20)


def matched_newform(n, ainvs):
    from manincert.elliptic import match_curve_to_newform

    m = minimal_model_from_ainvs(ainvs)
    s = build_space(n)
    f = match_curve_to_newform(m, n, s.rational_eigenspaces())
    f._ap_provider = curve_ap_provider(m)
    return s, f, m


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


def test_tolerance_errors():
    m = minimal_model_from_ainvs(E11)
    with pytest.raises(ToleranceError):
        elliptic_period_lattice(m, 0.0)
    s, f, _ = matched_newform(11, E11)
    with pytest.raises(ToleranceError):
        newform_period_lattice(s, f, -1.0)


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
    calc = NewformPeriods(s, f, 1e-9)
    rows = [list(r) for r in s.cuspidal_basis.entries][:1]
    base = calc.periods_of_rows([[1, 0], [0, 1]], 1e-9)
    finer = calc.periods_of_rows([[1, 0], [0, 1]], 1e-12)
    for x, y in zip(base, finer):
        assert abs(x - y) < 1e-9


def test_periods_invariant_under_rebasing():
    s, f, _ = matched_newform(11, E11)
    calc = NewformPeriods(s, f, 1e-10)
    p1, p2 = calc.periods_of_rows([[1, 0], [0, 1]], 1e-10)
    q1, q2 = calc.periods_of_rows([[1, 1], [2, 1]], 1e-10)
    assert abs(q1 - (p1 + p2)) < 1e-9
    assert abs(q2 - (2 * p1 + p2)) < 1e-9


def test_covolume_ratio_is_degree_squared():
    """Independent numeric oracle for the modular degree: the periods over
    the f-isotypic sublattice against those over the projected quotient have
    covolume ratio deg^2."""
    from manincert.invariants import modular_degree

    for n, ainvs in ((37, (0, 0, 1, -1, 0)), (26, (1, 0, 1, -5, -8))):
        s, f, m = matched_newform(n, ainvs)
        deg = modular_degree(s, f).degree
        lat_f = newform_period_lattice(s, f, 1e-10)
        calc = NewformPeriods(s, f, 1e-10)
        w1, w2 = calc.periods_of_rows(f.eigenspace.basis.tolists(), 1e-10)
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
    calc = NewformPeriods(s, f, 1e-9)
    calc._verify_fricke()  # 11a has eigenvalue -1; identity must hold
    assert calc.w_fricke == -1


def test_homology_complement_computed_once_per_newform(monkeypatch):
    """The degree and the period lattice of one newform share one Hecke
    complement; a dataclasses.replace copy computes its own."""
    calls = []
    orig = heckeforms.hecke_complement_rows

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(heckeforms, "hecke_complement_rows", counting)
    from manincert.invariants import modular_degree

    s = build_space(37)
    for g in s.rational_eigenspaces():
        calls.clear()
        f = dataclasses.replace(g, ap=dict(g.ap), _an=dict(g._an))
        assert modular_degree(s, f).degree == 2
        newform_period_lattice(s, f, 1e-9)
        assert len(calls) == 1
        copy = dataclasses.replace(f)
        assert copy._complement is None
        assert heckeforms.homology_complement(s, copy) == f._complement
        assert len(calls) == 2
