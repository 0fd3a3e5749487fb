import pytest
from fractions import Fraction

from manincert.elliptic import (
    BadReductionError,
    MatchingError,
    SingularCurveError,
    WeierstrassModel,
    ap_via_counting,
    count_points,
    match_curve_to_newform,
    minimal_model,
    minimal_model_from_ainvs,
    two_torsion_rank,
)
from manincert import elliptic
from manincert.heckeforms import RationalNewform
from manincert.intlattice import InvariantError
from manincert.lmfdb import fixture_entries
from manincert.modsym import build_space, primes_up_to

E11 = (0, -1, 1, -10, -20)
E37 = (0, 0, 1, -1, 0)


def test_minimal_model_11a1_fixed_point():
    m = minimal_model_from_ainvs(E11)
    assert m.ainvs == E11
    assert m.delta_min == -(11 ** 5)
    assert m.c4 ** 3 - m.c6 ** 2 == 1728 * m.delta_min


def test_minimal_model_idempotent():
    for ainvs in (E11, E37, (1, 0, 1, 4, -6), (1, 1, 1, -10, -10)):
        m = minimal_model_from_ainvs(ainvs)
        again = minimal_model(m.as_weierstrass())
        assert again == m


def test_minimal_model_undoes_scaling():
    # u = 2 scaling of 11a1: a_i -> u^i a_i
    scaled = (0, -4, 8, -160, -1280)
    assert minimal_model_from_ainvs(scaled).ainvs == E11


def test_minimal_model_rational_input():
    w = WeierstrassModel.from_ainvs((0, 0, 0, Fraction(-1, 16), 0))
    m = minimal_model(w)  # u = 1/2 descaling of y^2 = x^3 - x
    assert m.ainvs == (0, 0, 0, -1, 0)


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        minimal_model(WeierstrassModel.from_ainvs((0, 0, 0, 0, 0)))


def test_two_torsion_ranks():
    assert two_torsion_rank(minimal_model_from_ainvs((0, 0, 0, -1, 0))) == 2
    assert two_torsion_rank(minimal_model_from_ainvs(E11)) == 0
    # 15a1 has torsion Z/2 x Z/4: the division cubic splits completely
    assert two_torsion_rank(minimal_model_from_ainvs((1, 1, 1, -10, -10))) == 2
    assert two_torsion_rank(minimal_model_from_ainvs((1, 0, 1, 4, -6))) == 1


def test_point_counts_and_ap():
    m11 = minimal_model_from_ainvs(E11)
    assert count_points(m11, 2) == 5
    assert ap_via_counting(m11, 2) == -2
    assert ap_via_counting(m11, 3) == -1
    m37 = minimal_model_from_ainvs(E37)
    assert ap_via_counting(m37, 2) == -2
    for p in (5, 7, 13, 101):
        ap = ap_via_counting(m37, p)
        assert ap * ap <= 4 * p


def _brute_force_count(m, p):
    """#E(F_p): the point at infinity plus every (x, y) in F_p^2 on the model."""
    a1, a2, a3, a4, a6 = m.ainvs
    count = 1
    for x in range(p):
        rhs = x * x * x + a2 * x * x + a4 * x + a6
        count += sum(1 for y in range(p) if (y * y + a1 * x * y + a3 * y - rhs) % p == 0)
    return count


def _euler_criterion_count(m, p):
    """#E(F_p) from the character sum, chi(v) by Euler's criterion."""
    b2, b4, b6, _ = m.b_invariants()
    count = 1
    for x in range(p):
        v = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        count += 1 if v == 0 else 1 + (1 if pow(v, (p - 1) // 2, p) == 1 else -1)
    return count


def test_point_counts_match_brute_force_on_snapshot():
    """Every snapshot curve, every good prime 5 <= p <= 47."""
    small = [p for p in primes_up_to(47) if p >= 5]
    for label, e in fixture_entries().items():
        m = minimal_model_from_ainvs(e.ainvs)
        for p in small:
            if m.delta_min % p:
                assert count_points(m, p) == _brute_force_count(m, p), (label, p)


def test_point_counts_match_euler_criterion():
    labels = ("11.a2", "37.a1", "54.b1", "66.c1", "130.a2", "198.d4", "530.a1")
    entries = fixture_entries()
    for label in labels:
        m = minimal_model_from_ainvs(entries[label].ainvs)
        for p in primes_up_to(401):
            if p >= 5 and m.delta_min % p:
                assert count_points(m, p) == _euler_criterion_count(m, p), (label, p)


def test_hasse_bound_is_a_typed_check(monkeypatch):
    m = minimal_model_from_ainvs(E11)
    monkeypatch.setattr(elliptic, "count_points", lambda m, p: 2 * p + 6)
    with pytest.raises(InvariantError, match="Hasse"):
        ap_via_counting(m, 7)


def test_newform_hasse_bound_is_a_typed_check():
    f = build_space(11).rational_eigenspaces()[0]
    with pytest.raises(InvariantError, match="Hasse"):
        RationalNewform(level=11, ap={2: 3}, eigenspace=f.eigenspace, sign_w=f.sign_w)
    with pytest.raises(InvariantError):
        RationalNewform(level=11, ap={11: 0}, eigenspace=f.eigenspace, sign_w=f.sign_w)


def test_ap_bad_reduction_rejected():
    with pytest.raises(BadReductionError):
        ap_via_counting(minimal_model_from_ainvs(E11), 11)


def test_matching():
    m = minimal_model_from_ainvs(E37)
    forms = build_space(37).rational_eigenspaces()
    f = match_curve_to_newform(m, 37, forms)
    assert f.ap[2] == -2
    with pytest.raises(MatchingError):
        match_curve_to_newform(m, 37, [forms[1]])  # wrong candidate only
    with pytest.raises(MatchingError):
        # candidates of the wrong level violate the precondition
        match_curve_to_newform(m, 37, build_space(11).rational_eigenspaces())


def test_c_invariants_transformation_law():
    # c4, c6 are u-covariant: scaling by u = 3 multiplies them by 3^4, 3^6
    w = WeierstrassModel.from_ainvs(E11)
    c4, c6 = w.c_invariants()
    scaled = WeierstrassModel.from_ainvs(
        tuple(a * 3 ** i for a, i in zip(E11, (1, 2, 3, 4, 6))))
    sc4, sc6 = scaled.c_invariants()
    assert (sc4, sc6) == (c4 * 3 ** 4, c6 * 3 ** 6)
