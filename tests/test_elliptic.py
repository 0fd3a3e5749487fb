import pytest
from fractions import Fraction

from manincert.elliptic import (
    BadReductionError,
    MatchingError,
    ModelSizeError,
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
from manincert.arith import primes_up_to
from manincert.modsym import build_space

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


@pytest.mark.parametrize("label", ("11.a2", "27.a1", "37.a1", "198.d4", "530.a1"))
def test_minimal_model_undoes_rational_scaling(label):
    """a_i -> u^i a_i for rational u, integral or not, gives back the
    snapshot model: the scaling that clears the c-invariant denominators
    takes the ceiling of v_p / 4 and v_p / 6."""
    ainvs = fixture_entries()[label].ainvs
    for u in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(2, 5),
              Fraction(3, 7), Fraction(5)):
        scaled = [a * u**i for a, i in zip(ainvs, (1, 2, 3, 4, 6))]
        assert minimal_model_from_ainvs(scaled).ainvs == ainvs, (label, u)


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        minimal_model(WeierstrassModel.from_ainvs((0, 0, 0, 0, 0)))


def test_oversize_model_refused_before_the_sieve(monkeypatch):
    """c4 of about 10^401 would ask for primes up to about 10^100: refused
    before any sieve is sized, for c4 and for c6."""
    def no_sieve(n):
        raise AssertionError(f"sieve sized at {n}")

    monkeypatch.setattr(elliptic, "primes_up_to", no_sieve)
    for ainvs in ((0, 0, 0, 10**400, 0), (0, 0, 0, 0, 10**400)):
        with pytest.raises(ModelSizeError):
            minimal_model_from_ainvs(ainvs)


def test_two_torsion_ranks():
    assert two_torsion_rank(minimal_model_from_ainvs((0, 0, 0, -1, 0))) == 2
    assert two_torsion_rank(minimal_model_from_ainvs(E11)) == 0
    # 15a1 has torsion Z/2 x Z/4: the division cubic splits completely
    assert two_torsion_rank(minimal_model_from_ainvs((1, 1, 1, -10, -10))) == 2
    assert two_torsion_rank(minimal_model_from_ainvs((1, 0, 1, 4, -6))) == 1


def test_cubic_rational_roots_match_fraction_evaluation():
    """Seeded random cubics (t x - s) * (a x^2 + b x + c) with a planted root
    s/t: the integer root test finds exactly the candidates s/t that vanish
    in Fraction arithmetic, the planted one among them."""
    import random

    from manincert.arith import divisors

    rng = random.Random(20240607)
    for _ in range(300):
        t = rng.randint(1, 12)
        s = rng.choice([-1, 1]) * rng.randint(1, 30)
        a = rng.choice([-1, 1]) * rng.randint(1, 8)
        b, c = rng.randint(-40, 40), rng.choice([-1, 1]) * rng.randint(1, 40)
        coeffs = (t * a, t * b - s * a, t * c - s * b, -s * c)
        c3, c2, c1, c0 = coeffs
        expected = sorted({x for n in divisors(abs(c0)) for d in divisors(abs(c3))
                           for x in (Fraction(n, d), Fraction(-n, d))
                           if ((c3 * x + c2) * x + c1) * x + c0 == 0})
        roots = elliptic._rational_roots_of_integer_cubic(coeffs)
        assert roots == expected, coeffs
        assert Fraction(s, t) in roots


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


def _scaling_branch(m, p):
    """The class count_points reduces A = -27 c4 to mod p: 0, a square
    (a = 1) or a non-square (a = n)."""
    big_a = -27 * m.c4 % p
    if big_a == 0:
        return "zero"
    return "square" if pow(big_a, (p - 1) // 2, p) == 1 else "non-square"


def test_point_counts_match_euler_criterion():
    """Every good prime 5 <= p <= 401 on curves with c4 = 0 (27.a1, 36.a1:
    A = 0) and c6 = 0 (32.a1, 64.a1: B = 0) among them, and 198.d4 up to
    the cutoff of its numeric q-series (p <= 2600).  Each branch of the
    reduction of A is reached at primes of both classes mod 4."""
    labels = ("11.a2", "27.a1", "32.a1", "36.a1", "37.a1", "54.b1", "64.a1",
              "66.c1", "130.a2", "198.d4", "530.a1")
    entries = fixture_entries()
    branches, b_zero = set(), set()
    for label in labels:
        m = minimal_model_from_ainvs(entries[label].ainvs)
        bound = 2600 if label == "198.d4" else 401
        for p in primes_up_to(bound):
            if p >= 5 and m.delta_min % p:
                assert count_points(m, p) == _euler_criterion_count(m, p), (label, p)
                branches.add((_scaling_branch(m, p), p % 4))
                if m.c6 % p == 0:
                    b_zero.add(p % 4)
    assert branches == {(b, r) for b in ("zero", "square", "non-square") for r in (1, 3)}
    assert b_zero == {1, 3}


def test_point_count_tables_are_keyed_by_the_prime_alone():
    """Counting two curves at one prime adds one table, built from p alone:
    equal to a fresh build, with planes only for a in {0, 1, n}."""
    elliptic._prime_tables.cache_clear()
    for ainvs in (E11, E37, (0, 0, 0, 0, 1)):
        count_points(minimal_model_from_ainvs(ainvs), 101)
    info = elliptic._prime_tables.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    t, fresh = elliptic._prime_tables(101), elliptic._PrimeTables(101)
    assert (t.root, t.square2, t.nonsquare2, t.n) == \
        (fresh.root, fresh.square2, fresh.nonsquare2, 2)
    assert set(t._planes) <= {0, 1, t.n}
    assert all(t._planes[a] == fresh.planes(a) for a in t._planes)


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
