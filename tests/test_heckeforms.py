import dataclasses
import random

import pytest

from manincert import arith, heckeforms
from manincert.heckeforms import (
    PrecisionError,
    RationalNewform,
    a_list,
    congruence_number,
    hecke_algebra,
    sturm_bound,
)
from manincert.intlattice import (
    IntMatrix,
    hnf,
    lattice_from_rows,
    quotient_order,
    snf,
    solve_in_rowspace,
    stack,
    standard_lattice,
    subspace_integer_points,
)
from manincert.arith import factorize, primes_up_to
from manincert.modsym import build_space


def newform(n, i=0):
    return build_space(n).rational_eigenspaces()[i]


def curve_newform(label):
    """The newform of a snapshot curve, with the curve's point counts as its
    a_p source, as `manincert numeric` sets it up."""
    from manincert import lmfdb
    from manincert.elliptic import curve_ap_provider, match_curve_to_newform

    rec = lmfdb.record_from_entry(lmfdb.fixture_entries()[label])
    f = match_curve_to_newform(rec.model, rec.conductor,
                               build_space(rec.conductor).rational_eigenspaces())
    return dataclasses.replace(f, _ap_provider=curve_ap_provider(rec.model))


def reference_an(f, n, memo):
    """a_n by factorizing n: multiplicativity over the factors, and the Hecke
    recursion at each prime power (a_p^e when p | N)."""
    if n not in memo:
        out = 1
        for p, e in factorize(n).items():
            ap = f.prime_eigenvalue(p)
            prev, cur = 1, ap  # a_{p^0}, a_{p^1}
            for _ in range(e - 1):
                prev, cur = cur, ap * cur - (p * prev if f.level % p else 0)
            out *= cur
        memo[n] = out
    return memo[n]


def test_sturm_bound_values():
    assert sturm_bound(11) == 2
    assert sturm_bound(1) == 1
    assert sturm_bound(130) == 42


def test_a_list_examples():
    f = newform(11)
    an = a_list(f, 10)
    assert an[0] == 1
    assert an[3] == 2           # a2^2 - 2
    assert an[5] == 2           # a2 * a3
    assert an == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2]


def test_an_prime_power_recursion_bad_prime():
    f = newform(11)
    # 11 || 11: a_{11^r} = a_11^r
    an = a_list(f, 121)
    assert an[120] == an[10] ** 2


@pytest.mark.parametrize("label", ("11.a2", "37.a1", "54.a1", "130.a2", "198.d4"))
def test_a_list_matches_factorizing_recursion(label):
    """The sieve-order fill agrees with the recursion over factorizations up
    to n = 2000 (at 54, 3^3 divides the level)."""
    f = curve_newform(label)
    got = a_list(f, 2000)
    ref = dataclasses.replace(f, ap=dict(f.ap), _an={})
    memo = {}
    assert got == [reference_an(ref, n, memo) for n in range(1, 2001)]


def test_a_list_asks_each_prime_once_in_order(monkeypatch):
    """prime_eigenvalue runs once per prime, in increasing order, also when
    the fill resumes from a shorter prefix; and no index is factorized."""
    f = curve_newform("130.a2")
    asked = []
    eigenvalue = RationalNewform.prime_eigenvalue

    def recording(self, p):
        asked.append(p)
        return eigenvalue(self, p)

    def refuse(n):
        raise AssertionError(f"factorize({n}) inside a_list")

    monkeypatch.setattr(RationalNewform, "prime_eigenvalue", recording)
    for mod in (arith, heckeforms):
        monkeypatch.setattr(mod, "factorize", refuse, raising=False)
    a_list(f, 700)
    a_list(f, 1500)
    assert asked == primes_up_to(1500)


def test_a_list_keeps_a_prefix():
    """After calls of mixed lengths f._an holds exactly a_1..a_k, k the
    longest, and each call reads the same series."""
    f = newform(37)
    full = a_list(f, 300)
    f = newform(37)
    for b in (10, 3, 0, 250, 40, 300, 1):
        assert a_list(f, b) == full[:b]
        assert list(f._an) == list(range(1, len(f._an) + 1))
    assert len(f._an) == 300


def test_hasse_bound_on_extracted_ap():
    for n in (11, 26, 37):
        f = newform(n)
        for p in primes_up_to(60):
            if n % p:
                assert f.prime_eigenvalue(p) ** 2 <= 4 * p


def test_integral_basis_level_11():
    b = hecke_algebra(11).coefficient_basis(10)
    assert b.entries == ((1, -2, -1, 2, 1, 2, -2, 0, -2, -2),)


def test_integral_basis_level_1_empty():
    assert hecke_algebra(1).coefficient_basis(5).rows == 0


def test_precision_below_sturm_rejected():
    with pytest.raises(PrecisionError):
        hecke_algebra(11).coefficient_basis(1)


def test_basis_stable_under_precision_increase():
    for n in (11, 22, 26):
        b0 = sturm_bound(n)
        low = hecke_algebra(n).coefficient_basis(b0)
        high = hecke_algebra(n).coefficient_basis(b0 + 10)
        trunc = hnf(IntMatrix.from_rows([row[:b0] for row in high.entries]))
        assert trunc == low


def test_level_22_basis_is_old_from_11():
    """Both rows of S_2(22, Z) lie in the span of f(q), f(q^2) for the
    level-11 newform."""
    f11 = newform(11)
    b = 2 * sturm_bound(22) + 4
    basis22 = hecke_algebra(22).coefficient_basis(b)
    a11 = a_list(f11, b)
    emb1 = a11
    emb2 = [0] * b
    for i in range(1, b + 1):
        if i % 2 == 0:
            emb2[i - 1] = a11[i // 2 - 1]
    old = IntMatrix.from_rows([emb1, emb2])
    sol = solve_in_rowspace(old, basis22, integral=False)
    assert sol is not None


def test_hecke_stability_of_basis():
    """Applying T_m to each basis row stays in the row span (m <= 5)."""
    for n in (11, 26):
        alg = hecke_algebra(n)
        b0 = alg.sturm
        for m in (2, 3, 4, 5):
            big = hecke_algebra(n).coefficient_basis(m * b0)
            low = hecke_algebra(n).coefficient_basis(b0)
            for row in big.entries:
                def a(k):
                    return row[k - 1]

                import math

                img = []
                for k in range(1, b0 + 1):
                    v = a(m * k)
                    for d in range(2, m + 1):
                        if m % d == 0 and k % d == 0 and math.gcd(d, n) == 1:
                            v += d * a(m * k // (d * d))
                    img.append(v)
                assert solve_in_rowspace(
                    low, IntMatrix.from_rows([img]), integral=True) is not None


def test_hecke_on_dual_matches_q_expansions():
    """T_p read off the Hecke algebra equals T_p on q-expansions,
    a_n(T_p f) = a_{pn} + p a_{n/p} (second term only for p not dividing N
    and p | n), solved back against the Sturm-truncated basis; and r_f needs
    no coefficient past the Sturm bound."""
    for n in (33, 54, 57, 64, 66, 70):
        for f in build_space(n).rational_eigenspaces():
            congruence_number(n, f)
            assert max(f._an) <= sturm_bound(n)
        alg = hecke_algebra(n)
        assert alg.precision == sturm_bound(n)
        b0 = alg.sturm
        wide = hecke_algebra(n).coefficient_basis(7 * b0)
        low = IntMatrix.from_rows([row[:b0] for row in wide.entries])
        # the raw dual basis behind hecke_matrix_on_dual, in terms of `low`
        raw = IntMatrix.from_rows([row[:b0] for row in alg.basis_coeffs.entries])
        v = solve_in_rowspace(low, raw, integral=True)
        for p in (2, 3, 5, 7):
            img = []
            for row in wide.entries:
                img.append([row[p * k - 1] + (p * row[k // p - 1]
                                               if k % p == 0 and n % p else 0)
                            for k in range(1, b0 + 1)])
            t_low = solve_in_rowspace(low, IntMatrix.from_rows(img), integral=True)
            assert t_low is not None
            # T_p(raw) = v T_p(low) = v t_low low, and = dual^T raw = dual^T v low
            dual = alg.hecke_matrix_on_dual(p)
            assert v * t_low == dual.transpose() * v


@pytest.mark.parametrize("n", (54, 130))
def test_dual_hecke_and_coordinate_solver_built_once_per_level(n, monkeypatch):
    """Over every newform of the level, r_f builds T_p on the dual lattice
    once per prime, and the newform coordinates share one HNF of the dual
    basis."""
    from manincert import intlattice, modsym

    monkeypatch.setattr(modsym, "_SPACES", {})
    built, coeff_hnfs = [], []
    on_coords = modsym.ModSymSpace.hecke_on_coords
    with_transform = intlattice.hnf_with_transform

    def counted_on_coords(space, p):
        built.append(p)
        return on_coords(space, p)

    def counted_hnf(m):
        coeff_hnfs.extend([m] if m is alg.basis_coeffs else [])
        return with_transform(m)

    monkeypatch.setattr(modsym.ModSymSpace, "hecke_on_coords", counted_on_coords)
    forms = build_space(n).rational_eigenspaces()
    alg = hecke_algebra(n)
    assert len(forms) >= 2
    built.clear()  # the split's own T_p
    monkeypatch.setattr(intlattice, "hnf_with_transform", counted_hnf)
    for f in forms:
        congruence_number(n, f)
        alg.newform_coordinates(f)
    assert built and sorted(built) == sorted(set(built))
    assert len(coeff_hnfs) == 1


def test_newform_vector_is_primitive():
    for n in (11, 26, 37, 54):
        alg = hecke_algebra(n)
        for f in build_space(n).rational_eigenspaces():
            x = alg.newform_coordinates(f)
            lat = lattice_from_rows(len(x), [x])
            d, _, _ = snf(lat.basis)
            assert d.entries[0][0] == 1


def test_congruence_numbers_frozen():
    assert congruence_number(11, newform(11)) == 1
    assert congruence_number(37, newform(37, 0)) == 2
    # at a genus-2 level the congruence module of the two newforms is the
    # same finite group
    assert congruence_number(26, newform(26, 0)) == \
        congruence_number(26, newform(26, 1)) == 2
    # the classical degree/congruence discrepancy at level 54
    assert congruence_number(54, newform(54, 0)) == 6
    assert congruence_number(54, newform(54, 1)) == 6


def test_congruence_number_basis_invariance():
    """r_f is defined by the lattice, not the chosen Z-basis: rebuild the
    coefficient lattice through random unimodular images and recompute the
    index from scratch."""
    rng = random.Random(7)
    n = 37
    f = newform(n)
    alg = hecke_algebra(n)
    g = alg.genus
    x = alg.newform_coordinates(f)
    from manincert.heckeforms import hecke_complement_rows
    from manincert.intlattice import lattice_sum, subspace_integer_points

    comp = hecke_complement_rows(alg.hecke_matrix_on_dual, f, g - 1)
    base = quotient_order(
        standard_lattice(g),
        lattice_sum(lattice_from_rows(g, [x]),
                    subspace_integer_points(g, comp.entries)))
    for _ in range(5):
        u = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
        for _ in range(6):
            i, j = rng.randrange(g), rng.randrange(g)
            if i != j:
                q = rng.randint(-2, 2)
                for k in range(g):
                    u[i][k] += q * u[j][k]
        um = IntMatrix.from_rows(u)
        x2 = um.matvec(x)
        comp2 = (comp * um.transpose()).entries
        got = quotient_order(
            standard_lattice(g),
            lattice_sum(lattice_from_rows(g, [x2]),
                        subspace_integer_points(g, comp2)))
        # index changes only by the determinant of the ambient rebase (=1)
        assert got == base


def test_degree_divides_congruence_number_sample():
    from manincert.invariants import modular_degree

    for n in (26, 37, 50, 54, 57):
        s = build_space(n)
        for f in s.rational_eigenspaces():
            deg = modular_degree(s, f).degree
            assert congruence_number(n, f) % deg == 0


def _stabilized_complement_rows(hecke, f, target):
    """Reference Hecke complement: the sum of the stabilized images
    im((T_p - a_p)^k), k past stabilization, over primes up to the Sturm
    bound, until the sum has rank `target`."""
    rows = IntMatrix.from_rows([])
    for p in primes_up_to(max(sturm_bound(f.level), 2)):
        t = hecke(p)
        op_t = (t - IntMatrix.identity(t.rows).scale(f.prime_eigenvalue(p))).transpose()
        im = hnf(op_t)
        while im.rows:
            nxt = hnf(im * op_t)
            if nxt.rows == im.rows:
                break
            im = nxt
        rows = hnf(stack(rows, im)) if rows.rows else im
        if rows.rows == target:
            return rows
    raise AssertionError(f"reference complement stops at rank {rows.rows}")


@pytest.mark.parametrize("n", (40, 48, 54, 56, 64, 72, 80))
def test_complement_matches_stabilized_reference(n):
    """The sum of plain images im(T_p - a_p) saturates to the same lattice as
    the sum of stabilized images, in the cuspidal homology and in the dual
    coordinates of S_2(Z), at levels where some U_p is not semisimple."""
    space = build_space(n)
    alg = hecke_algebra(n)
    sides = ((space.hecke_on_cuspidal, space.cuspidal_basis.rows, 2),
             (alg.hecke_matrix_on_dual, alg.genus, 1))
    for f in space.rational_eigenspaces():
        for hecke, rank, f_rank in sides:
            got = heckeforms.hecke_complement_rows(hecke, f, rank - f_rank)
            ref = _stabilized_complement_rows(hecke, f, rank - f_rank)
            assert subspace_integer_points(rank, got.entries) == \
                subspace_integer_points(rank, ref.entries), (n, rank)


def test_u2_at_level_56_is_not_semisimple():
    """im(U_2 - a_2) has rank 4 on the cuspidal homology at 56, and its
    stabilized image rank 2: the reference comparison above covers a U_p
    whose plain image is larger than the stabilized one."""
    space = build_space(56)
    for f in space.rational_eigenspaces():
        t = space.hecke_on_cuspidal(2)
        op_t = (t - IntMatrix.identity(t.rows).scale(f.prime_eigenvalue(2))).transpose()
        assert hnf(op_t).rows == 4
        assert hnf(op_t * op_t).rows == 2
        assert hnf(op_t * op_t * op_t).rows == 2
