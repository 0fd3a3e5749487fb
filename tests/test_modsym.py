from math import gcd

import pytest

from manincert.arith import factorize, primes_up_to
from manincert.intlattice import (
    IntMatrix,
    InvariantError,
    RowSolver,
    hnf,
    lattice_from_rows,
    solve_in_rowspace,
    stack,
)
from manincert.modsym import (
    ModSymSpace,
    build_space,
    cusps_equivalent,
    genus_x0,
    heilbronn_cremona,
    index_mu,
    merel_matrices,
    new_rank,
    nu_inf,
    P1List,
    restrict,
    w_matrix,
)


def test_p1_sizes():
    for n in (1, 2, 6, 11, 24, 30, 49):
        assert len(P1List(n)) == index_mu(n)


def _normalize_by_orbits(n):
    """Reference normalize, by brute force over the unit orbits: maps each
    residue pair (c, d) with gcd(c, d, n) = 1 to the least pair of its orbit
    {(ct, dt) : t a unit mod n}."""
    units = [t for t in range(n) if gcd(t, n) == 1]
    least = {}
    for c in range(n):
        for d in range(n):
            if (c, d) not in least and gcd(gcd(c, d), n) == 1:
                orbit = {(c * t % n, d * t % n) for t in units}
                m = min(orbit)
                for pt in orbit:
                    least[pt] = m
    return least


def test_p1_normalize_idempotent():
    """Normalizing a representative gives it back, and the representatives
    are exactly P1List's pairs."""
    for n in (12, 25, 33):
        p1 = P1List(n)
        least = _normalize_by_orbits(n)
        for pt in least.values():
            assert least[pt] == pt
            assert p1.pairs[p1.index(*pt)] == pt
        assert p1.pairs == sorted(set(least.values()))


def test_p1_table_agrees_with_normalize():
    """For every residue pair, index names the least pair of its unit orbit,
    or gives None when gcd(c, d, N) > 1; the pairs are listed in increasing
    order."""
    for n in (*range(1, 71), 198, 530):
        p1 = P1List(n)
        least = _normalize_by_orbits(n)
        assert p1.pairs == sorted(set(least.values()))
        lookup = {pt: i for i, pt in enumerate(p1.pairs)}
        for c in range(n):
            for d in range(n):
                pt = least.get((c, d))
                assert p1.index(c, d) == (None if pt is None else lookup[pt]), (n, c, d)


def test_relation_check_rejects_map_off_the_quotient():
    s = build_space(37)
    with pytest.raises(InvariantError):
        s._solve_and_check(lambda i: s._class_of({(i + 1) % s.mu: 1}), s.rank)


def test_relation_check_covers_every_symbol():
    """T_2's images pass; changing the image of any one non-pivot symbol
    (which the pivot solve never reads) is caught."""
    s = build_space(37)
    images = s._hecke_images(2)

    def t2_class(i):
        return s._class_of(images({i: 1}))

    assert s._solve_and_check(t2_class, s.rank) == s.hecke_on_coords(2)
    non_pivots = sorted(set(range(s.mu)) - set(s._pivots))
    assert non_pivots
    for bad in non_pivots:
        def image(i, bad=bad):
            cls = t2_class(i)
            if i == bad:
                cls[0] += 1
            return cls

        with pytest.raises(InvariantError):
            s._solve_and_check(image, s.rank)


def test_hecke_on_coords_matches_merel_set():
    """At good primes T_p comes from Cremona's Heilbronn set; Merel's set,
    applied here to every Manin symbol, gives the same classes."""
    for n in range(1, 61):
        s = build_space(n)
        for p in (2, 3, 5, 7, 11, 13):
            if n % p == 0:
                continue
            t = s.hecke_on_coords(p)
            mats = list(merel_matrices(p))
            for i, (c, d) in enumerate(s.p1.pairs):
                combo = {}
                for a, b, cc, dd in mats:
                    j = s.p1.index(c * a + d * cc, c * b + d * dd)
                    if j is not None:
                        combo[j] = combo.get(j, 0) + 1
                assert t.matvec(s._class_of({i: 1})) == s._class_of(combo), (n, p, i)


def test_hecke_on_coords_matches_double_coset_paths():
    """Both Heilbronn families (Cremona's for p not dividing N, Merel's for
    p | N) give T_p as the double coset defines it on paths:
    {a, b} -> sum of {m a, m b} over m = [[1, j], [0, p]], 0 <= j < p, and
    m = [[p, 0], [0, 1]] when p does not divide N."""
    for n in range(1, 41):
        s = build_space(n)
        for p in (2, 3, 5, 7, 11, 13):
            mats = [(1, j, 0, p) for j in range(p)] + ([(p, 0, 0, 1)] if n % p else [])
            assert s._path_map(mats, s) == s.hecke_on_coords(p), (n, p)


def test_formal_sum_lifts_cuspidal_basis():
    for n in (11, 54, 130, 198):
        s = build_space(n)
        for row in s.cuspidal_basis.entries:
            combo = s.formal_sum(row)
            assert set(combo) <= set(s._pivots)
            assert s._class_of(combo) == list(row)


def test_atkin_lehner_not_plus_minus_one_is_invariant_error(monkeypatch):
    """The split reads w_q off each eigenspace through _path_images; with every
    image coefficient doubled, w_11 acts on the eigenspace of 11 as 2 * (+-1),
    which must be an error (the doubled lowering maps keep their kernel)."""
    s = ModSymSpace(11)
    right = s._path_images

    def doubled(mats, target):
        image = right(mats, target)
        return lambda combo: {i: 2 * c for i, c in image(combo).items()}

    monkeypatch.setattr(s, "_path_images", doubled)
    with pytest.raises(InvariantError, match="w_11 does not act as"):
        s.rational_eigenspaces()


def test_merel_determinants():
    for n in (2, 3, 5, 6, 12):
        mats = list(merel_matrices(n))
        assert all(a * d - b * c == n for a, b, c, d in mats)
        assert all(a > b >= 0 and d > c >= 0 for a, b, c, d in mats)


def test_heilbronn_cremona_determinants():
    for p in (2, 3, 5, 13, 31):
        assert all(a * d - b * c == p for a, b, c, d in heilbronn_cremona(p))


def test_space_shapes():
    s = build_space(11)
    assert s.mu == 12 and s.genus == 1 and s.cuspidal_basis.rows == 2
    s1 = build_space(1)
    assert s1.genus == 0 and s1.cuspidal_basis.rows == 0
    s22 = build_space(22)
    assert s22.genus == 2 and s22.cuspidal_basis.rows == 4


def test_genus_dimension_agreement_sample():
    for n in (13, 17, 30, 45, 64, 97):
        s = build_space(n)
        assert s.cuspidal_basis.rows == 2 * genus_x0(n)
        assert len(s.cusps) == nu_inf(n)


def presentation(s):
    """The raw two- and three-term relation matrix on the Manin symbols of
    `s`: the reference that the structured elimination must reproduce."""
    rows = []
    seen = set()
    for i in range(s.mu):
        j = s._symbol_S(i)
        if (j, i) not in seen:
            seen.add((i, j))
            row = [0] * s.mu
            row[i] += 1
            row[j] += 1
            rows.append(row)
    seen = set()
    for i in range(s.mu):
        orbit = (i, s._symbol_U(i), s._symbol_U(s._symbol_U(i)))
        if min(orbit) in seen:
            continue
        seen.add(min(orbit))
        row = [0] * s.mu
        for t in orbit:
            row[t] += 1
        rows.append(row)
    return IntMatrix.from_rows(rows, s.mu)


def test_structured_elimination_matches_generic_kernel():
    """The fast presentation reduction agrees with a generic saturated
    kernel of the raw relation matrix."""
    from manincert.intlattice import kernel

    for n in range(1, 101):
        s = build_space(n)
        assert kernel(presentation(s)) == s.coords, n


def test_presentation_row_count():
    s = build_space(11)
    assert presentation(s).cols == s.mu
    assert len(s.p1) == s.mu


def test_hecke_t1_identity():
    s = build_space(30)
    t1 = s.hecke_on_cuspidal(1)
    assert t1 == IntMatrix.identity(s.cuspidal_basis.rows)


def test_hecke_eigenvalues_level_11():
    s = build_space(11)
    assert s.hecke_on_cuspidal(2) == IntMatrix.identity(2).scale(-2)
    assert s.hecke_on_cuspidal(3) == IntMatrix.identity(2).scale(-1)


def test_hecke_commutativity():
    for n in (11, 14, 26, 37):
        s = build_space(n)
        mats = [s.hecke_on_cuspidal(p) for p in (2, 3, 5, 7)]
        for a in mats:
            for b in mats:
                assert a * b == b * a


def test_hecke_multiplicativity_coprime():
    s = build_space(11)
    assert s.hecke_on_cuspidal(6) == s.hecke_on_cuspidal(2) * s.hecke_on_cuspidal(3)
    s2 = build_space(26)
    assert s2.hecke_on_cuspidal(15) == \
        s2.hecke_on_cuspidal(3) * s2.hecke_on_cuspidal(5)


def test_atkin_lehner_involution():
    for n, q in ((11, 11), (14, 2), (14, 7), (26, 13), (36, 4), (36, 9)):
        s = build_space(n)
        w = s.atkin_lehner(q)
        assert w * w == IntMatrix.identity(w.rows)


def test_atkin_lehner_rejects_non_exact_divisor():
    s = build_space(12)
    with pytest.raises(ValueError):
        s.atkin_lehner(2)  # 2 || 12 fails: 4 | 12


def test_sign_w_matches_full_atkin_lehner_matrix():
    """Each newform's sign_w, read off its own eigenspace, is the scalar by
    which the full w_q matrix (checked on every Manin symbol and as an
    involution) acts on that eigenspace: at every level <= 100 with a
    rational newform, and at 198."""
    for n in (*range(1, 101), 198):
        s = build_space(n)
        forms = s.rational_eigenspaces()
        for q in (p**e for p, e in factorize(n).items()):
            if not forms:
                break
            w = s.atkin_lehner(q)
            for f in forms:
                basis = f.eigenspace.basis
                r = restrict(basis, w, RowSolver(basis), f"w_{q} leaves an eigenspace")
                assert r == IntMatrix.identity(2).scale(f.sign_w[q]), (n, q)
        for f in forms:
            assert set(f.sign_w) == {p**e for p, e in factorize(n).items()}, n


def test_fricke_is_product_of_atkin_lehner():
    s = build_space(14)
    w2, w7, w14 = s.atkin_lehner(2), s.atkin_lehner(7), s.atkin_lehner(14)
    assert w2 * w7 in (w14, w14.scale(-1))
    f = s.rational_eigenspaces()[0]
    assert set(f.sign_w) == {2, 7}


def test_star_involution_commutes():
    s = build_space(26)
    # the star involution {a, b} -> {-a, -b} on the cuspidal lattice
    star = s._restrict_to_cuspidal(s._path_map([(-1, 0, 0, 1)], s))
    assert star * star == IntMatrix.identity(star.rows)
    for p in (2, 3, 5):
        t = s.hecke_on_cuspidal(p)
        assert star * t == t * star
    w13 = s.atkin_lehner(13)
    assert star * w13 == w13 * star


def test_cusp_equivalence_classes():
    # numbers of inequivalent cusps match the formula (checked in build too)
    for n in (20, 27, 48):
        assert len(build_space(n).cusps) == nu_inf(n)
    # the two cusps of X0(11) are 0 and infinity, and they are distinct
    assert not cusps_equivalent((0, 1), (1, 0), 11)
    assert cusps_equivalent((0, 1), (1, 1), 11)


def test_degeneracy_identity_at_same_level():
    s = build_space(11)
    d = s.degeneracy_lower(s, 1)
    assert d == IntMatrix.identity(2)


def test_degeneracy_divisibility_violations_rejected():
    s22 = build_space(22)
    with pytest.raises(ValueError):
        s22.degeneracy_lower(build_space(7), 1)   # 7 does not divide 22
    with pytest.raises(ValueError):
        s22.degeneracy_lower(build_space(11), 4)  # 4 does not divide 22/11


def test_degeneracy_lower_surjective_on_22():
    s22, s11 = build_space(22), build_space(11)
    for d in (1, 2):
        mat = s22.degeneracy_lower(s11, d)
        assert hnf(mat.transpose()).rows == 2  # full rank onto level 11


def test_degeneracy_composition_44_22_11():
    s44, s22, s11 = build_space(44), build_space(22), build_space(11)
    lower_44_22_1 = s44.degeneracy_lower(s22, 1)
    lower_44_22_2 = s44.degeneracy_lower(s22, 2)
    lower_22_11_1 = s22.degeneracy_lower(s11, 1)
    lower_22_11_2 = s22.degeneracy_lower(s11, 2)
    assert lower_22_11_1 * lower_44_22_1 == s44.degeneracy_lower(s11, 1)
    assert lower_22_11_2 * lower_44_22_1 == s44.degeneracy_lower(s11, 2)
    assert lower_22_11_1 * lower_44_22_2 == s44.degeneracy_lower(s11, 2)
    assert lower_22_11_2 * lower_44_22_2 == s44.degeneracy_lower(s11, 4)


def test_lowering_after_raising_is_covering_degree():
    """Transfer then forgetful lowering multiplies level-M classes by the
    covering degree mu(N)/mu(M) (exact matrix identity, N <= 50)."""
    for m, n in ((11, 22), (11, 33), (11, 44), (14, 28), (15, 45), (24, 48)):
        s_n, s_m = build_space(n), build_space(m)
        comp = s_n.degeneracy_lower(s_m, 1) * s_n.degeneracy_raise(s_m)
        expected = index_mu(n) // index_mu(m)
        assert comp == IntMatrix.identity(s_m.cuspidal_basis.rows).scale(expected)


def test_integer_eigenspaces_have_even_dimension():
    """Rational eigenspaces of a good T_p on the full cuspidal lattice come
    in conjugate pairs, hence have even rank."""
    from manincert.intlattice import kernel

    for n, p in ((37, 2), (54, 5), (57, 2)):
        s = build_space(n)
        t = s.hecke_on_cuspidal(p)
        size = t.rows
        for lam in range(-4, 5):
            shifted = t - IntMatrix.identity(size).scale(lam)
            assert kernel(shifted).rows % 2 == 0


def test_new_subspace_examples():
    assert build_space(11).new_subspace().rank == 2
    assert build_space(22).new_subspace().rank == 0
    assert build_space(37).new_subspace().rank == 4


def test_new_subspace_rank_is_the_dimension_count(monkeypatch):
    """new_subspace checks its rank against 2 sum_{M | N} beta(N/M) genus(M);
    without the d = p lowering maps the kernel is too large, and the check
    raises."""
    for n, rank in ((1, 0), (11, 2), (22, 0), (32, 2), (37, 4), (54, 4),
                    (64, 2), (81, 4), (128, 8), (198, 10)):
        assert new_rank(n) == build_space(n).new_subspace().rank == rank, n
    right = ModSymSpace.degeneracy_lower

    def lower_without_d_p(self, target, d):
        return IntMatrix.from_rows([]) if d > 1 else right(self, target, d)

    monkeypatch.setattr(ModSymSpace, "degeneracy_lower", lower_without_d_p)
    for n in (22, 54, 198):
        with pytest.raises(InvariantError, match="new subspace of rank"):
            build_space(n).new_subspace()


def test_rational_eigenspaces_examples():
    s11 = build_space(11)
    forms = s11.rational_eigenspaces()
    assert len(forms) == 1
    assert forms[0].ap[2] == -2 and forms[0].ap[3] == -1
    assert build_space(22).rational_eigenspaces() == []
    a2s = [f.ap[2] for f in build_space(37).rational_eigenspaces()]
    assert a2s == [-2, 0]


def test_split_stops_at_rank_two():
    """At 37, T_2 alone leaves two rank-2 pieces, so no other T_p is built
    on the cuspidal lattice; the other a_p are read off one vector."""
    s = ModSymSpace(37)
    forms = s.rational_eigenspaces()
    assert set(s._hecke_cusp_cache) == {2}
    assert [list(f.ap) for f in forms] == [[2, 3, 5, 7]] * 2


def test_split_short_of_primes_is_invariant_error(monkeypatch):
    """With the Sturm bound cut to 1 only T_2 splits, and at 57 it leaves a
    rank-4 piece: that must stay an error, not be taken for a newform."""
    import manincert.heckeforms

    monkeypatch.setattr(manincert.heckeforms, "sturm_bound", lambda n: 1)
    with pytest.raises(InvariantError, match="rational system of rank 4"):
        ModSymSpace(57).rational_eigenspaces()


def test_wrong_hecke_image_on_eigenvector_is_invariant_error(monkeypatch):
    """The split at 37 uses T_2 only; a T_5 image off by one Manin symbol
    reaches only the one-vector check, which must catch it."""
    s = ModSymSpace(37)
    right = s._hecke_images

    def images(m):
        image = right(m)
        if m != 5:
            return image

        def wrong(combo):
            out = image(combo)
            out[s._pivots[0]] = out.get(s._pivots[0], 0) + 1
            return out

        return wrong

    monkeypatch.setattr(s, "_hecke_images", images)
    with pytest.raises(InvariantError, match="T_5 does not act as a scalar"):
        s.rational_eigenspaces()


def _patch_cuspidal_hecke(monkeypatch, s, p, change):
    """Make the split read change(T_p) on s's cuspidal lattice; the pass,
    which reads T_p through _hecke_images, still sees the true T_p."""
    right = s.hecke_on_cuspidal
    monkeypatch.setattr(s, "hecke_on_cuspidal",
                        lambda m: change(right(m)) if m == p else right(m))


def _patch_w_flipped(monkeypatch, s, q):
    """Make the pass read -w_q on s's formal sums."""
    right = s._path_images

    def images(mats, target):
        image = right(mats, target)
        if mats != [w_matrix(s.level, q)]:
            return image
        return lambda combo: {i: -c for i, c in image(combo).items()}

    monkeypatch.setattr(s, "_path_images", images)


def test_eigenvector_check_rejects_wrong_split_eigenvalue(monkeypatch):
    """The pass checks each a_p against the eigenvalue the split chose.  At 54
    the split reads T_2 only, and a negated T_2 makes it choose -a_2; at 99
    it reads T_5 on the rank-4 piece a_2 = -1, and T_5 + 1 makes it choose
    a_5 + 1.  Unpatched, the pass stores p <= max(sturm, 7) in order."""
    s = ModSymSpace(54)
    assert [list(f.ap) for f in s.rational_eigenspaces()] == [[2, 3, 5, 7, 11, 13, 17]] * 2
    for n, p, change in ((54, 2, lambda t: t.scale(-1)),
                         (99, 5, lambda t: t + IntMatrix.identity(t.rows))):
        s = ModSymSpace(n)
        _patch_cuspidal_hecke(monkeypatch, s, p, change)
        with pytest.raises(InvariantError, match=f"a_{p} = .* the split chose"):
            s.rational_eigenspaces()


def test_eigenvector_check_ties_bad_primes_to_atkin_lehner(monkeypatch):
    """a_p = -w_p for p || N, checked on the eigenvector; here at 54 = 2 * 27
    a flipped w_2 is caught.  At 130, with the Sturm bound cut to 7, the bad
    prime 13 is past the limit 7, so it is checked but not stored."""
    import manincert.heckeforms

    s = ModSymSpace(54)
    _patch_w_flipped(monkeypatch, s, 2)
    with pytest.raises(InvariantError, match="disagrees with w_2"):
        s.rational_eigenspaces()
    monkeypatch.setattr(manincert.heckeforms, "sturm_bound", lambda n: 7)
    assert [list(f.ap) for f in ModSymSpace(130).rational_eigenspaces()] == [[2, 3, 5, 7]] * 3
    s = ModSymSpace(130)
    _patch_w_flipped(monkeypatch, s, 13)
    with pytest.raises(InvariantError, match="disagrees with w_13"):
        s.rational_eigenspaces()


def test_split_builds_each_hecke_image_map_at_most_twice(monkeypatch):
    """At 198 (five newforms, Sturm bound 72) the pass builds each T_m image
    map once for all newforms; the split's hecke_on_coords builds it once
    more where it reads T_m."""
    from manincert.heckeforms import sturm_bound

    s = ModSymSpace(198)
    right = s._hecke_images
    calls = {}

    def counted(m):
        calls[m] = calls.get(m, 0) + 1
        return right(m)

    monkeypatch.setattr(s, "_hecke_images", counted)
    assert len(s.rational_eigenspaces()) == 5
    assert max(calls.values()) <= 2, calls
    assert sorted(calls) == primes_up_to(sturm_bound(198))


def test_eigenspaces_are_saturated_rank_two():
    from manincert.intlattice import saturate

    for n in (26, 37):
        for f in build_space(n).rational_eigenspaces():
            assert f.eigenspace.rank == 2
            assert saturate(f.eigenspace) == f.eigenspace


def test_eichler_shimura_consistency():
    from manincert.elliptic import ap_via_counting, minimal_model_from_ainvs

    m = minimal_model_from_ainvs((0, -1, 1, -10, -20))
    f = build_space(11).rational_eigenspaces()[0]
    for p in (2, 3, 5, 7, 13):
        assert f.prime_eigenvalue(p) == ap_via_counting(m, p)


def test_eigen_ap_table_matches_the_split():
    """For every newform at levels 1..200 and 530, the space's a_p table
    equals the split's own a_p at every stored prime, U_p at p | N included.
    At levels such as 27, 36, 54, 64, 100 and 121, T_l - l - 1 at the least
    good prime l maps some classes outside the cuspidal lattice, so a table
    read through that prime instead of l = 1 mod m raises InvariantError."""
    count = 0
    for n in [*range(1, 201), 530]:
        s = build_space(n)
        for i, f in enumerate(s.rational_eigenspaces()):
            for p, a in f.ap.items():
                assert s.eigen_ap(p)[i] == a, (n, i, p)
                count += n % p > 0
    assert count == 2704


def test_eigen_ap_table_refuses_a_non_integer_ratio():
    """A functional that is no longer a Hecke eigenvector (its start-symbol
    value scaled by 7) gives u_f(T_p w)/u_f(w) off the integers, which the
    table refuses with a typed error instead of rounding."""
    s = ModSymSpace(37)
    s.rational_eigenspaces()
    s.__dict__["_eigen_functionals"] = [(u[:j] + [7 * u[j]] + u[j + 1:], j)
                                        for u, j in s._eigen_functionals]
    with pytest.raises(InvariantError, match="non-integer ratio"):
        s.eigen_ap(101)


def test_hecke_preserves_cuspidal_lattice():
    s = build_space(30)
    n = s.cuspidal_basis.rows
    lat = lattice_from_rows(n, IntMatrix.identity(n).entries)
    for p in (2, 3, 7):
        t = s.hecke_on_cuspidal(p)
        image = lattice_from_rows(n, (IntMatrix.identity(n) * t.transpose()).entries)
        assert solve_in_rowspace(lat.basis, image.basis) is not None
