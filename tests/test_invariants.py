import dataclasses

import pytest

from manincert.heckeforms import congruence_number
from manincert.invariants import (
    DivisibilityError,
    DegreeResult,
    degree_congruence_gap,
    modular_degree,
)
from manincert.modsym import build_space, genus_x0
from manincert.periods import newform_period_lattice


def degrees_at(n):
    s = build_space(n)
    return [modular_degree(s, f) for f in s.rational_eigenspaces()]


def test_degree_level_11():
    (d,) = degrees_at(11)
    assert d.degree == 1 and d.index_used == 1


def test_degree_level_37():
    da, db = degrees_at(37)
    assert da.degree == 2 and da.index_used == 4
    assert db.degree == 2


def test_degree_of_newform_copy_with_grown_ap():
    """The newform index is found by eigenspace: a copy whose a_p table has
    grown past the cached newform's still gets its degree and index."""
    s = build_space(37)
    cached = s.rational_eigenspaces()[0]
    f = dataclasses.replace(cached, ap=dict(cached.ap))
    newform_period_lattice(s, f, 1e-8)
    assert len(f.ap) > len(cached.ap)
    d = modular_degree(s, f)
    assert (d.newform_index, d.degree) == (0, 2)


def test_degree_level_26_symmetric():
    # at a genus-2 level the homology index of both newforms is the same
    # finite group, and a degree-1 parametrization would force genus 1
    da, db = degrees_at(26)
    assert (da.degree, db.degree) == (2, 2)


def test_degree_is_one_exactly_at_genus_one_levels():
    for n in (14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49):
        assert genus_x0(n) == 1
        (d,) = degrees_at(n)
        assert d.degree == 1


def test_famous_discrepancy_at_54():
    d_a, d_b = (d.degree for d in degrees_at(54))
    r_a = congruence_number(54, build_space(54).rational_eigenspaces()[0])
    r_b = congruence_number(54, build_space(54).rational_eigenspaces()[1])
    assert {d_a, d_b} == {6, 2}
    assert r_a == r_b == 6


def test_perfect_square_and_composite_check_sample():
    for n in (26, 37, 50, 54, 57, 58):
        s = build_space(n)
        for f in s.rational_eigenspaces():
            d = modular_degree(s, f)
            assert d.index_used == d.degree ** 2


def test_gap_report():
    s = build_space(54)
    f0, f1 = s.rational_eigenspaces()
    d1 = modular_degree(s, f1)
    gap = degree_congruence_gap(d1, congruence_number(54, f1))
    assert gap.gap_ord2 >= 0
    assert gap.degree * _prod(gap.quotient_factorization) == gap.congruence_number


def _prod(fac):
    out = 1
    for p, e in fac.items():
        out *= p**e
    return out


def test_gap_rejects_nondividing():
    fake = DegreeResult(level=37, newform_index=0, degree=4, index_used=16)
    with pytest.raises(DivisibilityError):
        degree_congruence_gap(fake, 2)


def test_degree_invariant_under_atkin_lehner():
    """Replacing L_f by its Atkin-Lehner image leaves the degree unchanged
    (the image equals L_f: eigenspaces are w-stable)."""
    from manincert.intlattice import hnf

    s = build_space(37)
    w = s.atkin_lehner(37)
    for f in s.rational_eigenspaces():
        image = hnf(f.eigenspace.basis * w.transpose())
        assert image == f.eigenspace.basis


def test_atkin_lehner_invariance_of_index_level_57():
    from manincert.intlattice import hnf

    s = build_space(57)
    for q in (3, 19):
        w = s.atkin_lehner(q)
        for f in s.rational_eigenspaces():
            assert hnf(f.eigenspace.basis * w.transpose()) == f.eigenspace.basis


def test_square_index_without_scalar_composite_is_degree_error(monkeypatch):
    """At 37 the composite L_f -> L/L_perp is 2 times a unimodular map.  With
    one annihilator row scaled by 4 its |det| is 16, a square, but the map
    is not multiplication by 4: the entry-gcd check must refuse it.  The
    space is fresh, so no annihilator an earlier test built can hide it."""
    from manincert import heckeforms, modsym
    from manincert.intlattice import IntMatrix
    from manincert.invariants import DegreeConsistencyError

    real = heckeforms.complement_annihilator
    scale = IntMatrix.from_rows([[1, 0], [0, 4]])
    monkeypatch.setattr(heckeforms, "complement_annihilator",
                        lambda comp, n, rank: scale * real(comp, n, rank))
    monkeypatch.setattr(modsym, "_SPACES", {})
    s = build_space(37)
    with pytest.raises(DegreeConsistencyError, match="multiplication by 4"):
        modular_degree(s, s.rational_eigenspaces()[0])


def test_wrong_rank_complement_is_invariant_error(monkeypatch):
    """A Hecke complement that also holds a vector of f's eigenspace leaves a
    rank-1 quotient; at 57 the homology index is still a square, so the
    quotient-rank check is what catches it (on a fresh space, so no
    annihilator an earlier test built can hide it)."""
    from manincert import heckeforms, modsym
    from manincert.intlattice import IntMatrix, InvariantError, stack

    monkeypatch.setattr(modsym, "_SPACES", {})
    s = build_space(57)
    f = s.rational_eigenspaces()[0]
    real = heckeforms.hecke_complement_rows(s.hecke_on_cuspidal, f,
                                            s.cuspidal_basis.rows - 2)
    bad = stack(real, IntMatrix.from_rows(f.eigenspace.basis.entries[:1]))
    monkeypatch.setattr(heckeforms, "hecke_complement_rows", lambda *args: bad)
    with pytest.raises(InvariantError, match="quotient of rank 1"):
        modular_degree(s, f)


@pytest.mark.parametrize("level", [37, 54, 57, 64, 66, 130])
def test_annihilator_readoff_matches_lattice_sum_route(level):
    """The degree, index_used and r_f read through complement_annihilator
    equal #( Z^n / (line or L_f + saturated complement) ) computed by a lattice
    sum and quotient_order, and the functional behind the space's a_p table
    is a left eigenvector of every stored T_p (U_p at p | N) on every Manin
    symbol."""
    from math import gcd

    from manincert.heckeforms import (
        hecke_algebra,
        hecke_complement_rows,
        isotypic_complement_on_dual,
    )
    from manincert.intlattice import (
        lattice_from_rows,
        lattice_sum,
        quotient_order,
        standard_lattice,
        subspace_integer_points,
    )

    def index(n, line, comp):
        total = lattice_sum(line, subspace_integer_points(n, comp.entries))
        return quotient_order(standard_lattice(n), total)

    s = build_space(level)
    alg = hecke_algebra(level)
    n, g = s.cuspidal_basis.rows, alg.genus
    for f in s.rational_eigenspaces():
        d = modular_degree(s, f)
        square = index(n, f.eigenspace,
                       hecke_complement_rows(s.hecke_on_cuspidal, f, n - 2))
        assert d.index_used == square == d.degree ** 2
        x = alg.newform_coordinates(f)
        line = lattice_from_rows(g, [[v // gcd(*x) for v in x]])
        assert congruence_number(level, f) == index(
            g, line, isotypic_complement_on_dual(alg, f))
        u, start = s._eigen_functionals[s.newform_index(f)]
        assert u[start]
        for p in sorted(f.ap):
            images = s._hecke_images(p)
            assert all(sum(u[i] * c for i, c in images({j: 1}).items()) == f.ap[p] * u[j]
                       for j in range(s.mu)), p


def test_typed_errors_are_invariant_errors():
    from manincert.heckeforms import ComplementRankError
    from manincert.intlattice import InvariantError
    from manincert.invariants import DegreeConsistencyError

    for exc in (DegreeConsistencyError, DivisibilityError, ComplementRankError):
        assert issubclass(exc, InvariantError)
