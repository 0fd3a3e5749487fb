"""Modular degree from the cuspidal homology lattice, and the 2-adic
degree-congruence gap.

deg(phi)^2 = #( L / (L_f + L_perp) ) for L the full cuspidal lattice, L_f the
saturated f-isotypic sublattice and L_perp the saturated Hecke complement;
the induced composite L_f -> L/(L_perp) must be deg times a unimodular map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

# hecke_complement_rows stays importable from here: perfbench/tracing.py
# charges its calls to this layer under that name
from .heckeforms import (  # noqa: F401
    RationalNewform,
    hecke_complement_rows,
    homology_complement,
)
from .intlattice import (
    kernel,
    lattice_sum,
    quotient_order,
    saturate,
    snf_diagonal,
    standard_lattice,
    subspace_integer_points,
)
from .modsym import ModSymSpace, factorize


class DegreeConsistencyError(RuntimeError):
    """The homology index failed a Prop-2.3(a)-style self-check: this signals
    a bug in the lattice computation, not bad input.  The numerical
    period-area route (periods module) is the designated diagnostic."""


class DivisibilityError(RuntimeError):
    """deg does not divide r_f, contradicting the ARS divisibility."""


@dataclass(frozen=True)
class DegreeResult:
    level: int
    newform_index: int
    degree: int
    index_used: int


def modular_degree(space: ModSymSpace, f: RationalNewform) -> DegreeResult:
    n = space.cuspidal_basis.rows
    lf = f.eigenspace
    assert lf.rank == 2 and saturate(lf) == lf
    comp = homology_complement(space, f)
    lperp = subspace_integer_points(n, comp.entries)
    total = lattice_sum(lf, lperp)
    if total.rank != n:
        raise DegreeConsistencyError(f"L_f + L_perp has rank {total.rank} != {n}")
    index = quotient_order(standard_lattice(n), total)
    deg = isqrt(index)
    if deg * deg != index:
        raise DegreeConsistencyError(
            f"homology index {index} is not a perfect square at level "
            f"{space.level}; numerical period-area cross-check advised"
        )
    if n > 2:
        quot_functionals = kernel(lperp.basis)  # identifies L/(L cap V_f-perp)
        assert quot_functionals.rows == 2
        composite = quot_functionals * lf.basis.transpose()
    else:
        composite = lf.basis
    if snf_diagonal(composite) != [deg, deg]:
        raise DegreeConsistencyError(
            f"composite endomorphism has invariants {snf_diagonal(composite)}, "
            f"expected multiplication by {deg}"
        )
    idx = space.rational_eigenspaces().index(f)
    return DegreeResult(space.level, idx, deg, index)


@dataclass(frozen=True)
class GapReport:
    level: int
    degree: int
    congruence_number: int
    gap_ord2: int
    quotient_factorization: dict[int, int]


def _ord2(n: int) -> int:
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def degree_congruence_gap(deg: DegreeResult, r_f: int) -> GapReport:
    if r_f % deg.degree:
        raise DivisibilityError(
            f"degree {deg.degree} does not divide congruence number {r_f} "
            f"(level {deg.level}): contradicts the ARS divisibility"
        )
    gap = _ord2(r_f) - _ord2(deg.degree)
    assert gap >= 0
    return GapReport(
        level=deg.level,
        degree=deg.degree,
        congruence_number=r_f,
        gap_ord2=gap,
        quotient_factorization=factorize(r_f // deg.degree),
    )
