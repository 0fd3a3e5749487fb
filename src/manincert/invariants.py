"""Modular degree from the cuspidal homology lattice, and the 2-adic
degree-congruence gap.

deg(phi)^2 = #( L / (L_f + L_perp) ) for L the full cuspidal lattice, L_f the
saturated f-isotypic sublattice and L_perp the saturated Hecke complement.
The index is |det| of L_f's image in L/L_perp, read through the functionals
that annihilate the complement, which the space builds once per newform
(homology_annihilator); that composite L_f -> L/L_perp must be deg times a
unimodular map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

# hecke_complement_rows stays importable from here: perfbench/tracing.py
# charges its calls to this layer under that name
from .heckeforms import hecke_complement_rows  # noqa: F401
from .heckeforms import RationalNewform, homology_annihilator
from .arith import factorize, valuation
from .intlattice import InvariantError, det
from .modsym import ModSymSpace


class DegreeConsistencyError(InvariantError):
    """The homology index failed a Prop-2.3(a)-style self-check: this signals
    a bug in the lattice computation, not bad input.  The numerical
    period-area route (periods module) is the designated diagnostic."""


class DivisibilityError(InvariantError):
    """deg does not divide r_f, contradicting the ARS divisibility."""


@dataclass(frozen=True)
class DegreeResult:
    level: int
    newform_index: int
    degree: int
    index_used: int


def modular_degree(space: ModSymSpace, f: RationalNewform) -> DegreeResult:
    quot = space.newform_data(f, homology_annihilator)
    composite = quot * f.eigenspace.basis.transpose()
    index = abs(det(composite))
    if index == 0:
        raise DegreeConsistencyError(f"L_f meets L_perp at level {space.level}")
    deg = isqrt(index)
    if deg * deg != index:
        raise DegreeConsistencyError(
            f"homology index {index} is not a perfect square at level "
            f"{space.level}; numerical period-area cross-check advised"
        )
    # with |det| = deg^2, the entries' gcd is deg exactly when the Smith
    # form is [deg, deg]
    content = gcd(*(x for row in composite.entries for x in row))
    if content != deg:
        raise DegreeConsistencyError(
            f"composite endomorphism has entry gcd {content}, "
            f"expected multiplication by {deg}"
        )
    return DegreeResult(space.level, space.newform_index(f), deg, index)


@dataclass(frozen=True)
class GapReport:
    level: int
    degree: int
    congruence_number: int
    gap_ord2: int
    quotient_factorization: dict[int, int]


def degree_congruence_gap(deg: DegreeResult, r_f: int) -> GapReport:
    if r_f % deg.degree:
        raise DivisibilityError(
            f"degree {deg.degree} does not divide congruence number {r_f} "
            f"(level {deg.level}): contradicts the ARS divisibility"
        )
    gap = valuation(r_f, 2) - valuation(deg.degree, 2)
    assert gap >= 0
    return GapReport(
        level=deg.level,
        degree=deg.degree,
        congruence_number=r_f,
        gap_ord2=gap,
        quotient_factorization=factorize(r_f // deg.degree),
    )
