"""The decision engine: per-prime certificates for the valuation of the
Manin (and Manin-Stevens) constant of an optimal elliptic quotient, and the
staged census over a curve catalog.

Every CertifiedZero entry cites exactly one rule whose hypothesis is a
checkable statement about the curve data; the engine never guesses when a
required input is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arith import factorize, valuation
from .elliptic import MinimalModel, two_torsion_rank
from .intlattice import require


class NotOptimalError(RuntimeError):
    """Certification requested for a curve not designated optimal."""


class CoverageError(RuntimeError):
    """The curve catalog does not cover the requested conductor range."""


CERTIFIED_ZERO = "CertifiedZero"
BOUNDED_BY_ONE = "BoundedByOne"
UNKNOWN = "Unknown"

MANIN_HOLDS = "ManinHolds"
BOUNDED = "Bounded"
PARTIAL = "Partial"

# 2-adic rule precedence for ord_2(n) <= 1 (census staging order)
TWO_ADIC_RULES = ("MK2", "MK3", "MK4", "MM1", "MM15", "MM2", "SHIM")


@dataclass(frozen=True)
class CurveRecord:
    label: str | None
    model: MinimalModel
    conductor: int
    is_optimal: bool
    optimality_source: str = "asserted"
    degree: int | None = None
    torsion_order: int | None = None
    kodaira: dict[int, str] | None = None

    @cached_property
    def conductor_factorization(self) -> dict[int, int]:
        return factorize(self.conductor)


@dataclass(frozen=True)
class CriterionResult:
    rule: str
    applicable: bool | None  # None = indeterminate (missing input)
    detail: str


@dataclass(frozen=True)
class PrimeCertificate:
    p: int
    status: str
    rule: str
    detail: str


@dataclass(frozen=True)
class Certificate:
    curve_label: str
    conductor: int
    per_prime: tuple[PrimeCertificate, ...]
    conclusion: str
    criteria: tuple[CriterionResult, ...] = ()
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "schema_version": 1,
            "curve_label": self.curve_label,
            "conductor": self.conductor,
            "per_prime": [
                {"prime": pc.p, "status": pc.status, "rule": pc.rule,
                 "detail": pc.detail}
                for pc in self.per_prime
            ],
            "criteria": [
                {"rule": c.rule,
                 "applicable": c.applicable,
                 "detail": c.detail}
                for c in self.criteria
            ],
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


def evaluate_criteria(record: CurveRecord, computed: dict) -> list[CriterionResult]:
    """Evaluate the 2-adic criteria MK2..SHIM (and EDIX per odd additive
    prime) with an applicable/not/indeterminate verdict and evidence."""
    n = record.conductor
    fac = record.conductor_factorization
    out: list[CriterionResult] = []

    v2n = fac.get(2, 0)
    out.append(CriterionResult(
        "MK2", v2n == 0, f"ord_2(conductor) = {v2n}"))

    v2d = valuation(record.model.delta_min, 2)
    out.append(CriterionResult(
        "MK3", v2d % 2 == 1, f"ord_2(minimal discriminant) = {v2d}"))

    degree = computed.get("degree", record.degree)
    if degree is None:
        out.append(CriterionResult(
            "MK4", None, "modular degree unavailable; indeterminate"))
    else:
        out.append(CriterionResult(
            "MK4", degree % 2 == 1,
            f"modular degree = {degree} (parity {'odd' if degree % 2 else 'even'}); "
            "the degree is independent of the base point used to embed the curve"))

    q3 = sorted(q for q in fac if q % 4 == 3)
    out.append(CriterionResult(
        "MM1", bool(q3),
        f"prime factors = 3 mod 4: {q3 or 'none'}"))

    mm15 = n % 2 == 0 and list(factorize(n // 2).values()) == [1]
    out.append(CriterionResult(
        "MM15", mm15,
        f"conductor {'is' if mm15 else 'is not'} twice a prime"))

    ttr = computed.get("two_torsion_rank")
    if ttr is None:
        out.append(CriterionResult(
            "MM2", None, "rational 2-torsion rank unavailable; indeterminate"))
    else:
        out.append(CriterionResult(
            "MM2", ttr == 0, f"rational 2-torsion rank = {ttr}"))

    shim = False
    if v2n == 1:
        rest = {p: e for p, e in fac.items() if p != 2}
        if len(rest) == 1:
            ((q, _),) = rest.items()
            shim = q % 4 == 3 or q % 8 == 5
    out.append(CriterionResult(
        "SHIM", shim,
        "conductor = 2*q^r with q = 3 mod 4 or q = 5 mod 8" if shim
        else "conductor is not of the form 2*q^r with q = 3 mod 4 or q = 5 mod 8"))

    for p in sorted(fac):
        if p == 2 or fac[p] < 2:
            continue
        if p <= 7:
            out.append(CriterionResult(
                f"EDIX[{p}]", False, f"additive prime {p} <= 7: rule never applies"))
        elif record.kodaira is None or p not in record.kodaira:
            out.append(CriterionResult(
                f"EDIX[{p}]", None,
                f"no reduction-type data at {p}; indeterminate"))
        else:
            ktype = record.kodaira[p]
            ok = ktype not in ("II", "III", "IV")
            out.append(CriterionResult(
                f"EDIX[{p}]", ok,
                f"reduction type at {p} is {ktype}"))
    return out


def _two_adic_entry(record: CurveRecord, criteria: dict[str, CriterionResult]):
    v2 = record.conductor_factorization.get(2, 0)
    if v2 == 0:
        return PrimeCertificate(2, CERTIFIED_ZERO, "MK2", criteria["MK2"].detail)
    if v2 == 1:
        for rule in TWO_ADIC_RULES[1:]:
            c = criteria[rule]
            if c.applicable:
                return PrimeCertificate(2, CERTIFIED_ZERO, rule, c.detail)
        return PrimeCertificate(
            2, BOUNDED_BY_ONE, "RAY",
            "conductor exactly divisible by 2: the 2-adic valuation of the "
            "constant is at most 1")
    return PrimeCertificate(
        2, UNKNOWN, "-",
        f"ord_2(conductor) = {v2} >= 2: no applicable rule")


def certify_manin(record: CurveRecord, computed: dict | None = None) -> Certificate:
    """Per-prime certificate for the constant of the X0-optimal quotient."""
    if not record.is_optimal:
        raise NotOptimalError(
            f"curve {record.label or record.model.ainvs} is not designated "
            "optimal; every certification rule hypothesizes optimality")
    computed = dict(computed or {})
    require(record.degree is None
            or computed.get("degree", record.degree) == record.degree,
            f"computed degree {computed.get('degree')} contradicts ingested "
            f"degree {record.degree} for {record.label}")
    crit_list = evaluate_criteria(record, computed)
    criteria = {c.rule: c for c in crit_list}
    fac = record.conductor_factorization
    entries: list[PrimeCertificate] = []
    for p in sorted(set(fac) | {2}):
        if p == 2:
            entries.append(_two_adic_entry(record, criteria))
        elif fac.get(p, 0) <= 1:
            entries.append(PrimeCertificate(
                p, CERTIFIED_ZERO, "MK1",
                f"odd prime with ord_{p}(conductor) <= 1"))
        else:
            edix = criteria.get(f"EDIX[{p}]")
            if edix is not None and edix.applicable:
                entries.append(PrimeCertificate(
                    p, CERTIFIED_ZERO, "EDIX", edix.detail))
            else:
                entries.append(PrimeCertificate(
                    p, UNKNOWN, "-",
                    f"additive prime {p}: no applicable rule"
                    + ("" if edix is None else f" ({edix.detail})")))
    if all(e.status == CERTIFIED_ZERO for e in entries):
        conclusion = MANIN_HOLDS
    elif all(e.status == CERTIFIED_ZERO or
             (e.p == 2 and e.status == BOUNDED_BY_ONE) for e in entries):
        conclusion = BOUNDED
    else:
        conclusion = PARTIAL
    notes = (
        "odd primes not dividing the conductor need no entry: the constant "
        "is an integer and the multiplicative-prime rule covers them",
        f"optimality provenance: {record.optimality_source}",
    )
    return Certificate(
        curve_label=record.label or ",".join(str(a) for a in record.model.ainvs),
        conductor=record.conductor,
        per_prime=tuple(entries),
        conclusion=conclusion,
        criteria=tuple(crit_list),
        notes=notes,
    )


def certify_stevens(n: int, class_records: list[CurveRecord],
                    manin_certificate: Certificate | None = None) -> Certificate:
    """Certificate for the X1-optimal quotient of the class of conductor n:
    CertifiedZero at every prime with ord_p(n) <= 1 (applied as a black-box
    statement), plus the recorded implication from a Manin certificate."""
    fac = factorize(n)
    entries = []
    for p in sorted(set(fac) | ({2} if n % 2 == 0 else set())):
        if fac.get(p, 0) <= 1:
            entries.append(PrimeCertificate(
                p, CERTIFIED_ZERO, "STEV1",
                f"ord_{p}(conductor) = {fac.get(p, 0)} <= 1"))
        else:
            entries.append(PrimeCertificate(
                p, UNKNOWN, "-",
                f"ord_{p}(conductor) = {fac[p]} >= 2: hypothesis fails"))
    conclusion = MANIN_HOLDS if all(
        e.status == CERTIFIED_ZERO for e in entries) else PARTIAL
    notes = [
        "X1-side certificate: no Gamma1 computation is performed; the "
        "semistable-prime statement is applied as a black box",
    ]
    if manin_certificate is not None and manin_certificate.conclusion == MANIN_HOLDS:
        notes.append(
            "transfer: the X0-optimal constant equals the X1-optimal constant "
            "times an integer cokernel factor (not computed here), so the "
            "certified X0 result implies the X1 one")
    label = class_records[0].label if class_records else f"{n}"
    return Certificate(
        curve_label=label or f"{n}",
        conductor=n,
        per_prime=tuple(entries),
        conclusion=conclusion,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CensusReport:
    max_conductor: int
    selected: tuple[str, ...]
    settled_mm1: tuple[str, ...]
    remaining_after_mm1: tuple[str, ...]
    settled_mm15: tuple[str, ...]
    remaining_after_mm15: tuple[str, ...]
    two_torsion_nonzero: dict[str, bool]
    provenance: str

    def as_dict(self) -> dict:
        return {
            "schema_version": 1,
            "max_conductor": self.max_conductor,
            "selected_count": len(self.selected),
            "selected": list(self.selected),
            "settled_mm1_count": len(self.settled_mm1),
            "settled_mm1": list(self.settled_mm1),
            "remaining_after_mm1": list(self.remaining_after_mm1),
            "settled_mm15_count": len(self.settled_mm15),
            "settled_mm15": list(self.settled_mm15),
            "remaining_after_mm15": list(self.remaining_after_mm15),
            "two_torsion_nonzero": self.two_torsion_nonzero,
            "provenance": self.provenance,
        }


def census(max_conductor: int, records: list[CurveRecord],
           provenance: str = "") -> CensusReport:
    """Staged selection reproducing the catalog experiment: optimal curves,
    semistable at 2, with all of MK2-MK4 failing; then count what MM1 and
    MM15 settle and report the residue with its rational 2-torsion.  The
    MK3, MK4, MM1 and MM15 stages read the verdicts of evaluate_criteria."""
    selected, mm1, rest1, mm15, rest2 = [], [], [], [], []
    for rec in sorted(records, key=lambda r: _label_key(r.label)):
        if not rec.is_optimal or rec.conductor > max_conductor \
                or rec.conductor_factorization.get(2, 0) != 1:
            continue  # MK2 applies (odd) or not 2-semistable
        verdict = {c.rule: c.applicable for c in evaluate_criteria(rec, {})}
        if verdict["MK3"] or verdict["MK4"]:
            continue
        if verdict["MK4"] is None:
            raise CoverageError(
                f"no modular degree for {rec.label}: cannot stage MK4")
        selected.append(rec)
        if verdict["MM1"]:
            mm1.append(rec)
        else:
            rest1.append(rec)
            (mm15 if verdict["MM15"] else rest2).append(rec)
    torsion = {rec.label: two_torsion_rank(rec.model) > 0 for rec in rest2}
    return CensusReport(
        max_conductor=max_conductor,
        selected=tuple(r.label for r in selected),
        settled_mm1=tuple(r.label for r in mm1),
        remaining_after_mm1=tuple(r.label for r in rest1),
        settled_mm15=tuple(r.label for r in mm15),
        remaining_after_mm15=tuple(r.label for r in rest2),
        two_torsion_nonzero=torsion,
        provenance=provenance,
    )


def _label_key(label: str | None):
    if not label:
        return (10**9, "", 0)
    head, _, tail = label.partition(".")
    cls = "".join(ch for ch in tail if ch.isalpha())
    num = "".join(ch for ch in tail if ch.isdigit())
    return (int(head), cls, int(num or 0))
