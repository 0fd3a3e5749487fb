import pytest

from manincert.certify import (
    BOUNDED,
    BOUNDED_BY_ONE,
    CERTIFIED_ZERO,
    MANIN_HOLDS,
    PARTIAL,
    UNKNOWN,
    CoverageError,
    CurveRecord,
    NotOptimalError,
    census,
    certify_manin,
    certify_stevens,
    evaluate_criteria,
)
from manincert.elliptic import minimal_model_from_ainvs
from manincert.intlattice import InvariantError
from manincert.lmfdb import fixture_entries, record_from_entry


def record(ainvs, conductor, label=None, optimal=True, degree=None,
           torsion=None):
    return CurveRecord(
        label=label,
        model=minimal_model_from_ainvs(ainvs),
        conductor=conductor,
        is_optimal=optimal,
        optimality_source="test",
        degree=degree,
        torsion_order=torsion,
    )


R11 = record((0, -1, 1, -10, -20), 11, "11.a2", degree=1)


def crit_map(rec, computed):
    return {c.rule: c for c in evaluate_criteria(rec, computed)}


def test_conductor_factorization_is_computed_once():
    rec = record((0, 0, 1, -1, 0), 37 * 4, degree=2)
    first = rec.conductor_factorization
    assert first == {2: 2, 37: 1}
    assert rec.conductor_factorization is first


def test_mk2_on_odd_conductor():
    c = crit_map(R11, {})
    assert c["MK2"].applicable is True


def test_criteria_for_530_shape():
    # conductor 530 = 2 * 5 * 53: MM1 and MM15 both fail
    rec = record((0, -1, 1, -10, -20), 530, optimal=True, degree=2)
    c = crit_map(rec, {"two_torsion_rank": 0})
    assert c["MK2"].applicable is False
    assert c["MM1"].applicable is False   # 5, 53 = 1 mod 4
    assert c["MM15"].applicable is False  # 265 is not prime
    assert c["MM2"].applicable is True
    assert c["SHIM"].applicable is False


def test_mm15_on_34():
    rec = record((0, -1, 1, -10, -20), 34, degree=2)
    c = crit_map(rec, {})
    assert c["MM1"].applicable is False  # 17 = 1 mod 4
    assert c["MM15"].applicable is True


def test_indeterminate_when_inputs_missing():
    rec = record((0, -1, 1, -10, -20), 34)
    c = crit_map(rec, {})
    assert c["MK4"].applicable is None
    assert c["MM2"].applicable is None


def test_certify_odd_squarefree_is_manin_holds():
    cert = certify_manin(R11, {"two_torsion_rank": 0, "degree": 1})
    assert cert.conclusion == MANIN_HOLDS
    assert all(pc.status == CERTIFIED_ZERO for pc in cert.per_prime)
    two = next(pc for pc in cert.per_prime if pc.p == 2)
    assert two.rule == "MK2"


def test_certify_refuses_non_optimal():
    rec = record((0, -1, 1, -10, -20), 11, optimal=False)
    with pytest.raises(NotOptimalError):
        certify_manin(rec, {})


def test_certify_degree_contradiction_is_invariant_error():
    with pytest.raises(InvariantError):
        certify_manin(R11, {"degree": 3})


def test_certify_bounded_when_all_two_adic_rules_fail():
    # synthetic: conductor 2 * 5 * 13 * ... use 130-shaped data with even
    # degree, even ord_2(delta), full 2-torsion
    rec = record((0, 1, 0, -41, -116), 130, "130.x0", degree=4)  # 2-torsion
    # conductor supplied as 130 for rule purposes; delta has even ord_2
    computed = {"two_torsion_rank": 2, "degree": 4}
    cert = certify_manin(rec, computed)
    two = next(pc for pc in cert.per_prime if pc.p == 2)
    if two.status == BOUNDED_BY_ONE:
        assert cert.conclusion == BOUNDED
        assert two.rule == "RAY"
    else:
        assert two.status == CERTIFIED_ZERO  # MK3 fired on this model


def test_certify_unknown_at_additive_primes():
    rec = record((0, 0, 1, -1, 0), 99, degree=2)  # 99 = 9 * 11
    cert = certify_manin(rec, {"two_torsion_rank": 0})
    p3 = next(pc for pc in cert.per_prime if pc.p == 3)
    assert p3.status == UNKNOWN
    assert cert.conclusion == PARTIAL


def test_certify_edix_with_kodaira_data():
    model = minimal_model_from_ainvs((0, 0, 1, -1, 0))
    rec = CurveRecord(
        label=None, model=model, conductor=4 * 121, is_optimal=True,
        degree=2, torsion_order=1, kodaira={11: "I0*"})
    cert = certify_manin(rec, {"two_torsion_rank": 0})
    p11 = next(pc for pc in cert.per_prime if pc.p == 11)
    assert p11.status == CERTIFIED_ZERO and p11.rule == "EDIX"


def test_monotone_improvement_with_more_data():
    """Adding ingested metadata never downgrades a status."""
    rank = {"two_torsion_rank": 0}
    rec_nodeg = record((1, 0, 0, -3, 1), 34, "34.a4")
    cert0 = certify_manin(rec_nodeg, rank)
    rec_deg = record((1, 0, 0, -3, 1), 34, "34.a4", degree=2)
    cert1 = certify_manin(rec_deg, rank)
    order = {UNKNOWN: 0, BOUNDED_BY_ONE: 1, CERTIFIED_ZERO: 2}
    for a, b in zip(cert0.per_prime, cert1.per_prime):
        assert order[b.status] >= order[a.status]


def test_audit_replay():
    """Every CertifiedZero rule re-evaluates to true from raw inputs."""
    cert = certify_manin(record((1, 0, 0, -3, 1), 34, degree=2),
                         {"two_torsion_rank": 0})
    crits = {c.rule: c for c in cert.criteria}
    for pc in cert.per_prime:
        if pc.status == CERTIFIED_ZERO and pc.rule in crits:
            assert crits[pc.rule].applicable is True


def test_stevens_squarefree_blanket():
    cert = certify_stevens(130, [record((0, -1, 1, -10, -20), 130)])
    assert all(pc.status == CERTIFIED_ZERO for pc in cert.per_prime)
    assert {pc.p for pc in cert.per_prime} == {2, 5, 13}


def test_stevens_additive_prime_unknown():
    cert = certify_stevens(99, [])
    p3 = next(pc for pc in cert.per_prime if pc.p == 3)
    assert p3.status == UNKNOWN


def test_stevens_records_transfer_note():
    manin = certify_manin(R11, {"two_torsion_rank": 0, "degree": 1})
    cert = certify_stevens(11, [R11], manin)
    assert any("transfer" in note for note in cert.notes)


def test_census_staging_synthetic():
    """Hand-built records exercise the staged selection exactly."""
    recs = [
        # selected, settled by MM1 (q = 3 | 30); ord2(delta(30.a8)) is even
        record((1, 0, 1, 1, 2), 30, "30.a8", degree=2),
        # selected, MM1 fails (17 = 1 mod 4), MM15 settles (34 = 2 * 17)
        record((1, 0, 0, -3, 1), 34, "34.a4", degree=2),
        # not selected: odd conductor (MK2 certifies)
        record((0, -1, 1, -10, -20), 11, "11.a2", degree=1),
        # not selected: odd degree (MK4 certifies)
        record((1, 0, 1, 4, -6), 14, "14.a1", degree=1),
    ]
    rep = census(200, recs)
    assert rep.selected == ("30.a8", "34.a4")
    assert rep.settled_mm1 == ("30.a8",)
    assert rep.settled_mm15 == ("34.a4",)
    assert rep.remaining_after_mm15 == ()


def test_census_coverage_error_without_degree():
    recs = [record((1, 0, 1, 1, 2), 30, "30.x")]
    with pytest.raises(CoverageError):
        census(200, recs)


def test_census_agrees_with_certificates():
    """Over the whole snapshot, the census stages match the rule each
    curve's certificate cites at 2."""
    records = [record_from_entry(e) for e in fixture_entries().values()
               if e.optimality_flag]
    rep = census(max(r.conductor for r in records), records)
    checked = 0
    for rec in records:
        if rec.conductor_factorization.get(2, 0) != 1:
            continue
        two = next(pc for pc in certify_manin(rec, {}).per_prime if pc.p == 2)
        assert (rec.label in rep.selected) == (two.rule not in ("MK3", "MK4")), rec.label
        assert (rec.label in rep.settled_mm1) == (two.rule == "MM1"), rec.label
        assert (rec.label in rep.settled_mm15) == (two.rule == "MM15"), rec.label
        checked += 1
    assert checked > len(rep.selected) > 0
