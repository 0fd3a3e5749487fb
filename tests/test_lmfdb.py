import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from manincert import elliptic
from manincert.arith import factorize
from manincert.intlattice import InvariantError
from manincert.lmfdb import (
    CatalogEntry,
    Catalog,
    CatalogUnavailableError,
    LabelError,
    coverage_check,
    fixture_entries,
    fixture_manifest,
    parse_label,
    record_from_entry,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_parse_label():
    assert parse_label("530.a1") == (530, "a", 1)
    assert parse_label("11.ba12") == (11, "ba", 12)
    for bad in ("11a2", "11.2a", "x.a1", "11.a"):
        with pytest.raises(LabelError):
            parse_label(bad)


def test_fixture_snapshot_loads():
    entries = fixture_entries()
    assert "11.a2" in entries
    assert entries["11.a2"].ainvs == (0, -1, 1, -10, -20)
    assert "530.a1" in entries
    man = fixture_manifest()
    assert man["max_conductor"] >= 200


def test_fixture_530a1_has_odd_torsion():
    e = fixture_entries()["530.a1"]
    assert e.torsion_order % 2 == 1


def test_coverage_check():
    coverage_check(200)
    with pytest.raises(CatalogUnavailableError):
        coverage_check(10 ** 6)


def test_fetch_range_deterministic(tmp_path):
    cat = Catalog()
    r1 = cat.fetch_range(40)
    r2 = cat.fetch_range(40)
    assert [e.label for e in r1] == [e.label for e in r2]
    assert any(e.label == "30.a8" for e in r1)
    assert cat.fetch_range(0) == []


def test_fetch_curve():
    cat = Catalog()
    e = cat.fetch_curve("11.a2")
    assert e.conductor == 11
    with pytest.raises(LabelError):
        cat.fetch_curve("malformed")
    with pytest.raises(LabelError):
        cat.fetch_curve("999999.a1")


def test_entry_to_record_consistency():
    rec = record_from_entry(fixture_entries()["11.a2"])
    assert rec.conductor == 11 and rec.is_optimal
    assert rec.model.ainvs == (0, -1, 1, -10, -20)
    # discriminant support divides the recorded conductor
    for p in factorize(rec.model.delta_min):
        assert rec.conductor % p == 0


def test_record_derived_once_per_entry(monkeypatch):
    """One minimal-model search per entry object: a second call returns the
    same record.  An entry with other fields under the same label runs its
    own check, also once the genuine record is cached."""
    calls = []
    inner = elliptic.minimal_model

    def counted(w):
        calls.append(w)
        return inner(w)

    monkeypatch.setattr(elliptic, "minimal_model", counted)
    genuine = dataclasses.replace(fixture_entries()["11.a2"])  # uncached copy
    rec = record_from_entry(genuine)
    assert record_from_entry(genuine) is rec
    assert len(calls) == 1
    u = 2  # a_i -> u^i a_i: the same curve, not minimal at 2
    scaled = tuple(u ** i * a for i, a in zip((1, 2, 3, 4, 6), genuine.ainvs))
    forged = dataclasses.replace(genuine, ainvs=scaled)
    for _ in range(2):
        with pytest.raises(InvariantError, match="not a minimal model"):
            record_from_entry(forged)
    assert len(calls) == 3
    assert record_from_entry(genuine) is rec


def test_two_torsion_agrees_with_ingested_torsion_parity():
    from manincert.elliptic import two_torsion_rank

    for e in fixture_entries().values():
        if e.conductor > 120:
            continue
        rec = record_from_entry(e)
        assert (two_torsion_rank(rec.model) == 0) == (e.torsion_order % 2 == 1), \
            e.label


def test_all_fixture_discriminant_supports():
    for e in fixture_entries().values():
        if e.conductor > 60:
            continue
        rec = record_from_entry(e)
        for p in factorize(rec.model.delta_min):
            assert e.conductor % p == 0, e.label


def test_entry_json_roundtrip():
    """tools/build_fixtures.py writes entries with to_json and
    fixture_entries reads them back with from_json."""
    for e in fixture_entries().values():
        assert CatalogEntry.from_json(e.to_json()) == e, e.label


def _load_tool(monkeypatch, name="build_fixtures"):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_build_fixtures_imports(monkeypatch):
    """The snapshot generator's imports resolve; main() is not run."""
    mod = _load_tool(monkeypatch)
    assert callable(mod.main)
    assert mod.CatalogEntry is CatalogEntry


def test_numeric_sweep_imports(monkeypatch):
    """The numeric sweep's imports resolve; main() is not run."""
    mod = _load_tool(monkeypatch, "numeric_sweep")
    assert callable(mod.main)
    assert mod.TOLERANCES[0] == 2.0 ** -52 and len(mod.TOLERANCES) == 12


@pytest.mark.parametrize("n", [11, 37, 54, 57, 64])
def test_build_level_reproduces_the_snapshot(monkeypatch, n):
    """The generator rebuilds each class's optimal curve at n from its newform
    period lattice alone (a_p from the space's table, no curve): the same
    minimal model, modular degree and torsion order as the snapshot."""
    mod = _load_tool(monkeypatch)
    snapshot = {parse_label(e.label)[1]: e for e in fixture_entries().values()
                if e.conductor == n and e.optimality_flag}
    built = dict(mod.build_level(n, verbose=False))
    assert sorted(built) == sorted(snapshot)
    for letter, data in built.items():
        e = snapshot[letter]
        assert tuple(data["ainvs"]) == e.ainvs, e.label
        assert (data["degree"], data["torsion"]) == (e.modular_degree, e.torsion_order), e.label
