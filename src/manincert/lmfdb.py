"""Elliptic-curve catalog: the bundled snapshot of optimal curves.

The snapshot is generated by tools/build_fixtures.py from this package's own
exact computations (see the manifest's provenance stamp); the optimality
designation it records is stamped into census output.  Nothing here reads
the network or writes files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, asdict
from functools import cached_property
from importlib import resources

from .intlattice import require

LABEL_RE = re.compile(r"^(\d+)\.([a-z]+)(\d+)$")


class CatalogUnavailableError(RuntimeError):
    """The bundled snapshot does not cover the requested conductor range."""


class LabelError(ValueError):
    """Malformed or unknown curve label."""


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    conductor: int
    ainvs: tuple[int, int, int, int, int]
    optimality_flag: bool
    modular_degree: int | None
    torsion_order: int | None
    kodaira: dict[str, str] | None
    source: str  # "fixture" for every snapshot entry
    fetched_at: float
    number_provenance: str = "catalog"  # "catalog" | "synthetic"

    def to_json(self) -> str:
        d = asdict(self)
        d["ainvs"] = list(self.ainvs)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CatalogEntry":
        d = json.loads(line)
        d["ainvs"] = tuple(d["ainvs"])
        return CatalogEntry(**d)

    @cached_property
    def record(self):
        """The entry's CurveRecord, derived once per entry object.

        The cache lives on this (immutable) entry, so an entry built with
        other fields, even under the same label, runs its own minimal-model
        check."""
        from .certify import CurveRecord
        from .elliptic import minimal_model_from_ainvs

        model = minimal_model_from_ainvs(self.ainvs)
        require(model.ainvs == self.ainvs,
                f"snapshot curve {self.label} is not a minimal model")
        kod = {int(k): v for k, v in self.kodaira.items()} if self.kodaira else None
        src = f"{self.source}:{fixture_manifest().get('optimality_convention', '')}" \
            if self.source == "fixture" else self.source
        return CurveRecord(
            label=self.label,
            model=model,
            conductor=self.conductor,
            is_optimal=self.optimality_flag,
            optimality_source=src,
            degree=self.modular_degree,
            torsion_order=self.torsion_order,
            kodaira=kod,
        )


def parse_label(label: str) -> tuple[int, str, int]:
    m = LABEL_RE.match(label)
    if not m:
        raise LabelError(f"malformed curve label {label!r}")
    return int(m.group(1)), m.group(2), int(m.group(3))


# ---------------------------------------------------------------------------
# fixtures


def _fixture_text(name: str) -> str:
    return resources.files("manincert.data").joinpath(name).read_text()


_FIXTURES: dict[str, CatalogEntry] | None = None
_MANIFEST: dict | None = None


def fixture_manifest() -> dict:
    global _MANIFEST
    if _MANIFEST is None:
        _MANIFEST = json.loads(_fixture_text("manifest.json"))
    return _MANIFEST


def fixture_entries() -> dict[str, CatalogEntry]:
    global _FIXTURES
    if _FIXTURES is None:
        out: dict[str, CatalogEntry] = {}
        for line in _fixture_text("curves.jsonl").splitlines():
            line = line.strip()
            if not line:
                continue
            e = CatalogEntry.from_json(line)
            out[e.label] = e
        _FIXTURES = out
    return _FIXTURES


def coverage_check(max_conductor: int):
    man = fixture_manifest()
    if max_conductor > man["max_conductor"]:
        raise CatalogUnavailableError(
            f"snapshot covers conductors <= {man['max_conductor']}; "
            f"{max_conductor} requested")
    counts: dict[int, int] = {}
    for e in fixture_entries().values():
        if e.conductor <= max_conductor and e.optimality_flag:
            counts[e.conductor] = counts.get(e.conductor, 0) + 1
    for key, expected in man["class_counts"].items():
        n = int(key)
        if n <= max_conductor and counts.get(n, 0) != expected:
            raise CatalogUnavailableError(
                f"snapshot incomplete at conductor {n}: "
                f"{counts.get(n, 0)} classes, manifest says {expected}")


# ---------------------------------------------------------------------------
# fetching


class Catalog:
    """Lookups in the bundled snapshot."""

    def fetch_range(self, max_conductor: int) -> list[CatalogEntry]:
        """All snapshot curves of conductor <= max_conductor, completeness
        asserted against the manifest class counts."""
        if max_conductor < 1:
            return []
        coverage_check(max_conductor)
        out = [e for e in fixture_entries().values()
               if e.conductor <= max_conductor]
        out.sort(key=lambda e: parse_label(e.label))
        return out

    def fetch_curve(self, label: str) -> CatalogEntry:
        parse_label(label)
        entry = fixture_entries().get(label)
        if entry is None:
            raise LabelError(f"unknown curve label {label!r}")
        return entry

    def find_by_ainvs(self, ainvs):
        """Snapshot entry whose minimal model matches the given model's."""
        from .elliptic import minimal_model_from_ainvs

        target = minimal_model_from_ainvs(ainvs).ainvs
        for e in fixture_entries().values():
            if e.ainvs == target:
                return e
        return None


def record_from_entry(entry: CatalogEntry):
    """The CurveRecord of a catalog entry (see CatalogEntry.record)."""
    return entry.record
