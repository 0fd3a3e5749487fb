"""Elliptic-curve catalog client: bundled offline fixture snapshot, JSONL
cache with atomic writes, optional remote endpoint.

The bundled snapshot is generated by tools/build_fixtures.py from this
package's own exact computations (see the manifest's provenance stamp); the
optimality designation it records is stamped into census output.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, asdict
from importlib import resources

LABEL_RE = re.compile(r"^(\d+)\.([a-z]+)(\d+)$")
ENDPOINT_ENV = "MANINCERT_CATALOG_URL"


class CatalogUnavailableError(RuntimeError):
    """Neither the network endpoint nor the fixtures cover the request."""


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
    source: str  # "remote" | "fixture"
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
# cache


def read_cache(path: str) -> dict[str, CatalogEntry]:
    out: dict[str, CatalogEntry] = {}
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                e = CatalogEntry.from_json(line)
            except (ValueError, TypeError, KeyError) as exc:
                import logging  # only here, to keep it off the import path

                logging.getLogger(__name__).warning(
                    "skipping corrupt cache line %d in %s: %s", i, path, exc)
                continue
            out[e.label] = e  # last write wins
    return out


def write_cache(path: str, entries: dict[str, CatalogEntry]):
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for label in sorted(entries, key=_label_sort_key):
                fh.write(entries[label].to_json() + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _label_sort_key(label: str):
    n, cls, num = parse_label(label)
    return (n, cls, num)


# ---------------------------------------------------------------------------
# fetching


class Catalog:
    """Cache-first, fixture-backed catalog with an optional remote endpoint."""

    def __init__(self, cache_path: str | None = None, offline: bool = True,
                 endpoint: str | None = None, rate_limit: float = 1.0):
        self.cache_path = cache_path
        self.offline = offline
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.rate_limit = rate_limit
        self._last_request = 0.0
        self._cache = read_cache(cache_path) if cache_path else {}

    def _remote_lines(self, query: str) -> list[str]:
        if self.offline or not self.endpoint:
            raise CatalogUnavailableError("remote access disabled or unset")
        import urllib.request  # only here: certify and census never go online
        wait = self.rate_limit - (time.monotonic() - self._last_request)
        if wait > 0:
            time.sleep(wait)
        url = f"{self.endpoint.rstrip('/')}/{query}"
        for attempt in range(3):
            try:
                self._last_request = time.monotonic()
                with urllib.request.urlopen(url, timeout=30) as resp:
                    return resp.read().decode("utf-8").splitlines()
            except Exception as exc:  # noqa: BLE001 - retry with backoff
                if attempt == 2:
                    raise CatalogUnavailableError(
                        f"remote fetch failed after retries: {exc}") from exc
                time.sleep(2.0 ** attempt)
        raise CatalogUnavailableError("unreachable")

    def fetch_range(self, max_conductor: int) -> list[CatalogEntry]:
        """All snapshot curves of conductor <= max_conductor, completeness
        asserted against the manifest class counts; persisted to the cache."""
        if max_conductor < 1:
            return []
        coverage_check(max_conductor)
        out = [e for e in fixture_entries().values()
               if e.conductor <= max_conductor]
        out.sort(key=lambda e: _label_sort_key(e.label))
        if self.cache_path:
            self._cache.update({e.label: e for e in out})
            write_cache(self.cache_path, self._cache)
        return out

    def fetch_curve(self, label: str) -> CatalogEntry:
        parse_label(label)
        if label in self._cache:
            return self._cache[label]
        entry = fixture_entries().get(label)
        if entry is None and not self.offline and self.endpoint:
            lines = self._remote_lines(f"curve/{label}")
            if lines:
                entry = CatalogEntry.from_json(lines[0])
        if entry is None:
            raise LabelError(f"unknown curve label {label!r}")
        if self.cache_path:
            self._cache[label] = entry
            write_cache(self.cache_path, self._cache)
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
    from .certify import CurveRecord
    from .elliptic import minimal_model_from_ainvs

    model = minimal_model_from_ainvs(entry.ainvs)
    assert model.ainvs == entry.ainvs, "fixture curve is not minimal"
    kod = {int(k): v for k, v in entry.kodaira.items()} if entry.kodaira else None
    src = f"{entry.source}:{fixture_manifest().get('optimality_convention', '')}" \
        if entry.source == "fixture" else entry.source
    return CurveRecord(
        label=entry.label,
        model=model,
        conductor=entry.conductor,
        is_optimal=entry.optimality_flag,
        optimality_source=src,
        degree=entry.modular_degree,
        torsion_order=entry.torsion_order,
        kodaira=kod,
    )
