"""Command-line orchestration: per-level analysis, per-curve certification,
census reproduction, numeric Manin checks, and a self-test.

Exit codes: 0 success; 2 usage error; 3 certificate left Partial/Unknown
entries; 4 curve not optimal; 5 census coverage gap; 6 numeric inconsistency;
7 an internal invariant of the exact computation failed (InvariantError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from . import __version__
from .certify import (
    BOUNDED,
    MANIN_HOLDS,
    CensusReport,
    CoverageError,
    NotOptimalError,
    census,
    certify_manin,
    certify_stevens,
)
from .elliptic import (
    MatchingError,
    ModelSizeError,
    SingularCurveError,
    minimal_model_from_ainvs,
    match_curve_to_newform,
    curve_ap_provider,
    two_torsion_rank,
)
from .heckeforms import congruence_number, sturm_bound
from .intlattice import InvariantError
from .invariants import degree_congruence_gap, modular_degree
from .lmfdb import (
    Catalog,
    CatalogUnavailableError,
    LabelError,
    fixture_manifest,
    record_from_entry,
)
from .modsym import build_space
from .periods import (
    InconsistencyError,
    ToleranceError,
    check_tolerance,
    elliptic_period_lattice,
    manin_constant_numeric,
    newform_period_lattice,
)

LEVEL_CEILING = 1000  # analyze accepts levels 1..LEVEL_CEILING
LIVE_COMPUTE_LIMIT = 200  # recompute degree/r_f live up to this conductor


class UsageError(ValueError):
    pass


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        _print_table(payload)


def _print_table(payload: dict, indent: int = 0):
    pad = " " * indent
    for key in payload:
        val = payload[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_table(val, indent + 2)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            cols = list(val[0])
            rows = [[str(item.get(c, "")) for c in cols] for item in val]
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(cols)]
            print(pad + "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                print(pad + "  " + "  ".join(x.ljust(w) for x, w in zip(r, widths)))
        else:
            print(f"{pad}{key}: {val}")


def run_level(n: int, fmt: str) -> int:
    if n < 1 or n > LEVEL_CEILING:
        raise UsageError(f"level must be in 1..{LEVEL_CEILING}")
    space = build_space(n)
    forms = []
    for f in space.rational_eigenspaces():
        deg = modular_degree(space, f)
        r_f = congruence_number(n, f)
        gap = degree_congruence_gap(deg, r_f)
        forms.append({
            "index": deg.newform_index,
            "ap": {str(p): f.ap[p] for p in sorted(f.ap) if p <= 13},
            "atkin_lehner": {str(q): s for q, s in sorted(f.sign_w.items())},
            "degree": deg.degree,
            "congruence_number": r_f,
            "gap_ord2": gap.gap_ord2,
        })
    payload = {
        "schema_version": 1,
        "command": "analyze",
        "level": n,
        "genus": space.genus,
        "sturm_bound": sturm_bound(n),
        "newforms": forms,
        "newform_count": len(forms),
    }
    _emit(payload, fmt)
    return 0


def _resolve_record(args, catalog: Catalog):
    if getattr(args, "label", None):
        entry = catalog.fetch_curve(args.label)
        return record_from_entry(entry)
    from fractions import Fraction

    try:
        ainvs = tuple(Fraction(x) for x in args.ainvs.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --ainvs value: {exc}") from exc
    if len(ainvs) != 5:
        raise UsageError("--ainvs needs exactly five comma-separated numbers")
    entry = catalog.find_by_ainvs(ainvs)
    if entry is None:
        raise NotOptimalError(
            "curve not found in the optimal-curve snapshot: optimality "
            "cannot be established, so certification is refused")
    return record_from_entry(entry)


def run_certify(args, catalog: Catalog, fmt: str) -> int:
    record = _resolve_record(args, catalog)
    computed = {"two_torsion_rank": two_torsion_rank(record.model)}
    if record.conductor <= LIVE_COMPUTE_LIMIT:
        space = build_space(record.conductor)
        f = match_curve_to_newform(record.model, record.conductor,
                                   space.rational_eigenspaces())
        deg = modular_degree(space, f)
        r_f = congruence_number(record.conductor, f)
        degree_congruence_gap(deg, r_f)  # raises DivisibilityError unless deg | r_f
        computed["degree"] = deg.degree
        computed["r_f"] = r_f
    cert = certify_manin(record, computed)
    stevens = certify_stevens(record.conductor, [record], cert)
    payload = cert.as_dict()
    payload["command"] = "certify"
    payload["computed"] = {k: v for k, v in computed.items()}
    payload["stevens"] = stevens.as_dict()
    _emit(payload, fmt)
    return 0 if cert.conclusion in (MANIN_HOLDS, BOUNDED) else 3


def _census_payload(report: CensusReport) -> dict:
    d = report.as_dict()
    d["command"] = "census"
    return d


def run_census(args, catalog: Catalog, fmt: str) -> int:
    bound = args.max_conductor
    if bound < 0:
        raise UsageError("--max-conductor must be >= 0")
    records = [record_from_entry(e) for e in catalog.fetch_range(bound)
               if e.optimality_flag]
    report = census(bound, records,
                    provenance=fixture_manifest()["optimality_convention"])
    _emit(_census_payload(report), fmt)
    return 0


def run_numeric(args, catalog: Catalog, fmt: str) -> int:
    tol = 1e-8 if args.tol is None else args.tol
    check_tolerance(tol)
    record = _resolve_record(args, catalog)
    space = build_space(record.conductor)
    f = replace(match_curve_to_newform(record.model, record.conductor,
                                       space.rational_eigenspaces()),
                _ap_provider=curve_ap_provider(record.model))
    lat_e = elliptic_period_lattice(record.model, tol)
    lat_f = newform_period_lattice(space, f, tol)
    c, resid = manin_constant_numeric(lat_e, lat_f, max(tol, 1e-6))
    payload = {
        "schema_version": 1,
        "command": "numeric",
        "curve_label": record.label,
        "abs_c": c,
        "residual": resid,
        "tolerance": tol,
        "lattice_kind": lat_e.kind,
    }
    _emit(payload, fmt)
    return 0 if resid < tol else 6


def run_selftest(fmt: str) -> int:
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append({"check": name, "status": f"FAIL ({exc})"})
            return
        checks.append({"check": name, "status": "PASS" if ok else "FAIL"})

    space = build_space(11)
    check("genus(X0(11)) == 1", lambda: space.genus == 1)
    check("T2 eigenvalue -2 at level 11",
          lambda: space.hecke_on_cuspidal(2).entries[0][0] == -2)
    f = space.rational_eigenspaces()[0]
    check("deg(11a) == 1", lambda: modular_degree(space, f).degree == 1)
    check("r_f(11a) == 1", lambda: congruence_number(11, f) == 1)
    m = minimal_model_from_ainvs((0, -1, 1, -10, -20))
    check("11a1 delta == -11^5", lambda: m.delta_min == -(11 ** 5))
    lat_e = elliptic_period_lattice(m, 1e-10)
    lat_f = newform_period_lattice(space, f, 1e-9)
    check("numeric |c|(11a1) == 1",
          lambda: manin_constant_numeric(lat_e, lat_f, 1e-6)[0] == 1)
    payload = {"schema_version": 1, "command": "selftest", "checks": checks}
    _emit(payload, fmt)
    return 0 if all(c["status"] == "PASS" for c in checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse_args call starts
    from a fresh namespace, so one request's options never reach the next."""
    ap = argparse.ArgumentParser(
        prog="manincert",
        description="Exact modular degrees, congruence numbers and "
                    "Manin-constant certificates for optimal elliptic quotients.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--format", choices=("table", "json"), default="table")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="newforms, degrees and congruence "
                                       "numbers of one level")
    p.add_argument("level", type=int)

    p = sub.add_parser("certify", help="per-prime Manin certificate of a curve")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--label")
    g.add_argument("--ainvs", help="a1,a2,a3,a4,a6")

    p = sub.add_parser("census", help="staged census over the snapshot")
    p.add_argument("--max-conductor", type=int, required=True)

    p = sub.add_parser("numeric", help="numeric |c| cross-check")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--label")
    g.add_argument("--ainvs", help="a1,a2,a3,a4,a6")
    p.add_argument("--tol", type=float, default=None)

    sub.add_parser("selftest", help="quick built-in checks")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    catalog = Catalog()
    try:
        if args.command == "analyze":
            return run_level(args.level, args.format)
        if args.command == "certify":
            return run_certify(args, catalog, args.format)
        if args.command == "census":
            return run_census(args, catalog, args.format)
        if args.command == "numeric":
            return run_numeric(args, catalog, args.format)
        if args.command == "selftest":
            return run_selftest(args.format)
        raise UsageError(f"unknown command {args.command}")
    except (UsageError, ToleranceError, LabelError, MatchingError,
            SingularCurveError, ModelSizeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NotOptimalError as exc:
        print(f"not optimal: {exc}", file=sys.stderr)
        return 4
    except (CoverageError, CatalogUnavailableError) as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 5
    except InconsistencyError as exc:
        print(f"numeric inconsistency: {exc}", file=sys.stderr)
        return 6
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
