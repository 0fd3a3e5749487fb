#!/usr/bin/env python3
"""Run every optimal snapshot curve through the `numeric` path at a ladder of
tolerances, and report per tolerance how the cases ended.

Each case does what `manincert numeric --label L --tol T` does: the Neron
lattice and the newform lattice at T, compared at max(T, 1e-6); it exits 0
when the residual is below T and 6 otherwise.  Per tolerance the sweep
prints how many cases exit 0, how many exit 6 by residual, how many raise,
and the worst spread of the two basis ratios (periods.basis_ratio_spread).
It exits 1 if any case raises, or if any case at a tolerance >= 1e-12 does
not exit 0.  Usage: python tools/numeric_sweep.py
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from manincert.elliptic import curve_ap_provider, match_curve_to_newform  # noqa: E402
from manincert.lmfdb import fixture_entries, record_from_entry  # noqa: E402
from manincert.modsym import build_space  # noqa: E402
from manincert.periods import (  # noqa: E402
    basis_ratio_spread,
    elliptic_period_lattice,
    manin_constant_numeric,
    newform_period_lattice,
)

TOLERANCES = (math.ulp(1.0), 1e-14, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 2e-8, 5e-8,
              1e-7, 1e-6, 1e-5)
STRICT_FROM = 1e-12  # every case at a tolerance >= this must exit 0


def run_case(model, space, f, tol: float):
    """(exit code, spread) of one `numeric` case; raises as `numeric` would."""
    lat_e = elliptic_period_lattice(model, tol)
    lat_f = newform_period_lattice(space, f, tol)
    spread = basis_ratio_spread(lat_e, lat_f)[1]
    _, resid = manin_constant_numeric(lat_e, lat_f, max(tol, 1e-6))
    return (0 if resid < tol else 6), spread


def main() -> int:
    start = time.perf_counter()
    records = sorted((record_from_entry(e) for e in fixture_entries().values()
                      if e.optimality_flag), key=lambda r: (r.conductor, r.label))
    tally = {tol: {0: 0, 6: 0, "raised": [], "spread": (0.0, None)} for tol in TOLERANCES}
    for rec in records:
        space = build_space(rec.conductor)
        f = replace(match_curve_to_newform(rec.model, rec.conductor,
                                           space.rational_eigenspaces()),
                    _ap_provider=curve_ap_provider(rec.model))
        for tol in TOLERANCES:
            row = tally[tol]
            try:
                code, spread = run_case(rec.model, space, f, tol)
            except Exception as exc:  # noqa: BLE001 - a raise is a finding
                row["raised"].append(f"{rec.label}: {type(exc).__name__}: {exc}")
                continue
            row[code] += 1
            row["spread"] = max(row["spread"], (spread, rec.label))
    print(f"{len(records)} optimal snapshot curves, {time.perf_counter() - start:.1f} s")
    print(f"{'tol':>10} {'exit 0':>7} {'exit 6':>7} {'raised':>7} {'worst spread':>13}  curve")
    failed = False
    for tol in TOLERANCES:
        row = tally[tol]
        spread, label = row["spread"]
        print(f"{tol:>10.3g} {row[0]:>7} {row[6]:>7} {len(row['raised']):>7} "
              f"{spread:>13.3g}  {label or '-'}")
        for line in row["raised"]:
            print(f"{'':>10} raised {line}")
        failed |= bool(row["raised"]) or (tol >= STRICT_FROM and row[0] != len(records))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
