"""Workload inputs, operations and output checks, shared by the driver
(run.py) and its worker processes (worker.py).

Inputs come from the bundled snapshot and the seed only.  Workloads draw in
stratified rounds (see stratified_rounds): the candidates are sorted by a
size proxy and cut into strata, so that a run of any length sees the same
mix of small and large cases, and the seed sets the order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

CERTIFY_CAP = 70  # certify-cold: conductors <= 70, at most ~2 s per request
NUMERIC_CAP = 100  # numeric-warm: the range of acceptance criteria 4 and 5
NUMERIC_STRATA = 10
NUMERIC_TOL = 1e-8  # tolerances of acceptance criterion 4
NUMERIC_RESIDUAL = 1e-6
CENSUS_BOUNDS = range(11, 201)
CENSUS_PER_530 = 3  # census operations per certify of a 530.* curve


def use_source_tree():
    """Import manincert from the checkout's src/, never an installed copy."""
    if not (SRC / "manincert" / "__init__.py").is_file():
        raise FileNotFoundError(f"no manincert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def optimal_entries() -> dict:
    use_source_tree()
    from manincert.lmfdb import fixture_entries

    return {lab: e for lab, e in fixture_entries().items() if e.optimality_flag}


def size_proxy(level: int) -> int:
    """mu(N) * g(N): orders the cost of the modular-symbol stages."""
    from manincert.modsym import genus_x0, index_mu

    return index_mu(level) * max(genus_x0(level), 1)


def stratified_rounds(items, key, strata: int, rounds: int, rng: random.Random):
    """`rounds` seeded passes over all items.  Within a pass, items come in
    sweeps that take one not yet used item from every stratum, in a seeded
    order, so any prefix holds each stratum in about equal shares."""
    ordered = sorted(items, key=lambda x: (key(x), str(x)))
    size = len(ordered) / strata
    groups = [ordered[round(i * size):round((i + 1) * size)] for i in range(strata)]
    out = []
    for _ in range(rounds):
        for g in groups:
            rng.shuffle(g)
        for j in range(max(len(g) for g in groups)):
            sweep = [g[j] for g in groups if j < len(g)]
            rng.shuffle(sweep)
            out.extend(sweep)
    return out


def label_level(label: str) -> int:
    return int(label.split(".")[0])


# -- inputs -----------------------------------------------------------------


def certify_cold_inputs(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    labels = [lab for lab, e in optimal_entries().items() if e.conductor <= CERTIFY_CAP]
    picks = stratified_rounds(labels, lambda lab: size_proxy(label_level(lab)),
                              16, 20, rng)
    return [], [["certify", lab] for lab in picks]


def numeric_warm_levels() -> list[int]:
    """The middle level of each of 10 size strata of the levels <= 100 that
    carry optimal curves.  The set is the same for every seed: with seeded
    sets the median operation time moved by a quarter or more between seeds,
    because per-curve costs span two orders of magnitude."""
    levels = sorted({e.conductor for e in optimal_entries().values()
                     if e.conductor <= NUMERIC_CAP})
    ordered = sorted(levels, key=lambda n: (size_proxy(n), n))
    size = len(ordered) / NUMERIC_STRATA
    return sorted(ordered[round((i + 0.5) * size)] for i in range(NUMERIC_STRATA))


def numeric_warm_inputs(seed: int) -> tuple[list, list]:
    """Set-up levels: numeric_warm_levels().  Operations: their curves, in a
    new seeded order each round."""
    rng = random.Random(seed)
    levels = numeric_warm_levels()
    curves = sorted(lab for lab, e in optimal_entries().items() if e.conductor in levels)
    ops = []
    for _ in range(400):
        rng.shuffle(curves)
        ops.extend(["numeric", lab] for lab in curves)
    return levels, ops


def census_snapshot_inputs(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    bounds = stratified_rounds(list(CENSUS_BOUNDS), int, 10, 40, rng)
    at_530 = sorted(lab for lab, e in optimal_entries().items() if e.conductor == 530)
    ops = []
    for i, b in enumerate(bounds):
        ops.append(["census", b])
        if i % CENSUS_PER_530 == CENSUS_PER_530 - 1:
            ops.append(["certify", rng.choice(at_530)])
    return [], ops


# -- operations (run inside the worker processes) ---------------------------


def cli_argv(op) -> list[str]:
    """CLI arguments of a CLI operation; flags other than --format keep
    their defaults (so census runs with the default --workers)."""
    kind, arg = op
    if kind == "certify":
        return ["--format", "json", "certify", "--label", arg]
    if kind == "census":
        return ["--format", "json", "census", "--max-conductor", str(arg)]
    raise ValueError(f"not a CLI operation: {op!r}")


def run_cli(op) -> tuple[int, str]:
    from manincert import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(cli_argv(op))
    return rc, out.getvalue()


def setup_numeric(levels):
    from manincert import modsym

    for n in levels:
        modsym.build_space(n).rational_eigenspaces()


def fresh_newforms(space) -> list:
    """Copies of the level's cached newforms as set-up left them.

    A newform memoizes the a_p and a_n that a query computes, and the space
    caches the newform.  Handing each operation fresh copies makes it do the
    work of a first query on its curve (point counts, the a_n recursion),
    as oracle queries made once per curve do, instead of reading an earlier
    operation's memo.  The cached originals are never handed out, so they
    keep their set-up state.
    """
    return [dataclasses.replace(g, ap=dict(g.ap), _an=dict(g._an))
            for g in space.rational_eigenspaces()]


def run_numeric(label: str, entries: dict) -> dict:
    """The oracle queries of acceptance criteria 4 and 5 on one curve, in
    the order and with the a_p source that `manincert numeric` uses, from
    the state a first query on the curve sees (see fresh_newforms)."""
    from manincert import elliptic, invariants, lmfdb, modsym, periods

    rec = lmfdb.record_from_entry(entries[label])
    space = modsym.build_space(rec.conductor)
    f = elliptic.match_curve_to_newform(rec.model, rec.conductor,
                                        fresh_newforms(space))
    deg = invariants.modular_degree(space, f)
    f._ap_provider = elliptic.curve_ap_provider(rec.model)
    lat_e = periods.elliptic_period_lattice(rec.model, NUMERIC_TOL)
    lat_f = periods.newform_period_lattice(space, f, NUMERIC_TOL)
    c, resid = periods.manin_constant_numeric(lat_e, lat_f, NUMERIC_RESIDUAL)
    return {"degree": deg.degree, "index_used": deg.index_used,
            "abs_c": c, "residual": resid}


# -- output checks ----------------------------------------------------------
# Each returns None when the output is right, else what is wrong.  They read
# only the fields that carry the result.


def check_certify(label: str, rc: int, stdout: str, refs: dict, degree: int | None):
    ref = refs["certify"][label]
    if rc != ref["rc"]:
        return f"{label}: exit code {rc}, expected {ref['rc']}"
    payload = json.loads(stdout)
    if payload["conclusion"] != ref["conclusion"]:
        return f"{label}: conclusion {payload['conclusion']}, expected {ref['conclusion']}"
    per_prime = [[pc["prime"], pc["status"], pc["rule"]] for pc in payload["per_prime"]]
    if per_prime != ref["per_prime"]:
        return f"{label}: per-prime (status, rule) {per_prime}, expected {ref['per_prime']}"
    computed = payload.get("computed", {})
    if "degree" in computed and computed["degree"] != degree:
        return f"{label}: degree {computed['degree']}, snapshot has {degree}"
    if "r_f" in computed and computed["r_f"] % computed.get("degree", degree):
        return f"{label}: degree does not divide r_f = {computed['r_f']}"
    return None


def check_census(bound: int, rc: int, stdout: str, refs: dict):
    ref = refs["census"][str(bound)]
    if rc != 0:
        return f"census {bound}: exit code {rc}"
    payload = json.loads(stdout)
    got = {k: payload[k] for k in ref if k != "remaining_after_mm15"}
    got["remaining_after_mm15"] = sorted(payload["remaining_after_mm15"])
    if got != ref:
        return f"census {bound}: {got}, expected {ref}"
    return None


def check_numeric(label: str, res: dict, degree: int):
    if res["degree"] != degree or res["index_used"] != degree ** 2:
        return f"{label}: degree {res['degree']} (index {res['index_used']}), snapshot {degree}"
    if res["abs_c"] != 1 or not res["residual"] < NUMERIC_RESIDUAL:
        return f"{label}: |c| = {res['abs_c']}, residual {res['residual']}"
    return None


def run_and_check(op, entries: dict, refs: dict):
    """Run one in-process operation; return None or what went wrong."""
    kind, arg = op
    if kind == "numeric":
        return check_numeric(arg, run_numeric(arg, entries), entries[arg].modular_degree)
    rc, out = run_cli(op)
    if kind == "census":
        return check_census(arg, rc, out, refs)
    return check_certify(arg, rc, out, refs, entries[arg].modular_degree)


def op_level(op) -> int:
    kind, arg = op
    return arg if kind == "census" else label_level(arg)


WORKLOADS = {
    "certify-cold": certify_cold_inputs,
    "numeric-warm": numeric_warm_inputs,
    "census-snapshot": census_snapshot_inputs,
}
