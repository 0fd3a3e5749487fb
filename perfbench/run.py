"""Benchmark driver for manincert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from src/; nothing
is installed.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; the line before it holds the details (samples, the tail
percentile, per-operation problem sizes).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = str(workloads.HERE / "worker.py")
# Children see no PYTHON* settings of the caller (such as -O or no bytecode
# cache), so that every checkout measures the same configuration: the one of
# an installed package, which reuses compiled bytecode.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
ENV["PYTHONPATH"] = str(workloads.SRC)
PROBE = ("import time, manincert.cli, manincert.lmfdb as l; "
         "l.fixture_manifest(); l.fixture_entries(); print(repr(time.monotonic()))")

# Set-ups per run; the median is reported.  certify-cold times this many
# probe processes (a fraction of a second each); the warm workloads split
# the run's operations over this many processes, each set up once.
SETUPS = {"certify-cold": 25, "numeric-warm": 2, "census-snapshot": 5}
# Operations per run at least, so that op_tail_s has ten samples beyond it.
MIN_OPS = 20
# Fixed work of a traced run (set-up plus this many operations), so that
# counts repeat exactly for a seed; see per_layer.
TRACE_OPS = {"certify-cold": 16, "numeric-warm": 60, "census-snapshot": 120}
# A run must end within 180 s.
CHILD_TIMEOUT_S = 120


def spawn(argv: list[str], stdin: str):
    """Run a child process to its end; a child that hangs is killed."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          env=ENV, cwd=workloads.ROOT, timeout=CHILD_TIMEOUT_S)
    return t0, proc


# -- certify-cold: one fresh process per operation ---------------------------


def cold_setup() -> float:
    t0, proc = spawn([sys.executable, "-c", PROBE], "")
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout) - t0


def cold_op(i: int, op, entries: dict, refs: dict, traced: bool):
    """Returns (wall, error or None, exported spans or None)."""
    _, label = op
    argv = workloads.cli_argv(op)
    job = {"kind": "cold", "argv": argv, "op_id": i, "level": workloads.op_level(op)}
    try:
        if traced:
            t0, proc = spawn([sys.executable, WORKER], json.dumps(job))
        else:
            t0, proc = spawn([sys.executable, "-m", "manincert.cli", *argv], "")
    except subprocess.TimeoutExpired:
        return CHILD_TIMEOUT_S, f"{label}: no answer within {CHILD_TIMEOUT_S} s", None
    stderr, _, spans = proc.stderr.partition(tracing.SPANS_MARKER)
    exported = json.loads(spans.split("\n", 1)[0]) if spans else None
    try:
        err = workloads.check_certify(label, proc.returncode, proc.stdout, refs,
                                      entries[label].modular_degree)
    except (ValueError, KeyError, TypeError) as exc:
        err = f"{label}: unreadable output ({exc}); stderr: {stderr.strip()[-300:]}"
    t1 = time.monotonic()
    if exported is not None:
        stretch_root(exported, t0, t1)
    return t1 - t0, err, exported


def cold_run(ops, entries, refs, seconds):
    """Untraced cold calls until `seconds` have passed and MIN_OPS are done."""
    results = []
    start = time.monotonic()
    deadline, hard = start + seconds, start + 4 * seconds
    for i, op in enumerate(ops):
        now = time.monotonic()
        if now >= hard or (len(results) >= MIN_OPS and now >= deadline):
            break
        wall, err, _ = cold_op(i, op, entries, refs, False)
        results.append([wall, err])
    return results, time.monotonic() - start


# -- warm workloads: long-lived worker processes -----------------------------


def warm_worker(levels, ops, seconds, min_ops, traced):
    job = {"kind": "warm", "levels": levels, "ops": ops, "seconds": seconds,
           "min_ops": min_ops, "trace": traced}
    t0, proc = spawn([sys.executable, WORKER], json.dumps(job))
    if proc.returncode:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["ready"] - t0
    if traced:
        stretch_root(out["trace"], t0)
    return out


def stretch_root(exported: dict, start: float, end: float | None = None):
    """Widen the set-up root span of a child process to cover what only the
    parent sees: process start, and for a cold call, exit and output checks."""
    for span in exported["spans"]:
        if span[3] < 0:
            span[1] = start
            if end is not None:
                span[2] = end
            return


# -- statistics ---------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it: the k-th
    smallest of n samples, k = n - 10.  Returns its value and k."""
    ordered = sorted(walls)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], k


def peak_rss_mb() -> float:
    """Peak RSS of the largest process this run waited for (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: int, levels, ops, entries, refs):
    k = SETUPS[name]
    if name == "certify-cold":
        setups = [cold_setup() for _ in range(k)]
        results, phase_s = cold_run(ops, entries, refs, seconds)
    else:
        setups, results, phase_s = [], [], 0.0
        for w in range(k):
            out = warm_worker(levels, ops[len(results):len(results) + 5000],
                              seconds / k, math.ceil(MIN_OPS / k), False)
            setups.append(out["setup_s"])
            results.extend(out["results"])
            phase_s += out["op_phase_s"]
    walls = [w for w, err in results if err is None]
    failed = len(results) - len(walls)
    tail_s, tail_k = tail(walls or [math.nan])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(walls) if walls else math.nan, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(walls) / phase_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (len(walls) / len(results), "fraction"),
    }
    detail = {"workload": name, "seed": seed, "setup_samples_s": setups,
              "ops": len(results), "op_samples": len(walls),
              "op_tail_percentile": 100.0 * tail_k / max(len(walls), 1),
              "op_tail_samples_beyond": len(walls) - tail_k,
              "errors": [err for _, err in results if err][:10]}
    return results, failed, metrics, detail


def per_layer(name: str, seed: int, levels, ops, entries, refs):
    """The fixed work once untraced and once traced, in ABBA order so that
    drift in machine speed cancels out of the overhead ratio: per operation
    for certify-cold, per worker process (plain, traced, traced, plain) for
    the warm workloads.  Layer totals are per traced pass."""
    n = TRACE_OPS[name]
    ops = ops[:n]
    plain, traced, exported, sizes = [], [], [], []
    plain_wall = 0.0
    if name == "certify-cold":
        passes = 1
        for i, op in enumerate(ops):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                wall, err, ex = cold_op(i, op, entries, refs, with_trace)
                if with_trace:
                    traced.append([wall, err])
                    if ex is not None:
                        sizes.append(ex.pop("sizes"))
                        exported.append(ex)
                else:
                    plain.append([wall, err])
                    plain_wall += wall
    else:
        passes = 2
        for with_trace in (False, True, True, False):
            out = warm_worker(levels, ops, None, n, with_trace)
            if with_trace:
                traced += out["results"]
                sizes = sizes or out["sizes"]
                exported.append(out["trace"])
            else:
                plain += out["results"]
                plain_wall += (out["setup_s"] + sum(w for w, _ in out["results"])) / passes
    facts = [ex.pop("facts") for ex in exported]
    self_s, calls, total, misnested = tracing.self_times(exported)
    total /= passes
    metric_of = tracing.span_metric()
    metrics = {m: 0.0 for m in metric_of.values()}
    for span_name, s in self_s.items():
        metrics[metric_of[span_name]] += s / passes
    out = {m: (v, "s") for m, v in metrics.items()}
    for m, names in tracing.CALL_COUNTS.items():
        out[m] = (sum(calls.get(x, 0) for x in names) // passes, "count")
    built = sum(f["spaces_built"] for f in facts) // passes
    build_calls = sum(f["build_calls"] for f in facts) // passes
    out["modsym.spaces_built"] = (built, "count")
    out["modsym.space_hit_ratio"] = (
        (build_calls - built) / build_calls if build_calls else 0.0, "ratio")
    out["heckeforms.precision_ratio"] = (max(f["precision_ratio"] for f in facts), "ratio")
    out["intlattice.max_entry_bits"] = (max(f["max_entry_bits"] for f in facts), "bits")
    out["trace.wall_s"] = (total, "s")
    out["trace.overhead_ratio"] = (total / plain_wall, "ratio")
    results = plain + traced
    failed = sum(1 for _, err in results if err)
    detail = {"workload": name, "seed": seed, "ops": n, "traced_passes": passes,
              "untraced_wall_s": plain_wall, "traced_wall_s": total, "sizes": sizes,
              "errors": [err for _, err in results if err][:10]}
    if misnested:
        detail["errors"].append(f"{misnested} spans lie outside their parent span")
    return results, failed, out, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        entries = workloads.optimal_entries()
        refs = workloads.load_references()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    levels, ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        results, failed, metrics, detail = per_layer(
            args.workload, args.seed, levels, ops, entries, refs)
    else:
        results, failed, metrics, detail = end_to_end(
            args.workload, args.seed, args.seconds, levels, ops, entries, refs)
    for err in detail["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not detail["errors"],
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
