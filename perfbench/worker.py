"""Worker process of the benchmark.  Reads a JSON job on stdin.

`warm` job: set up (import manincert, load the snapshot, build the listed
levels' rational eigenspaces), then run operations in this one process until
the time budget or the operation count is used up.  Prints one JSON object.

`cold` job: one traced `manincert` CLI call.  The CLI's own output goes to
stdout unchanged; the spans follow on stderr, on one line after
tracing.SPANS_MARKER.  The exit code is the CLI's.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def start_tracer(op: int):
    tracer = tracing.Tracer()
    tracer.op = op
    root = tracer.begin(tracing.ROOT, start=T_START)
    return tracer, root


def import_package(tracer):
    """Import manincert (the CLI module imports every other one); when
    tracing, in its own span, and then wrap the package's functions."""
    idx = tracer.begin(tracing.IMPORT) if tracer is not None else None
    workloads.use_source_tree()
    import manincert.cli  # noqa: F401
    if tracer is not None:
        tracer.end(idx)
        tracer.install()


def run_warm(job: dict) -> dict:
    tracer = root = None
    if job["trace"]:
        tracer, root = start_tracer(-1)
    import_package(tracer)
    from manincert import lmfdb

    lmfdb.fixture_manifest()
    entries = {lab: e for lab, e in lmfdb.fixture_entries().items() if e.optimality_flag}
    refs = workloads.load_references()
    workloads.setup_numeric(job["levels"])
    if tracer is not None:
        tracer.end(root)
    ready = time.monotonic()

    deadline = ready + job["seconds"] if job["seconds"] is not None else None
    results = []
    sizes = []
    first = time.monotonic()
    for i, op in enumerate(job["ops"]):
        if len(results) >= job["min_ops"] and (
                deadline is None or time.monotonic() >= deadline):
            break
        if tracer is not None:
            tracer.op = i
            root = tracer.begin(tracing.ROOT)
        t0 = time.monotonic()
        try:
            err = workloads.run_and_check(op, entries, refs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            err = f"{op}: {type(exc).__name__}: {exc}"
        wall = time.monotonic() - t0
        if tracer is not None:
            tracer.end(root)
            sizes.append(tracer.sizes(workloads.op_level(op)))
        results.append([wall, err])
    last = time.monotonic()
    out = {"ready": ready, "results": results, "op_phase_s": last - first}
    if tracer is not None:
        out["trace"] = tracer.export()
        out["sizes"] = sizes
    return out


def run_cold(job: dict) -> int:
    tracer, root = start_tracer(job["op_id"])
    import_package(tracer)
    from manincert import cli

    try:
        rc = cli.main(job["argv"])
    finally:
        tracer.end(root)
        sys.stdout.flush()
        exported = tracer.export()
        exported["sizes"] = tracer.sizes(job["level"])
        sys.stderr.write(tracing.SPANS_MARKER + json.dumps(exported) + "\n")
    return rc


def main() -> int:
    job = json.loads(sys.stdin.read())
    if job["kind"] == "cold":
        return run_cold(job)
    json.dump(run_warm(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
