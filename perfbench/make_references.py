"""Record the reference outputs that the benchmark's checks compare with.

    python3 perfbench/make_references.py

Runs the manincert CLI in this process, with default flags apart from
--format json, on every certify label and census bound that a workload can
draw, and writes references.json next to this file.  The references in the
repository were recorded at the commit that added the benchmark; rerun this
only on purpose, when a change of output is intended.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CENSUS_AT_200 = (62, 47, 10, 5)
REMAINING_AT_200 = ["130.a2", "130.b4", "130.c1", "170.a2", "170.b1"]


def main() -> int:
    entries = workloads.optimal_entries()
    labels = sorted((lab for lab, e in entries.items()
                     if e.conductor <= workloads.CERTIFY_CAP or e.conductor == 530),
                    key=lambda lab: (workloads.label_level(lab), lab))
    refs = {"certify": {}, "census": {}}
    for lab in labels:
        rc, out = workloads.run_cli(["certify", lab])
        payload = json.loads(out)
        refs["certify"][lab] = {
            "rc": rc,
            "conclusion": payload["conclusion"],
            "per_prime": [[pc["prime"], pc["status"], pc["rule"]]
                          for pc in payload["per_prime"]],
        }
        print(lab, rc, payload["conclusion"], file=sys.stderr)
    for bound in workloads.CENSUS_BOUNDS:
        rc, out = workloads.run_cli(["census", bound])
        if rc != 0:
            raise SystemExit(f"census {bound} exited with {rc}")
        payload = json.loads(out)
        refs["census"][str(bound)] = {
            "selected_count": payload["selected_count"],
            "settled_mm1_count": payload["settled_mm1_count"],
            "settled_mm15_count": payload["settled_mm15_count"],
            "remaining_after_mm15": sorted(payload["remaining_after_mm15"]),
        }
    at_200 = refs["census"]["200"]
    counts = (at_200["selected_count"], at_200["settled_mm1_count"],
              at_200["settled_mm15_count"], len(at_200["remaining_after_mm15"]))
    if counts != CENSUS_AT_200 or at_200["remaining_after_mm15"] != REMAINING_AT_200:
        raise SystemExit(f"census at 200 is {counts} {at_200['remaining_after_mm15']}, "
                         f"the published census is {CENSUS_AT_200} {REMAINING_AT_200}")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
