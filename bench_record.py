"""Gather perfbench records into a BENCH file of per-workload medians.

    python3 bench_record.py BENCH_8.json parent=../parent/perfbench/results change=perfbench/results

Each ``label=DIR`` names one side of a comparison and a directory of records
written by ``perfbench/run.py --trace 0`` (``*-t0.json``) and, optionally,
``--trace 1`` (``*-t1.json``).  For each side the BENCH file holds the
commits, library versions and ``nproc`` read from the untraced records and,
per workload, the seeds run, the operations attempted and failed, and the
median and quartiles of each end-to-end metric; where traced records of the
workload exist, a ``layers`` block holds their seeds and the median of each
per-layer metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")
ENVIRONMENT = ("commit", "python", "numpy", "scipy", "mpmath", "nproc")


def _distinct(values: list):
    """The one value all records share, or the sorted list of their values."""
    found = sorted(set(values), key=str)
    return found[0] if len(found) == 1 else found


def summarize(records: list[dict], traced: list[dict] = ()) -> dict:
    side = {key: _distinct([r[key] for r in records]) for key in ENVIRONMENT}
    side["workloads"] = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == workload), key=lambda r: r["seed"])
        entry = {
            "seeds": [r["seed"] for r in runs],
            "seconds": _distinct([r["seconds"] for r in runs]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
        for name in METRICS:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "unit": runs[0]["metrics"][name]["unit"]}
        layer_runs = sorted((r for r in traced if r["workload"] == workload), key=lambda r: r["seed"])
        if layer_runs:
            entry["layers"] = {"seeds": [r["seed"] for r in layer_runs]}
            for name, metric in layer_runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in layer_runs]
                entry["layers"][name] = {"median": statistics.median(values), "unit": metric["unit"]}
        side["workloads"][workload] = entry
    return side


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all("=" in spec for spec in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    bench = {}
    for spec in argv[1:]:
        label, directory = spec.split("=", 1)
        records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-t0.json"))]
        if not records:
            print(f"bench_record.py: no *-t0.json records in {directory}", file=sys.stderr)
            return 1
        traced = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-t1.json"))]
        bench[label] = summarize(records, traced)
    Path(argv[0]).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
