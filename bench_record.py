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

With both a ``parent`` and a ``change`` side, a ``pairs`` block pairs their
untraced runs by seed.  For each workload and end-to-end metric it holds the
number of pairs, how many the change won in the direction that
``BENCHMARK.json``'s ``better`` gives (a tie counts for neither side), the
change's median minus the parent's and the interquartile range of the
parent's runs, both over the paired runs, whether a gain may be claimed:
at least 10 pairs, at least nine tenths of them won, and the medians apart
by more than that range, in the better direction, and whether the change's
median is within the metric's ``bound``: no worse than the parent's by more
than that fraction of the parent's median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().with_name("BENCHMARK.json")
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


def pairs(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """The ``pairs`` block: per workload run on both sides, per metric ``declared`` (``BENCHMARK.json``'s
    ``end_to_end`` entries: name, better "higher" or "lower", bound), the pairs of runs of one seed and how the
    change fared in them."""
    block = {}
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        sides = [{r["seed"]: r["metrics"] for r in side if r["workload"] == workload} for side in (parent, change)]
        seeds = sorted(sides[0].keys() & sides[1].keys())
        if not seeds:
            continue
        block[workload] = {}
        for metric in declared:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            was, now = ([side[seed][name]["value"] for seed in seeds] for side in sides)
            q1, _, q3 = statistics.quantiles(was, n=4) if len(was) > 1 else was * 3
            before = statistics.median(was)
            difference = statistics.median(now) - before
            won = sum(sign * (b - a) > 0 for a, b in zip(was, now))
            block[workload][name] = {
                "pairs": len(seeds), "won": won, "median_difference": difference, "parent_iqr": q3 - q1,
                "gain_claimable": len(seeds) >= 10 and won >= 0.9 * len(seeds) and sign * difference > q3 - q1,
                "within_bound": sign * difference >= -metric["bound"] * abs(before),
            }
    return block


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all("=" in spec for spec in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    bench, untraced = {}, {}
    for spec in argv[1:]:
        label, directory = spec.split("=", 1)
        records = untraced[label] = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-t0.json"))]
        if not records:
            print(f"bench_record.py: no *-t0.json records in {directory}", file=sys.stderr)
            return 1
        traced = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-t1.json"))]
        bench[label] = summarize(records, traced)
    if {"parent", "change"} <= untraced.keys():
        declared = json.loads(BENCHMARK.read_text())["end_to_end"]
        bench["pairs"] = pairs(untraced["parent"], untraced["change"], declared)
    Path(argv[0]).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
