#!/usr/bin/env python3
"""Fold the per-run results files into one ``BENCH_*.json`` document.

Every run of ``run.py`` writes ``.perfbench-out/<workload>-seed<n>-
trace<t>.json``.  This script takes the median of each metric over the
runs of each workload and writes them, with their quartile spread and
seeds, as ``workloads.<workload>.<metric>`` (per-layer metrics under
``workloads.<workload>.layer.<metric>``) -- the layout ``threadfuser
index ingest`` and ``index history --workload`` read.

Usage, from the root of a checkout::

    python3 perfbench/collect.py --out perfbench/results/BENCH_perfbench.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List


def fold(paths: List[str]) -> Dict:
    values: Dict[str, Dict[str, List[float]]] = {}
    seeds: Dict[str, List[int]] = {}
    for path in sorted(paths):
        with open(path) as doc:
            run = json.load(doc)
        prefix = "layer." if run["trace"] else ""
        for workload, metrics in run["workloads"].items():
            seeds.setdefault(workload, []).append(run["seed"])
            for name, value in metrics.items():
                if name in run["not_measured"]:
                    continue
                values.setdefault(workload, {}).setdefault(
                    prefix + name, []).append(value)
    out: Dict = {"workloads": {}, "spread": {}, "runs": {}}
    for workload, metrics in sorted(values.items()):
        out["runs"][workload] = {"count": len(seeds[workload]),
                                 "seeds": sorted(set(seeds[workload]))}
        out["workloads"][workload] = {
            name: statistics.median(v) for name, v in sorted(metrics.items())}
        out["spread"][workload] = {
            name: _iqr_share(v) for name, v in sorted(metrics.items())
            if len(v) >= 4 and not name.startswith("layer.")}
    return out


def _iqr_share(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", default=".perfbench-out",
                        help="directory of per-run results files")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    paths = glob.glob(os.path.join(args.runs, "*-seed*-trace*.json"))
    if not paths:
        print(f"error: no results files in {args.runs}", file=sys.stderr)
        return 2
    with open(args.out, "w") as out:
        json.dump(fold(paths), out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
