#!/usr/bin/env python
"""Compare two BENCH_*.json files and fail on regressions.

Flattens both files into dotted numeric keys (``workloads.nbody.speedup``)
and compares every metric present in both.  Direction is inferred from
the key name:

* lower-is-better: keys ending in ``_s`` (wall-clock seconds);
* higher-is-better: keys ending in ``_ips``, ``speedup``,
  ``hit_rate``, ``efficiency``, or ``_fraction``;
* everything else (counts, configuration echoes) is reported when it
  changes but never fails the run.

Usage::

    python tools/bench_compare.py BASELINE.json CURRENT.json \
        [--max-regression PCT] [--only SUBSTR ...] [--quiet]
    python tools/bench_compare.py --list-metrics BENCH.json [...]

``--only SUBSTR`` (repeatable) restricts the comparison to flattened
keys containing any given substring.  CI uses it to gate on
machine-independent metrics (``--only vector_token_fraction``,
``--only speedup``) while ignoring absolute wall-clock numbers measured
on different hardware.  A filter that leaves no key present in both
files is an error, never a vacuous pass.

Exit-code contract (stable for scripting/CI):

* **0** -- comparison ran and no directional metric regressed beyond
  ``--max-regression`` percent (default 10); also the
  ``--list-metrics`` success path;
* **1** -- the comparison ran and at least one directional metric
  regressed beyond the threshold;
* **2** -- an input file is missing, unreadable, or malformed JSON,
  or ``--only`` matched no key present in both files (reported on
  stderr; distinct from "regression found").

Keys present in only one file are reported but never fatal, so
workloads can be added or retired without breaking the comparison.

``--list-metrics`` prints every tracked (flattened) metric of the given
file(s) with its inferred direction instead of comparing -- the
documentation enumerates tracked metrics through this flag rather than
hand-maintained tables.

The flattening and direction rules are shared with the sqlite result
index (:mod:`repro.index`) -- ``threadfuser index ingest``/``history``
track the same metric names this tool compares, so a two-file diff and
the multi-point trajectory can never disagree about what a metric is
called or which way is better.
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.index import (  # noqa: E402  (path bootstrap above)
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    flatten_numeric as flatten,
    metric_direction as direction,
)


def compare(baseline, current, max_regression):
    """Return (report lines, regression lines) for two flat dicts."""
    lines = []
    regressions = []
    for key in sorted(set(baseline) | set(current)):
        if key not in baseline:
            lines.append(f"  new      {key} = {current[key]:g}")
            continue
        if key not in current:
            lines.append(f"  removed  {key} (was {baseline[key]:g})")
            continue
        before, after = baseline[key], current[key]
        if before == after:
            continue
        sign = direction(key)
        if sign == 0:
            lines.append(f"  changed  {key}: {before:g} -> {after:g}")
            continue
        if before == 0:
            lines.append(f"  changed  {key}: {before:g} -> {after:g} "
                         "(zero baseline, not scored)")
            continue
        # Positive delta_pct always means "got worse".
        delta_pct = (before - after) / before * 100.0 * sign
        verdict = "worse" if delta_pct > 0 else "better"
        line = (f"  {verdict:<8} {key}: {before:g} -> {after:g} "
                f"({abs(delta_pct):.1f}% {verdict})")
        lines.append(line)
        if delta_pct > max_regression:
            regressions.append(line.strip())
    return lines, regressions


def restrict(flat, only):
    """Keep the keys containing any of the ``only`` substrings."""
    if not only:
        return flat
    return {key: value for key, value in flat.items()
            if any(substr in key for substr in only)}


def list_metrics(paths, only=None):
    """Print every flattened metric of ``paths`` with its direction.

    Returns the exit code: 0, or 2 when a file is unreadable
    (matching the contract in the module docstring).
    """
    labels = {-1: "lower-is-better", 1: "higher-is-better", 0: "neutral"}
    for path in paths:
        flat = _load(path)
        if flat is None:
            return 2
        flat = restrict(flat, only)
        print(f"{path}: {len(flat)} tracked metric(s)")
        for key in sorted(flat):
            print(f"  {labels[direction(key)]:<16} {key} = {flat[key]:g}")
    return 0


def _load(path):
    try:
        with open(path) as fh:
            return flatten(json.load(fh))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}",
              file=sys.stderr)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files; fail on regressions.",
        epilog="Exit codes: 0 no regression (or --list-metrics ok); "
               "1 a directional metric regressed beyond --max-regression; "
               "2 missing/unreadable/malformed input, or --only "
               "matched no metric present in both files.")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="baseline BENCH_*.json")
    parser.add_argument("current", nargs="?", default=None,
                        help="current BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=10.0,
                        metavar="PCT",
                        help="tolerated per-metric regression in percent "
                             "(default: %(default)s)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SUBSTR",
                        help="compare only flattened keys containing this "
                             "substring (repeatable; e.g. --only speedup "
                             "gates ratio metrics only)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only regressions")
    parser.add_argument("--list-metrics", action="store_true",
                        help="list the tracked metrics (with inferred "
                             "direction) of the given file(s) instead of "
                             "comparing")
    args = parser.parse_args(argv)

    if args.list_metrics:
        paths = [p for p in (args.baseline, args.current) if p]
        if not paths:
            parser.error("--list-metrics needs at least one BENCH file")
        return list_metrics(paths, only=args.only)
    if args.baseline is None or args.current is None:
        parser.error("need BASELINE.json and CURRENT.json "
                     "(or --list-metrics FILE)")

    baseline = _load(args.baseline)
    current = _load(args.current)
    if baseline is None or current is None:
        return 2
    baseline = restrict(baseline, args.only)
    current = restrict(current, args.only)
    if args.only and not set(baseline) & set(current):
        print(f"error: --only {' '.join(args.only)} matches no metric "
              "present in both files", file=sys.stderr)
        return 2

    lines, regressions = compare(baseline, current, args.max_regression)
    if not args.quiet:
        print(f"comparing {args.current} against {args.baseline} "
              f"(threshold {args.max_regression:g}%)")
        for line in lines:
            print(line)
        if not lines:
            print("  no differences")
    if regressions:
        print(f"{len(regressions)} metric(s) regressed beyond "
              f"{args.max_regression:g}%:")
        for line in regressions:
            print(f"  {line}")
        return 1
    if args.quiet:
        print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
