#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --latency-limit-s 0.5 --workload cold-mix \\
        --seed 1 --seconds 32 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``cold-mix`` -- in-process closed loop, ``jobs=1``, fresh store:
  unique-seed ``analyze`` calls over pigz, nbody, memcached, vectoradd;
* ``trace-warm-sweep`` -- in-process closed loop, ``jobs=2``: new
  sessions sweeping widths 8/16/32 over stored traces and DCFG tables;
* ``serve-mix`` -- ``python -m repro serve`` driven by a closed loop of
  seeded warm, cold, paired and sweep requests over HTTP.

Set-up is timed in separate processes: two probes that only set up,
plus the measured run itself; ``setup_s`` is their median.  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  The exit code is nonzero when any request
failed, when any report differs from a fresh store-less ``jobs=1``
session, when a warm path executed the machine, or when the run could
not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("cold-mix", "trace-warm-sweep", "serve-mix")
#: Set-up timings per run (probes plus the measured run); setup_s is
#: their median.
SETUP_SAMPLES = 3
#: Wall-clock budget of one whole run, set-up probes included.
BUDGET_S = 170.0


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-s", type=float, required=True,
                        help="latency limit of goodput_rps")
    return parser.parse_args(argv)


class ChildFailed(RuntimeError):
    pass


def run_child(args: argparse.Namespace, root: str, work: str, out: str,
              deadline: float, setup_only: bool) -> Tuple[float, Dict]:
    """Start one workload process; ``(set-up seconds, raw result)``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--latency-limit-s", str(args.latency_limit_s),
           "--work", work, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Its own process group, so that a run past the budget takes the
    # server and pool workers it started down with it.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               kill_group)
    watchdog.start()
    setup_s: Optional[float] = None
    lines: List[str] = []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        kill_group()  # also reaps anything the child left behind
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise ChildFailed(f"{args.workload} process exited with "
                          f"{proc.returncode}")
    if setup_only:
        return setup_s, {}
    return setup_s, json.loads(lines[-1])


def verdict(raw: Dict) -> List[str]:
    """Why a run's outputs are wrong: report mismatches, warm-path
    executions, and any failed request.  Empty for a correct run."""
    problems = list(raw["mismatches"])
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} requests "
                        "failed")
    return problems


def main(argv: List[str]) -> int:
    args = parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(root, ".perfbench-work")
    out = os.path.join(root, ".perfbench-out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    try:
        setups = [run_child(args, root, work, out, deadline, True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, raw = run_child(args, root, work, out, deadline, False)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    figures = dict(raw["figures"])
    with open(os.path.join(root, "BENCHMARK.json")) as doc:
        names = [(m["name"], m["unit"]) for m in
                 json.load(doc)["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        figures["setup_s"] = statistics.median(setups)
    reported, unfilled = metrics.complete(figures, names)
    not_measured = sorted(set(raw.get("not_measured", [])) | set(unfilled))
    problems = verdict(raw)
    correct = not problems
    document = {
        "workloads": {args.workload: {name: entry["value"]
                                      for name, entry in reported.items()}},
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "failed_frac": metrics.ratio(raw["failed"], raw["attempted"]),
        "setup_samples_s": setups,
        "not_measured": not_measured, "absent": raw.get("absent", []),
        "screened_out": raw["screened_out"],
    }
    with open(os.path.join(out, f"{args.workload}-seed{args.seed}-trace"
                                f"{args.trace}.json"), "w") as doc:
        json.dump(document, doc, indent=1, sort_keys=True)
    for name, entry in reported.items():
        note = "  (not measured)" if name in not_measured else ""
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}{note}")
    print(f"# failed_frac = {document['failed_frac']:.6g} "
          f"({raw['failed']} of {raw['attempted']})")
    for seed in raw["screened_out"]:
        print(f"# screened_out: {seed} runs away (known defect, see "
              "perfbench/screen.py); not sent")
    for line in problems + raw.get("errors", []):
        print(f"# {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
