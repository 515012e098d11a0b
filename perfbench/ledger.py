#!/usr/bin/env python3
"""Per-layer ledger of single requests, as a markdown table.

Reproduces the "Where the time goes" cases of ``ROADMAP.md`` with the
benchmark's span wrappers: pigz@64 and nbody@64 cold without a store,
pigz@64 cold with a store, pigz@64 trace-warm in a new session, and
vectoradd@64 with and without a store.  Each case runs ``--reps``
times with unique seeds (the trace-warm case reuses the seed it
stored); the table gives medians in milliseconds.  All cases run at
``jobs=1`` with tracing on, so walls include the wrappers' overhead.

Usage, from the root of a checkout::

    python3 perfbench/ledger.py --seed 1 --reps 5
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans  # noqa: E402

COLUMNS = (
    ("execute", "machine.execute"), ("pack", "tracer.pack"),
    ("save", "tracer.io.save"), ("load", "tracer.io.load"),
    ("prepare", "core.prepare"), ("replay", "core.replay"),
    ("put", "artifacts.put"), ("get", "artifacts.get"),
    ("index", "index.commit"), ("build", "workloads.build"),
    ("glue", "session"),
)


def measure(tracer: spans.Tracer, label: str, store: Optional[str],
            program: str, threads: int, seed: int) -> Dict[str, float]:
    """Run one analyze as one request; its wall and per-layer self time."""
    from repro.session import AnalysisSession

    first = len(tracer.spans)
    with AnalysisSession(cache_dir=store, jobs=1) as session:
        with tracer.request(label):
            session.analyze(program, n_threads=threads, seed=seed)
    mine = tracer.spans[first:]
    root = mine[-1]
    row = {"wall": root.end - root.start}
    self_s = spans.self_times(mine)
    for column, span in COLUMNS:
        row[column] = self_s.get(span, 0.0)
    gap, wall = spans.uncovered(mine, layers.CONTAINERS)
    row["uncovered"] = gap / wall
    return row


def cases(tracer: spans.Tracer, work: str, seed: int, reps: int):
    from repro.artifacts import KIND_REPORT, ArtifactStore

    rng = random.Random(f"ledger/{seed}")

    def fresh_seed() -> int:
        return rng.randrange(1000, 2 ** 31 - 1)

    def store() -> str:
        return tempfile.mkdtemp(prefix="store-", dir=work)

    rows: Dict[str, List[Dict[str, float]]] = {}

    def run(case: str, path: Optional[str], program: str, threads: int,
            request_seed: int) -> None:
        rows.setdefault(case, []).append(
            measure(tracer, case, path, program, threads, request_seed))

    for _ in range(reps):
        run("pigz@64, no store, cold", None, "pigz", 64, fresh_seed())
        run("nbody@64, no store, cold", None, "nbody", 64, fresh_seed())
        path, pigz_seed = store(), fresh_seed()
        run("pigz@64, store, cold", path, "pigz", 64, pigz_seed)
        clearer = ArtifactStore(path)
        clearer.index  # so the clear reaches the result index
        clearer.clear(KIND_REPORT)
        run("pigz@64, trace-warm, new session", path, "pigz", 64, pigz_seed)
    path = store()
    for _ in range(max(reps, 20)):
        run("vectoradd@64, store", path, "vectoradd", 64, fresh_seed())
        run("vectoradd@64, no store", None, "vectoradd", 64, fresh_seed())
    return rows


def table(rows: Dict[str, List[Dict[str, float]]]) -> str:
    head = ["Case", "n", "Wall"] + [c for c, _ in COLUMNS] + ["uncovered"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for case, reps in rows.items():
        cells = [case, str(len(reps)),
                 f"{statistics.median(r['wall'] for r in reps) * 1e3:.1f}"]
        cells += [f"{statistics.median(r[c] for r in reps) * 1e3:.1f}"
                  for c, _ in COLUMNS]
        cells.append(
            f"{statistics.median(r['uncovered'] for r in reps):.1%}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="ledger-",
                            dir=os.path.join(root, ".perfbench-work"))
    tracer = spans.Tracer()
    installed, _ = layers.install(tracer)
    try:
        rows = cases(tracer, work, args.seed, args.reps)
    finally:
        installed.restore()
        shutil.rmtree(work, ignore_errors=True)
    print(table(rows))
    if installed.absent:
        print("\nabsent: " + ", ".join(installed.absent))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
