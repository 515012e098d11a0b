"""Analyzer replay throughput of the warp replayer.

Times ``analyze()`` over the five core workloads plus a synthetic
replicated-lane workload that exercises the warp-memo fast path
directly.  Results go to ``benchmarks/results/perf_replay.txt`` and the
machine-readable ``BENCH_replay.json`` at the repo root.

Per workload the file records the best-of-``ROUNDS`` replay time
(``replay_s``) and its thread-instruction throughput (``ips``), the
fraction of tokens the replayer consumed through its bulk-span steps
(``vector_token_fraction``) and the memo counts.  Packing is not
charged here: the tracer records straight into the packed columns
(``BENCH_core.json``'s traced throughput includes it).

Every core report must match the frozen seed report of its cell in
``tests/fixtures/seed_reports.json`` bit for bit, and the replicated
workload must report the same with memoization on and off.  Two
deterministic, hardware-independent metrics are gated against the
committed ``BENCH_replay.json``: no workload's ``vector_token_fraction``
may fall below its committed value (a bulk-span step that stopped
firing), and the replicated workload must hit the memo on every warp
after the first.

Two modes:

* full (default): five workloads at 64 threads, best-of-3; rewrites
  ``BENCH_replay.json``.
* smoke (``THREADFUSER_PERF_SMOKE=1``): one workload, best-of-2 -- a CI
  canary for the checks above, not a precision measurement.
"""

import json
import os
import sys
import time

from conftest import emit, run_once

from repro.core import vector
from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.obs import Recorder
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from seed_fixture import canonical, dumps, expected, grid_cell  # noqa: E402

BENCH_FILE = os.path.join(ROOT, "BENCH_replay.json")

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

WORKLOADS = ["nbody"] if SMOKE else [
    "nbody", "pigz", "memcached", "streamcluster", "md5",
]
#: A frozen seed grid size, so every core report has a reference cell.
N_THREADS = 64
WARP_SIZE = 32
ROUNDS = 2 if SMOKE else 3


def _committed_fractions():
    """``{workload: vector_token_fraction}`` of the committed file."""
    try:
        with open(BENCH_FILE) as fh:
            rows = json.load(fh).get("workloads", {})
    except (OSError, ValueError):
        return {}
    return {name: row["vector_token_fraction"] for name, row in rows.items()
            if "vector_token_fraction" in row}


def _replicated_traces(n_threads):
    """A trace set whose threads all share one token stream.

    Real workloads give every thread private stack/heap addresses, so
    their warp-memo hit rate is legitimately ~0; this synthetic SPMD
    workload is the memo fast path's showcase: every warp after the
    first replays for free.
    """
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    replicated = TraceSet(workload="replicated")
    for tid in range(n_threads):
        thread = replicated.new_thread(tid, root)
        thread.tokens = list(tokens)
    return replicated


def _measure(traces):
    cfg = AnalyzerConfig(warp_size=WARP_SIZE)
    replay_s = float("inf")
    for _ in range(ROUNDS):
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(cfg, recorder=recorder)
        t0 = time.perf_counter()
        report = analyzer.analyze(traces)
        replay_s = min(replay_s, time.perf_counter() - t0)

    gauges = recorder.telemetry().gauges
    lookups = gauges.get("memo.warp_lookups", 0)
    hits = gauges.get("memo.warp_hits", 0)
    instructions = report.metrics.thread_instructions
    row = {
        "thread_instructions": instructions,
        "replay_s": replay_s,
        "ips": instructions / replay_s,
        "vector_token_fraction": gauges.get(
            "replay.vector_token_fraction", 0.0),
        "memo_lookups": lookups,
        "memo_hits": hits,
        "memo_hit_rate": hits / lookups if lookups else 0.0,
    }
    return row, report


def test_replay_throughput(benchmark):
    committed = _committed_fractions()

    def experiment():
        rows = {}
        for name in WORKLOADS:
            traces, _ = trace_instance(
                get_workload(name).instantiate(N_THREADS))
            rows[name], report = _measure(traces)
            assert dumps(canonical(report)) == expected(
                grid_cell(name, WARP_SIZE, "off")), name
        replicated = _replicated_traces(2 * WARP_SIZE)
        rows["replicated"], report = _measure(replicated)
        plain = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                    memo=False).analyze(replicated)
        assert dumps(canonical(report)) == dumps(canonical(plain))
        return rows

    rows = run_once(benchmark, experiment)

    lines = [
        "Analyzer replay throughput "
        f"({'smoke' if SMOKE else 'full'} mode, {N_THREADS} threads, "
        f"warp {WARP_SIZE}, best of {ROUNDS}, "
        f"vector backend {vector.BACKEND})",
        "{:<14} {:>11} {:>8} {:>12} {:>6} {:>5}"
        .format("workload", "thread-ins", "replay", "ips", "vfrac",
                "memo"),
        "{:<14} {:>11} {:>8} {:>12} {:>6} {:>5}"
        .format("", "", "ms", "", "", "rate"),
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<14} {r['thread_instructions']:>11} "
            f"{r['replay_s'] * 1e3:>8.1f} "
            f"{r['ips']:>12.0f} "
            f"{r['vector_token_fraction']:>6.2f} "
            f"{r['memo_hit_rate']:>5.2f}"
        )
    emit("perf_replay_smoke" if SMOKE else "perf_replay",
         "\n".join(lines))

    if not SMOKE:
        payload = {
            "mode": "full",
            "n_threads": N_THREADS,
            "warp_size": WARP_SIZE,
            "rounds": ROUNDS,
            "unit": "thread-instructions/second of analyze(), "
                    "single process",
            "vector_backend": vector.BACKEND,
            "workloads": rows,
        }
        with open(BENCH_FILE, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for name, floor in committed.items():
        if name in rows:
            assert rows[name]["vector_token_fraction"] >= floor, (
                f"{name}: bulk-span token fraction "
                f"{rows[name]['vector_token_fraction']:.4f} fell below "
                f"the committed {floor:.4f}")

    # The replicated workload must demonstrate the memo fast path:
    # every warp after the first is a hit.
    replicated = rows["replicated"]
    assert replicated["memo_lookups"] >= 2
    assert replicated["memo_hits"] == replicated["memo_lookups"] - 1
