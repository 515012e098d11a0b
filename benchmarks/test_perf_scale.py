"""Parallel-substrate scaling: persistent shared-memory pool vs serial.

Measures warm-call replay wall clock at paper-scale thread counts
(512-4096 logical threads, vs the 64-96 of the other benchmarks) for
``jobs`` 1/2/4/8 on the persistent :mod:`repro.pool` workers --
spawned once, traces attached zero-copy from a shared-memory column
arena, worker-resident signature-keyed memo reused across calls --
against the in-process serial analyzer (``jobs=1``), the path every
``jobs>1`` run falls back to.

The workload is synthetic SPMD at scale: every thread replays the
vectoradd kernel's token stream with thread-private memory addresses,
so lane signatures are unique (no intra-call memo shortcut -- each
warp really replays) while repeated calls see identical content (the
cross-call amortization the persistent substrate exists for).  The
"warm call" protocol matches the serving-loop shape: the first call
pays spawn+attach, then repeated analyze() calls over the same traces
are timed.

Results go to ``benchmarks/results/perf_scale.txt`` and the
machine-readable ``BENCH_scale.json`` at the repo root (gated by
``tools/bench_compare.py``).

Two modes:

* full (default): the complete thread-count x jobs grid, best-of-2;
  asserts the acceptance target -- >= 1.3x warm-call speedup over the
  serial analyzer at jobs=4 for every 512+ thread count -- plus
  bit-identical reports across serial/shared and zero leaked
  shared-memory segments.
* smoke (``THREADFUSER_PERF_SMOKE=1``): 128 threads, jobs=2, one
  round, a generous floor -- a CI canary, not a measurement.
"""

import json
import os
import pickle
import time

from conftest import emit, run_once

import repro.pool as pool_mod
from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

THREAD_COUNTS = [128] if SMOKE else [512, 1024, 2048, 4096]
JOBS = [2] if SMOKE else [1, 2, 4, 8]
WARP_SIZE = 32
ROUNDS = 1 if SMOKE else 2

#: Full-mode acceptance: warm shared-pool calls at jobs=4 must beat the
#: serial analyzer by this factor on 512+ threads.
FULL_MIN_WARM_SPEEDUP = 1.3

#: Smoke floor: the shared substrate must not be drastically slower.
SMOKE_MIN_WARM_SPEEDUP = 0.3


def _canonical(report):
    return pickle.dumps(report)


def _scaled_traces(n_threads):
    """The vectoradd kernel stream tiled to ``n_threads`` SPMD lanes.

    Control flow is identical across lanes (one DCFG, convergent
    replay) but every memory address is offset by a thread-private
    stride, so each lane's packed columns -- and therefore its content
    signature -- are unique: no two warps share a memo key within one
    call, and the measured speedup is substrate overhead, not the
    intra-call memo shortcut.
    """
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    scaled = TraceSet(workload=f"scaled-{n_threads}")
    for tid in range(n_threads):
        offset = tid * 64
        scaled.new_thread(tid, root).tokens = [
            (kind, addr, n_ins,
             tuple((slot, store, mem_addr + offset, size)
                   for slot, store, mem_addr, size in mems))
            for kind, addr, n_ins, mems in tokens
        ]
    return scaled


def _timed_calls(analyzer, traces, dcfgs, rounds):
    """Best wall clock over ``rounds`` analyze() calls (plus report)."""
    best = float("inf")
    report = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        report = analyzer.analyze(traces, dcfgs=dcfgs)
        best = min(best, time.perf_counter() - t0)
    return best, report


def _measure(n_threads):
    cfg = AnalyzerConfig(warp_size=WARP_SIZE)
    traces = _scaled_traces(n_threads)
    serial = ThreadFuserAnalyzer(cfg, jobs=1)
    dcfgs = serial.prepare(traces)
    serial_s, serial_report = _timed_calls(serial, traces, dcfgs, ROUNDS)
    reference = _canonical(serial_report)

    cells = {}
    for jobs in JOBS:
        shared = ThreadFuserAnalyzer(cfg, jobs=jobs)
        # Warm-up call: pays worker spawn (first time only), arena
        # build+attach, and the memo-filling replay.
        cold0 = time.perf_counter()
        warm_report = shared.analyze(traces, dcfgs=dcfgs)
        cold_s = time.perf_counter() - cold0
        assert _canonical(warm_report) == reference, (n_threads, jobs)
        shared_s, shared_report = _timed_calls(shared, traces, dcfgs,
                                               ROUNDS)
        assert _canonical(shared_report) == reference, (n_threads, jobs)

        cells[jobs] = {
            "shared_cold_s": cold_s,
            "shared_warm_s": shared_s,
            "warm_speedup": serial_s / shared_s,
        }
    snapshot = pool_mod.stats_snapshot()
    row = {
        "serial_s": serial_s,
        "jobs": cells,
        "arena_bytes": snapshot.get("arena_bytes", 0),
    }
    pool_mod.release_arena(traces)
    return row


def test_substrate_scaling(benchmark):
    def experiment():
        return {n: _measure(n) for n in THREAD_COUNTS}

    rows = run_once(benchmark, experiment)

    mode = "smoke" if SMOKE else "full"
    lines = [
        "Parallel-substrate scaling (persistent shared-memory pool vs "
        f"serial; {mode} mode, warp {WARP_SIZE}, "
        f"best of {ROUNDS} warm calls)",
        "{:>8} {:>5} {:>10} {:>11} {:>10} {:>8}".format(
            "threads", "jobs", "serial", "shared-cold", "shared",
            "speedup"),
        "{:>8} {:>5} {:>10} {:>11} {:>10} {:>8}".format(
            "", "", "ms", "ms", "ms", ""),
    ]
    for n_threads, row in rows.items():
        for jobs, cell in row["jobs"].items():
            lines.append(
                f"{n_threads:>8} {jobs:>5} "
                f"{row['serial_s'] * 1e3:>10.1f} "
                f"{cell['shared_cold_s'] * 1e3:>11.1f} "
                f"{cell['shared_warm_s'] * 1e3:>10.1f} "
                f"{cell['warm_speedup']:>7.2f}x"
            )
    emit("perf_scale_smoke" if SMOKE else "perf_scale", "\n".join(lines))

    if not SMOKE:
        payload = {
            "mode": mode,
            "warp_size": WARP_SIZE,
            "rounds": ROUNDS,
            "unit": "seconds of warm analyze() wall clock",
            "baseline": "serial analyzer (jobs=1) at the same threads",
            "scales": {
                str(n): {
                    "serial_s": row["serial_s"],
                    "arena_bytes": row["arena_bytes"],
                    "jobs": {
                        str(jobs): cell
                        for jobs, cell in row["jobs"].items()
                    },
                }
                for n, row in rows.items()
            },
        }
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCH_scale.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Zero-leak acceptance: every arena this benchmark opened was
    # released; nothing remains for atexit to reap.
    assert pool_mod.live_arenas() == []
    assert pool_mod.leaked_segments() == []

    if SMOKE:
        for row in rows.values():
            for cell in row["jobs"].values():
                assert cell["warm_speedup"] >= SMOKE_MIN_WARM_SPEEDUP, cell
    else:
        for n_threads, row in rows.items():
            cell = row["jobs"][4]
            assert cell["warm_speedup"] >= FULL_MIN_WARM_SPEEDUP, (
                f"{n_threads} threads: warm shared-pool speedup "
                f"{cell['warm_speedup']:.2f}x at jobs=4 is below the "
                f"{FULL_MIN_WARM_SPEEDUP}x acceptance target"
            )
