"""The frozen seed reports: cell grid, canonical form and loader.

``tests/fixtures/seed_reports.json`` holds the analyzer reports that
the original tuple-token replayer produced (serial, no memo) for a
fixed grid of cells.  That replayer is gone; the document is the
reference every surviving replay path must reproduce bit for bit.
Its header records the commit the reports came from and the command
that wrote them.  The generator, ``tools/freeze_seed_reports.py``,
needed the deleted replayer and was deleted with it; ``git log
--diff-filter=D -- tools/freeze_seed_reports.py`` finds it.  Nothing
here rewrites the fixture.

A report's canonical form is a JSON document holding every
:class:`~repro.core.metrics.AggregateMetrics` field plus the report's
``workload``, ``traced_fraction`` and ``skipped_by_reason``.  Mappings
whose insertion order reaches the pickled report (per-function stats,
divergence events, skip reasons) are encoded as ordered lists, so a
canonical match is as strict as a pickle-bytes match.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, List, Tuple

from repro.core.analyzer import AnalyzerConfig
from repro.workloads import all_workloads, get_workload, trace_instance

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "seed_reports.json")

#: Threads and widths of the catalog grid.
GRID_THREADS = 64
GRID_WIDTHS = (8, 16, 32)
#: Lock handling axis: off, or emulated with either reconvergence policy.
LOCK_MODES = ("off", "unlock", "exit")

#: One workload per catalog family, traced under both engines.
FAMILY_WORKLOADS = ("vectoradd", "streamcluster", "blackscholes",
                    "dsb_uniqueid", "memcached", "nbody", "md5")
FAMILY_THREADS = 48
FAMILY_WIDTH = 16
ENGINES = ("compiled", "interp")

#: The AggregateMetrics attributes the canonical form covers; a new
#: field must be added here (and to the fixture) deliberately.
AGGREGATE_FIELDS = frozenset({
    "warp_size", "n_warps", "n_threads", "issues", "thread_instructions",
    "per_function", "memory", "locks", "divergence_events",
    "warp_efficiencies", "stack_depth_hwm", "reconvergence_events",
})


def grid_cell(name: str, width: int, locks: str) -> str:
    return f"{name}@{GRID_THREADS}/w{width}/locks={locks}"


def family_cell(name: str, engine: str) -> str:
    return f"family/{name}@{FAMILY_THREADS}/w{FAMILY_WIDTH}/{engine}"


def grid_config(width: int, locks: str) -> AnalyzerConfig:
    if locks == "off":
        return AnalyzerConfig(warp_size=width)
    return AnalyzerConfig(warp_size=width, emulate_locks=True,
                          lock_reconvergence=locks)


def family_config(name: str) -> AnalyzerConfig:
    return AnalyzerConfig(warp_size=FAMILY_WIDTH,
                          emulate_locks=(name == "memcached"))


def grid_names() -> List[str]:
    return sorted(w.name for w in all_workloads())


@functools.lru_cache(maxsize=16)
def traces_of(name: str, n_threads: int, engine: str = ""):
    """Trace ``name`` per (threads, engine); "" is the default engine.

    The cache is bounded so a whole-catalog sweep does not keep every
    trace set alive for the rest of the test session.
    """
    overrides = {"engine": engine} if engine else {}
    traces, _ = trace_instance(get_workload(name).instantiate(n_threads),
                               **overrides)
    return traces


def cells() -> List[Tuple[str, str, int, str, AnalyzerConfig]]:
    """Every frozen cell: ``(cell, workload, threads, engine, config)``."""
    out = []
    for name in grid_names():
        for width in GRID_WIDTHS:
            for locks in LOCK_MODES:
                out.append((grid_cell(name, width, locks), name,
                            GRID_THREADS, "", grid_config(width, locks)))
    for name in FAMILY_WORKLOADS:
        for engine in ENGINES:
            out.append((family_cell(name, engine), name, FAMILY_THREADS,
                        engine, family_config(name)))
    return out


def canonical(report) -> Dict:
    """The canonical JSON-ready form of an :class:`AnalysisReport`."""
    m = report.metrics
    missing = set(vars(m)) ^ AGGREGATE_FIELDS
    if missing:
        raise AssertionError(
            f"AggregateMetrics fields changed: {sorted(missing)}")
    locks = m.locks
    return {
        "workload": report.workload,
        "traced_fraction": report.traced_fraction,
        "skipped_by_reason": [[k, v] for k, v in
                              report.skipped_by_reason.items()],
        "warp_size": m.warp_size,
        "n_warps": m.n_warps,
        "n_threads": m.n_threads,
        "issues": m.issues,
        "thread_instructions": m.thread_instructions,
        "per_function": [
            [name, s.issues, s.thread_instructions, s.calls]
            for name, s in m.per_function.items()],
        "memory": [
            [seg, s.instructions, s.accesses, s.transactions]
            for seg, s in m.memory.items()],
        "locks": {
            "lock_events": locks.lock_events,
            "contended_events": locks.contended_events,
            "serialized_threads": locks.serialized_threads,
            "serialized_issues": locks.serialized_issues,
            "serialized_entries": locks.serialized_entries,
        },
        "divergence_events": [
            [function, block, count]
            for (function, block), count in m.divergence_events.items()],
        "warp_efficiencies": list(m.warp_efficiencies),
        "stack_depth_hwm": m.stack_depth_hwm,
        "reconvergence_events": m.reconvergence_events,
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def load() -> Tuple[Dict, Dict[str, str]]:
    """``(header, {cell: canonical JSON text})`` from the fixture."""
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    return doc["header"], {cell: dumps(report)
                           for cell, report in doc["cells"].items()}


def expected(cell: str) -> str:
    return load()[1][cell]
