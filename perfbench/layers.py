"""Span wrappers around each layer's public functions (traced run only).

:func:`install` replaces each function listed in :data:`LAYERS` with a
wrapper that times the call as a span on a :class:`spans.Tracer`, and
:meth:`Installed.restore` puts the originals back.  The wrappers sit in
the benchmark, around calls into the program; the program itself is
not changed.  A function that no longer exists (renamed or deleted by
a later change) is recorded as absent instead of raising, so the
benchmark keeps running against a smaller program.

Only the traced run imports this module; the untimed run never does.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, List, Tuple

import spans
from metrics import ratio
from spans import Tracer

#: (module, qualified attribute, span name).
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.session", "AnalysisSession.analyze", "session"),
    ("repro.session", "AnalysisSession.sweep", "session"),
    ("repro.workloads.base", "Workload.instantiate", "workloads.build"),
    ("repro.workloads.runner", "execute_traced", "machine.execute"),
    ("repro.tracer.packed", "PackedTrace.from_tokens", "tracer.pack"),
    ("repro.tracer.io", "save_traces", "tracer.io.save"),
    ("repro.tracer.io", "load_traces", "tracer.io.load"),
    ("repro.core.analyzer", "ThreadFuserAnalyzer.prepare", "core.prepare"),
    ("repro.core.analyzer", "ThreadFuserAnalyzer.analyze", "core.replay"),
    ("repro.pool", "replay_warps_shared", "pool.replay"),
    ("repro.artifacts", "ArtifactStore.put_bytes", "artifacts.put"),
    ("repro.artifacts", "ArtifactStore.put_traces", "artifacts.put"),
    ("repro.artifacts", "ArtifactStore.put_object", "artifacts.put"),
    ("repro.artifacts", "ArtifactStore.get_bytes", "artifacts.get"),
    ("repro.artifacts", "ArtifactStore.get_traces", "artifacts.get"),
    ("repro.artifacts", "ArtifactStore.get_object", "artifacts.get"),
    ("repro.index", "ResultIndex.on_store_event", "index.commit"),
)

#: Spans that only contain layers; their self time is glue.
CONTAINERS = ("session",)


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute name, raw attribute)`` or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


def _byte_size(fp) -> int:
    """Characters held by a string buffer, 0 for anything else."""
    getvalue = getattr(fp, "getvalue", None)
    return len(getvalue()) if getvalue is not None else 0


class Probes:
    """Counters read off arguments and results of wrapped calls."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.arena_bytes = 0

    def after(self, span_name: str, args, result) -> None:
        count = self.tracer.count
        if span_name == "machine.execute":
            machine = result[1]
            count("machine.instructions", machine.total_instructions)
        elif span_name == "tracer.io.save":
            count("tracer.io.bytes", _byte_size(args[1]))
        elif span_name == "tracer.io.load":
            count("tracer.io.bytes", _byte_size(args[0]))
        elif span_name == "core.replay":
            gauges = getattr(args[0].obs, "gauges", {})
            count("core.replay.cells")
            count("memo.lookups", gauges.get("memo.warp_lookups", 0))
            count("memo.hits", gauges.get("memo.warp_hits", 0))
            count("vector.tokens", gauges.get("replay.vector_tokens", 0))
            count("vector.total", gauges.get("replay.vector_total_tokens", 0))
        elif span_name == "pool.replay":
            if result is None:
                count("pool.fallbacks")
            pool = importlib.import_module("repro.pool")
            snapshot = getattr(pool, "stats_snapshot", dict)()
            self.arena_bytes = max(self.arena_bytes,
                                   int(snapshot.get("arena_bytes", 0)))
        elif span_name == "index.commit":
            count("index.commits")


def _wrap(fn: Callable, span_name: str, tracer: Tracer,
          probes: Probes) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        try:
            probes.after(span_name, args, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # A changed signature or result shape loses the counter,
            # never the call.
            tracer.count(f"probe_errors.{span_name}")
        return result

    return wrapper


class Installed:
    """The installed wrappers; :meth:`restore` removes them."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()


def install(tracer: Tracer,
            layers=LAYERS) -> Tuple[Installed, Probes]:
    """Wrap every present function of ``layers``; note the absent ones."""
    installed = Installed()
    probes = Probes(tracer)
    for module_name, qualname, span_name in layers:
        found = _resolve(module_name, qualname)
        if found is None:
            installed.absent.append(f"{module_name}.{qualname}")
            continue
        owner, name, raw = found
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, span_name, tracer,
                                        probes))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(raw.__func__, span_name, tracer,
                                         probes))
        else:
            wrapped = _wrap(raw, span_name, tracer, probes)
        installed._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)
    return installed, probes


def absent_spans(installed: Installed, layers=LAYERS) -> Dict[str, bool]:
    """Span name -> True when every function feeding it is absent."""
    present: Dict[str, bool] = {}
    for module_name, qualname, span_name in layers:
        missing = f"{module_name}.{qualname}" in installed.absent
        present[span_name] = present.get(span_name, False) or not missing
    return {name: not ok for name, ok in present.items()}


#: Figure -> span names it needs (absent when all are missing).
_NEEDS = {
    "workloads.build.self_s": ("workloads.build",),
    "machine.execute.self_s": ("machine.execute",),
    "machine.execute.calls": ("machine.execute",),
    "machine.minstr_per_s": ("machine.execute",),
    "tracer.pack.self_s": ("tracer.pack",),
    "tracer.pack.calls": ("tracer.pack",),
    "tracer.io.save_s": ("tracer.io.save",),
    "tracer.io.load_s": ("tracer.io.load",),
    "tracer.io.bytes": ("tracer.io.save", "tracer.io.load"),
    "core.prepare.self_s": ("core.prepare",),
    "core.replay.self_s": ("core.replay",),
    "core.replay.cells": ("core.replay",),
    "core.replay.memo_hit_ratio": ("core.replay",),
    "core.replay.vector_token_fraction": ("core.replay",),
    "pool.replay.self_s": ("pool.replay",),
    "pool.arena_bytes": ("pool.replay",),
    "pool.fallbacks": ("pool.replay",),
    "artifacts.put.self_s": ("artifacts.put",),
    "artifacts.get.self_s": ("artifacts.get",),
    "index.commit.self_s": ("index.commit",),
    "index.commits": ("index.commit",),
    "session.self_s": ("session",),
}

#: Per-layer figures read off the in-process span wrappers.
SPAN_FIGURES = tuple(_NEEDS)


def span_figures(tracer: Tracer, arena_bytes: int,
                 absent: Dict[str, bool]) -> Tuple[Dict[str, float],
                                                   List[str]]:
    """Per-layer figures of the wrapped calls; also the absent names."""
    self_s = spans.self_times(tracer.spans)
    n_calls = spans.calls(tracer.spans)
    counts = tracer.counters
    execute_s = self_s.get("machine.execute", 0.0)
    out = {
        "workloads.build.self_s": self_s.get("workloads.build", 0.0),
        "machine.execute.self_s": execute_s,
        "machine.execute.calls": n_calls.get("machine.execute", 0),
        "machine.minstr_per_s": ratio(
            counts.get("machine.instructions", 0) / 1e6, execute_s),
        "tracer.pack.self_s": self_s.get("tracer.pack", 0.0),
        "tracer.pack.calls": n_calls.get("tracer.pack", 0),
        "tracer.io.save_s": self_s.get("tracer.io.save", 0.0),
        "tracer.io.load_s": self_s.get("tracer.io.load", 0.0),
        "tracer.io.bytes": counts.get("tracer.io.bytes", 0),
        "core.prepare.self_s": self_s.get("core.prepare", 0.0),
        "core.replay.self_s": self_s.get("core.replay", 0.0),
        "core.replay.cells": counts.get("core.replay.cells", 0),
        "core.replay.memo_hit_ratio": ratio(counts.get("memo.hits", 0),
                                            counts.get("memo.lookups", 0)),
        "core.replay.vector_token_fraction": ratio(
            counts.get("vector.tokens", 0), counts.get("vector.total", 0)),
        "pool.replay.self_s": self_s.get("pool.replay", 0.0),
        "pool.arena_bytes": arena_bytes,
        "pool.fallbacks": counts.get("pool.fallbacks", 0),
        "artifacts.put.self_s": self_s.get("artifacts.put", 0.0),
        "artifacts.get.self_s": self_s.get("artifacts.get", 0.0),
        "index.commit.self_s": self_s.get("index.commit", 0.0),
        "index.commits": counts.get("index.commits", 0),
        "session.self_s": self_s.get("session", 0.0),
    }
    missing = [figure for figure, needs in _NEEDS.items()
               if all(absent.get(name, True) for name in needs)]
    return out, missing
