"""The ThreadFuser analyzer facade.

Wires the pipeline of paper Fig. 3b together: parse traces -> build
per-function DCFGs -> IPDOM analysis -> warp formation -> lock-step SIMT
stack replay -> reports.

Warp replays are independent, so :meth:`ThreadFuserAnalyzer.analyze` can
fan them out over worker processes (the ``jobs`` knob).  Per-warp metrics
are always merged in warp-index order, so ``jobs=N`` is bit-identical to
the serial ``jobs=1`` path.

The analyzer is also an instrumentation point of :mod:`repro.obs`: give
it a :class:`~repro.obs.Recorder` and it times warp formation and replay
as spans and exports the replay counters (warps, issues, divergence /
reconvergence events, SIMT-stack depth high-water mark, lock
serialization).  Every exported counter is read from the warp-order
merged aggregate, never from the workers directly, so telemetry obeys
the same ``jobs=N == jobs=1`` determinism as the report itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .. import faults
from .. import pool as pool_mod
from ..obs import NULL_RECORDER, Telemetry
from ..tracer.events import TraceSet
from .dcfg import DCFGSet, build_dcfgs
from .ipdom import compute_all_ipdoms
from .metrics import AggregateMetrics, WarpMetrics
from . import vector as vector_mod
from .replay import WarpReplayer
from .report import AnalysisReport
from .warp import form_warps


@dataclass
class AnalyzerConfig:
    """Tunable knobs of the analyzer.

    warp_size:
        SIMT width to emulate (the paper sweeps 8/16/32).
    batching:
        Warp-formation policy name (see :mod:`repro.core.warp`).
    emulate_locks:
        Serialize same-lock critical sections inside a warp (Fig. 9).
    lock_reconvergence:
        Where serialized threads reconverge: "unlock" (just past the
        critical section, the paper's choice) or "exit" (the enclosing
        reconvergence point -- the conservative alternative the paper
        defers to future work).

    The config carries only fields that determine the *result*; execution
    knobs like ``jobs`` live on :class:`ThreadFuserAnalyzer` so a config's
    :meth:`fingerprint` addresses cached reports independently of how the
    replay was scheduled.
    """

    warp_size: int = 32
    batching: str = "linear"
    emulate_locks: bool = False
    lock_reconvergence: str = "unlock"

    def fingerprint(self) -> Dict[str, Any]:
        """The artifact-store fingerprint fields of this config."""
        return dataclasses.asdict(self)


class ThreadFuserAnalyzer:
    """Analyzes a :class:`TraceSet` into an :class:`AnalysisReport`.

    ``jobs`` > 1 replays warps on that many worker processes;
    ``jobs=1`` keeps today's in-process serial loop.  ``pool`` picks
    the parallel substrate: ``"shared"`` (the default) replays on the
    persistent :mod:`repro.pool` workers over a shared-memory column
    arena -- zero pool spawns and zero trace pickling on warm calls --
    while ``"fork"`` keeps the per-call fork pool for platforms
    without usable shared memory.  The cascade is shared -> fork ->
    serial; every step is bit-identical, and a run that ends serial
    despite ``jobs>1`` reports it via the ``pool.fallback`` gauge plus
    a one-time ``RuntimeWarning`` (never silently).

    ``recorder`` is an optional :class:`repro.obs.Recorder`; by default
    the shared no-op recorder is used and instrumentation costs nothing
    beyond a no-op call per stage.

    ``memo`` is an execution knob like ``jobs`` (it never changes the
    result, so it stays out of :class:`AnalyzerConfig` and its
    fingerprint): it reuses the metrics of an already-replayed warp
    when a later warp's ordered lane-signature tuple matches (a
    content-addressed cache over :attr:`ThreadTrace.signature`).  On
    by default; ``--no-memo`` surfaces it on the CLI.  Memo hit counts
    and the bulk-span token fraction of :class:`WarpReplayer` are
    exported as ``memo.*`` / ``replay.vector_*`` telemetry *gauges*,
    never counters -- they legitimately differ between ``jobs=1`` and
    ``jobs=N`` (each shard memoizes locally; memo hits skip replays)
    while counters must stay bit-identical.
    """

    def __init__(self, config: Optional[AnalyzerConfig] = None,
                 jobs: int = 1, recorder=None, memo: bool = True,
                 pool: str = "shared",
                 stage_timeout: Optional[float] = None) -> None:
        if pool not in ("shared", "fork"):
            raise ValueError(
                f"unknown pool substrate {pool!r} (expected 'shared' or "
                "'fork')")
        self.config = config or AnalyzerConfig()
        self.jobs = max(1, int(jobs))
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.memo = bool(memo)
        self.pool = pool
        self.stage_timeout = stage_timeout

    def telemetry(self) -> Telemetry:
        """Snapshot of this analyzer's recorder (empty when disabled)."""
        return self.obs.telemetry()

    def prepare(self, traces: TraceSet) -> DCFGSet:
        """Build the DCFGs and IPDOM tables (reusable across warp sizes)."""
        with self.obs.span("prepare"):
            dcfgs = build_dcfgs(traces)
            compute_all_ipdoms(dcfgs)
            self.obs.count("prepare.functions", len(dcfgs.functions))
        return dcfgs

    def analyze(self, traces: TraceSet,
                dcfgs: Optional[DCFGSet] = None,
                visitor_factory=None) -> AnalysisReport:
        """Run the full pipeline on ``traces``.

        ``visitor_factory``, when given, is called once per warp with the
        warp index and must return a replay visitor (or None); the trace
        generator uses this to emit simulator traces during replay.
        Visitors accumulate state in-process, so their presence forces
        the serial path regardless of ``jobs``.
        """
        cfg = self.config
        if dcfgs is None:
            dcfgs = self.prepare(traces)
        with self.obs.span("form_warps"):
            warps = form_warps(traces, cfg.warp_size, cfg.batching)
        with self.obs.span("replay_warps"):
            per_warp: Optional[List[Tuple[WarpMetrics, int]]] = None
            memo_lookups = memo_hits = 0
            # [vector_tokens, total_tokens] over every fresh replay
            # (memo hits skip replays, so they contribute to neither).
            vstats = [0, 0]
            # Visitors need their per-block callbacks, so their presence
            # forces fresh serial replays (no memo reuse) -- the generated
            # warp traces stay identical with memoization on or off.
            use_memo = self.memo and visitor_factory is None
            wanted_parallel = (self.jobs > 1 and visitor_factory is None
                               and len(warps) > 1)
            if wanted_parallel:
                outcome = None
                if self.pool == "shared":
                    outcome = pool_mod.replay_warps_shared(
                        traces, warps, dcfgs, cfg, self.jobs,
                        memo=use_memo,
                        stage_timeout=self.stage_timeout,
                        obs=self.obs,
                    )
                    if outcome is None:
                        # Shared-memory substrate unavailable or failed
                        # retryably; cascade to the per-call fork pool.
                        self.obs.gauge("pool.shared_fallback", 1)
                if outcome is None:
                    outcome = _replay_parallel(
                        warps, dcfgs, cfg, self.jobs, memo=use_memo,
                        stage_timeout=self.stage_timeout,
                    )
                if outcome is None:
                    # Every substrate bowed out; the serial path below
                    # is bit-identical to jobs=1.  Never silent: the
                    # degradation is visible as a gauge and a one-time
                    # warning.
                    self.obs.gauge("faults.replay_fallbacks", 1)
                    self.obs.gauge("pool.fallback", 1)
                    pool_mod.warn_once(
                        "replay-serial-fallback",
                        "parallel warp replay unavailable (no usable "
                        "worker pool); falling back to the bit-identical "
                        "serial path",
                    )
                else:
                    per_warp, memo_lookups, memo_hits, pair = outcome
                    vstats = list(pair)
            if per_warp is None:
                per_warp = []
                memo_table: Dict[tuple, WarpMetrics] = {}
                for warp_index, warp in enumerate(warps):
                    visitor = (
                        visitor_factory(warp_index) if visitor_factory
                        else None
                    )
                    if use_memo:
                        key = _memo_key(warp)
                        memo_lookups += 1
                        cached = memo_table.get(key)
                        if cached is not None:
                            memo_hits += 1
                            per_warp.append((cached.clone(), len(warp)))
                            continue
                        metrics = _replay_warp(warp, dcfgs, cfg, None,
                                               stats=vstats)
                        memo_table[key] = metrics
                        per_warp.append((metrics, len(warp)))
                    else:
                        per_warp.append(
                            (_replay_warp(warp, dcfgs, cfg, visitor,
                                          stats=vstats), len(warp))
                        )
            if use_memo:
                self.obs.gauge("memo.warp_lookups", memo_lookups)
                self.obs.gauge("memo.warp_hits", memo_hits)
            # Gauges, never counters: the fraction legitimately varies
            # with jobs/memo (hits skip whole replays) while reports and
            # counters stay bit-identical.
            vector_tokens, total_tokens = vstats
            self.obs.gauge("replay.vector_tokens", vector_tokens)
            self.obs.gauge("replay.vector_total_tokens", total_tokens)
            self.obs.gauge(
                "replay.vector_token_fraction",
                vector_tokens / total_tokens if total_tokens else 0.0)
            self.obs.gauge("replay.vector_backend_numpy",
                           1 if vector_mod.numpy_active() else 0)
        aggregate = AggregateMetrics(cfg.warp_size)
        for metrics, n_threads in per_warp:
            aggregate.merge(metrics, n_threads=n_threads)
        self._record_replay_counters(aggregate)
        return AnalysisReport(
            workload=traces.workload,
            metrics=aggregate,
            traced_fraction=traces.traced_fraction(),
            skipped_by_reason=traces.skipped_by_reason(),
        )

    def _record_replay_counters(self, aggregate: AggregateMetrics) -> None:
        """Export the warp-order merged aggregate into the recorder.

        Reading from the aggregate (never the workers) keeps telemetry
        counters bit-identical between ``jobs=1`` and ``jobs=N``.
        """
        obs = self.obs
        if not obs.enabled:
            return
        obs.count("replay.warps", aggregate.n_warps)
        obs.count("replay.threads", aggregate.n_threads)
        obs.count("replay.issues", aggregate.issues)
        obs.count("replay.thread_instructions",
                  aggregate.thread_instructions)
        obs.count("replay.divergence_events",
                  sum(aggregate.divergence_events.values()))
        obs.count("replay.reconvergence_events",
                  aggregate.reconvergence_events)
        obs.count("replay.memory_transactions",
                  aggregate.total_transactions())
        obs.count("replay.lock_events", aggregate.locks.lock_events)
        obs.count("replay.lock_contended_events",
                  aggregate.locks.contended_events)
        obs.count("replay.lock_serialized_entries",
                  aggregate.locks.serialized_entries)
        obs.count("replay.lock_serialized_issues",
                  aggregate.locks.serialized_issues)
        obs.maximum("replay.stack_depth_hwm", aggregate.stack_depth_hwm)


def _replay_warp(warp, dcfgs: DCFGSet, cfg: AnalyzerConfig,
                 visitor=None, stats: Optional[list] = None) -> WarpMetrics:
    """Replay one warp.

    ``stats``, when given, is a ``[vector_tokens, total_tokens]``
    accumulator the caller aggregates into the ``replay.vector_*``
    gauges.
    """
    replayer = WarpReplayer(
        warp,
        dcfgs,
        warp_size=cfg.warp_size,
        emulate_locks=cfg.emulate_locks,
        visitor=visitor,
        lock_reconvergence=cfg.lock_reconvergence,
    )
    metrics = replayer.run()
    if stats is not None:
        stats[0] += replayer.vector_tokens
        stats[1] += replayer.total_tokens
    return metrics


def _memo_key(warp) -> tuple:
    """Content key of a warp: root plus the ordered lane signatures.

    Signatures are sha256 over each lane's packed columns, so two warps
    share a key exactly when their lanes' token streams are identical,
    lane for lane -- replaying either one produces the same
    :class:`WarpMetrics` (the replay is a pure function of the streams,
    the DCFGs, and the config, and the latter two are fixed per call).
    """
    return (warp[0].root, tuple(trace.signature for trace in warp))


def _replay_shard(
        indices: List[int]
) -> Tuple[List[Tuple[int, WarpMetrics, int]], int, int, int, int]:
    faults.check("pool.worker", f"replay:{indices[0] if indices else '-'}")
    warps, dcfgs, cfg, memo = pool_mod.fork_state()
    out = []
    memo_table: Dict[tuple, WarpMetrics] = {}
    lookups = hits = 0
    vstats = [0, 0]
    for index in indices:
        warp = warps[index]
        if memo:
            key = _memo_key(warp)
            lookups += 1
            cached = memo_table.get(key)
            if cached is not None:
                hits += 1
                out.append((index, cached.clone(), len(warp)))
                continue
            metrics = _replay_warp(warp, dcfgs, cfg, stats=vstats)
            memo_table[key] = metrics
            out.append((index, metrics, len(warp)))
        else:
            out.append((index, _replay_warp(warp, dcfgs, cfg, stats=vstats),
                        len(warp)))
    return out, lookups, hits, vstats[0], vstats[1]


def _replay_parallel(
        warps, dcfgs: DCFGSet, cfg: AnalyzerConfig, jobs: int,
        memo: bool = True, stage_timeout: Optional[float] = None,
) -> Optional[Tuple[List[Tuple[WarpMetrics, int]], int, int,
                    Tuple[int, int]]]:
    """Replay ``warps`` on a fork pool; None means "fall back to serial".

    Returns ``(per_warp, memo_lookups, memo_hits, (vector_tokens,
    total_tokens))`` on success.  Warps
    are striped across shards for load balance; results are re-sorted by
    warp index before merging so aggregation order (and therefore every
    dict insertion order in the report) matches the serial path exactly.
    Each shard keeps its own memo table (forked workers share no state),
    so hit counts vary with ``jobs`` even though the metrics do not.

    Crash safety is :func:`repro.pool.fork_map`'s retry-classification
    contract: a worker that dies or times out makes the outcome
    incomplete -- answered here with the serial fallback (``None``,
    partial results discarded so aggregation order never changes) --
    while a worker exception that is a *bug* in replay code propagates
    with its original traceback; the fallback must never mask defects.
    """
    # Pack (and verify) in the parent so the forked workers inherit the
    # columnar buffers copy-on-write instead of re-packing the same
    # streams once per shard.
    for warp in warps:
        for trace in warp:
            trace.packed().ensure_verified()
    jobs = min(jobs, len(warps))
    shards = [list(range(j, len(warps), jobs)) for j in range(jobs)]
    outcome = pool_mod.fork_map(
        _replay_shard, shards, jobs,
        tokens=[f"replay:{shard[0]}" for shard in shards],
        stage_timeout=stage_timeout,
        state=(warps, dcfgs, cfg, memo),
    )
    if outcome is None or not outcome.complete(len(shards)):
        return None
    chunks = [outcome.results[index] for index in range(len(shards))]
    lookups = sum(chunk[1] for chunk in chunks)
    hits = sum(chunk[2] for chunk in chunks)
    vector_tokens = sum(chunk[3] for chunk in chunks)
    total_tokens = sum(chunk[4] for chunk in chunks)
    flat = sorted(
        (item for chunk in chunks for item in chunk[0]), key=lambda t: t[0]
    )
    per_warp = [(metrics, n_threads) for _index, metrics, n_threads in flat]
    return per_warp, lookups, hits, (vector_tokens, total_tokens)


def sweep_warp_sizes(traces: TraceSet, warp_sizes=(8, 16, 32),
                     batching: str = "linear",
                     emulate_locks: bool = False,
                     lock_reconvergence: str = "unlock",
                     config: Optional[AnalyzerConfig] = None,
                     jobs: int = 1, memo: bool = True,
                     pool: str = "shared",
                     stage_timeout: Optional[float] = None):
    """SIMT efficiency across warp widths (the Fig. 1 sweep).

    Builds the DCFG/IPDOM tables once and replays per width; returns
    ``{warp_size: AnalysisReport}``.  A caller-supplied ``config`` is the
    base for every width (only ``warp_size`` is overridden, via a fresh
    copy per width -- the input config is never mutated); the individual
    keyword knobs are honored otherwise.
    """
    base = config or AnalyzerConfig(
        batching=batching, emulate_locks=emulate_locks,
        lock_reconvergence=lock_reconvergence,
    )
    analyzer = ThreadFuserAnalyzer(base, jobs=jobs, memo=memo, pool=pool,
                                   stage_timeout=stage_timeout)
    dcfgs = analyzer.prepare(traces)
    out = {}
    for warp_size in warp_sizes:
        sized = dataclasses.replace(base, warp_size=warp_size)
        out[warp_size] = ThreadFuserAnalyzer(
            sized, jobs=jobs, memo=memo, pool=pool,
            stage_timeout=stage_timeout,
        ).analyze(traces, dcfgs=dcfgs)
    return out


def analyze_traces(traces: TraceSet, warp_size: int = 32,
                   batching: str = "linear",
                   emulate_locks: bool = False,
                   lock_reconvergence: str = "unlock",
                   jobs: int = 1, memo: bool = True,
                   pool: str = "shared",
                   stage_timeout: Optional[float] = None) -> AnalysisReport:
    """One-call convenience wrapper around :class:`ThreadFuserAnalyzer`."""
    config = AnalyzerConfig(
        warp_size=warp_size, batching=batching, emulate_locks=emulate_locks,
        lock_reconvergence=lock_reconvergence,
    )
    return ThreadFuserAnalyzer(
        config, jobs=jobs, memo=memo, pool=pool,
        stage_timeout=stage_timeout,
    ).analyze(traces)
