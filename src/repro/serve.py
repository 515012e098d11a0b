"""``repro.serve``: analysis-as-a-service over an :class:`AnalysisSession`.

The one-shot CLI pays full process startup per invocation and cannot
share in-flight work between callers.  This module turns the staged
session into a **long-running asyncio HTTP/JSON server** so bursty
many-configuration sweeps (the divergence-cost-study traffic pattern)
amortize everything the substrate already provides: the persistent
worker pool, the shared-memory arenas, the warp-replay memo, and the
content-addressed artifact store.

Three properties define the serving surface:

* **Jobs are addressed by artifact fingerprint.**  A submitted
  analyze/sweep request is normalized and fingerprinted exactly like
  the artifact store would address its report
  (:meth:`~repro.session.AnalysisSession.report_fields`), and that
  fingerprint *is* the job id.  Identical requests therefore share one
  identity across clients, processes, and server restarts.

* **Identical in-flight requests coalesce.**  The server keeps one job
  per fingerprint; a submit that matches a queued or running job
  attaches to it instead of enqueueing a duplicate (the response says
  ``"coalesced": true``).  A submit matching an already *completed*
  job returns ``"status": "done"`` instantly without touching the
  queue -- and a fingerprint whose report is already in the artifact
  store completes without a single machine execution, the store-warm
  fast path.

* **Bursty traffic degrades to queueing, never to crashes.**  Jobs
  wait in a bounded :class:`asyncio.Queue` ahead of the execution
  substrate.  When the queue is full the server answers ``503`` with a
  typed JSON error instead of accepting unbounded work.

The execution substrate has two modes:

* ``shards=0`` (the default): one runner thread drives the server's
  own session, one job at a time -- parallelism lives *inside* a job,
  via the session's ``jobs`` knob and the shared worker pool.
* ``shards=N``: a :class:`~repro.shards.ShardPool` of N crash-
  respawning session worker **processes** over the shared artifact
  store.  Jobs are split into per-warp-width **cells** dispatched to
  the least-loaded shard, so independent jobs -- and the independent
  widths of one sweep -- run concurrently.  Coalescing still happens
  in this parent process (before routing), so it holds across shard
  boundaries, and each completed sweep cell is streamed as a
  ``partial`` event on ``/v1/jobs/<id>/events`` the moment it
  finishes instead of one blob at job end.  Per-shard health (queue
  depth, in-flight fingerprints, coalesce hits, vector backend) is
  reported under ``shards`` in ``/v1/health``.

Failures reuse the :class:`~repro.errors.ReproError` taxonomy: a typed
pipeline error maps to a 5xx JSON document carrying the error ``type``,
``site``, and operator ``hint`` (the same fields the CLI prints), and
the :mod:`repro.faults` sites exercise the mapping in the tests -- an
injected ``io.transient`` storm surfaces as a 5xx with its site, never
as a wrong report.

The HTTP layer is hand-rolled on :func:`asyncio.start_server` (stdlib
only, no frameworks): request/response JSON bodies, keep-alive
connections, and one NDJSON streaming endpoint for stage progress.

Endpoints (all JSON)::

    GET  /                     service banner + endpoint list
    GET  /v1/health            queue/pool/cache/coalescing health probe
    GET  /v1/workloads         the analyzable catalog
    POST /v1/analyze           submit an analyze job   -> job document
    POST /v1/sweep             submit a sweep job      -> job document
    GET  /v1/jobs              recent job documents
    GET  /v1/jobs/<id>         poll one job
    GET  /v1/jobs/<id>/report  the finished report (409 until done)
    GET  /v1/jobs/<id>/telemetry  the job's telemetry document
    GET  /v1/jobs/<id>/events  NDJSON stream of stage progress
    GET  /v1/index/query       filtered run rows from the result index
    GET  /v1/index/history     perf trajectory of one bench metric,
                               or a per-workload pivot (?workload=)

The ``/v1/index/*`` endpoints are the read-side API over the sqlite
result index (:mod:`repro.index`): they answer from ``index.db`` on
the loop's default executor, so a query never touches the runner
thread -- results stay queryable while an analysis is running, and
across restarts (the index lives next to the store).

Programmatic use mirrors the tests and ``docs/SERVING.md``::

    from repro.serve import start_in_background

    handle = start_in_background(cache_dir="cache", jobs=4)
    ...  # urllib/http.client against handle.url
    handle.close()

``threadfuser serve`` is the CLI front end; ``tools/serve_load.py`` is
the load generator and ``benchmarks/test_perf_serve.py`` the
throughput/latency/coalesce-rate benchmark (``BENCH_serve.json``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from . import faults
from . import pool as pool_mod
from . import shards as shards_mod
from .artifacts import KIND_REPORT, fingerprint_key
from .index import history_regression, metric_direction, parse_counter_expr
from .core import vector
from .core.analyzer import AnalyzerConfig
from .core.report import AnalysisReport
from .errors import ReproError, StageTimeoutError
from .obs import Recorder, Telemetry
from .optlevels import OPT_LEVELS
from .session import OPT_BASE, AnalysisSession
from .workloads import all_workloads, get_workload

#: Version stamp embedded in every health/job document (bump on any
#: breaking change to the response shapes).  v2: sweep events streams
#: interleave ``{"event": "partial", ...}`` lines with job snapshots,
#: health documents carry ``shards`` + top-level ``executions``, and
#: job documents carry ``cells`` / ``partial_widths``.
SERVE_SCHEMA_VERSION = 2

#: Default bound of the job queue (``--queue-depth`` on the CLI).
#: Submits beyond it are rejected with a typed 503, the backpressure
#: contract of the serving surface.
DEFAULT_QUEUE_DEPTH = 64

#: Completed (done/failed) jobs retained in the registry before the
#: oldest are evicted.  Eviction only forgets the *registry-warm* fast
#: path; the artifact store keeps serving those fingerprints warm.
MAX_RETAINED_JOBS = 1024

#: Per-job bound on recorded stage entries (a sweep enters stages once
#: per warp width; the cap keeps job documents small under any sweep).
MAX_STAGE_LOG = 256

#: Job lifecycle states, in order.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Hard cap on request body size (a submit body is a few hundred bytes).
_MAX_BODY = 1 << 20

#: Seconds an idle keep-alive connection may sit between requests.
_IDLE_TIMEOUT = 60.0

#: Poll interval of the NDJSON stage-progress stream (seconds).
_STREAM_POLL_S = 0.05

_ANALYZE_BATCHINGS = ("linear", "cpu_affine", "strided")
_LOCK_RECONVERGENCE = ("unlock", "exit")


class ServeError(Exception):
    """A typed *request* failure: maps straight to an HTTP response.

    Parameters
    ----------
    status:
        HTTP status code (4xx for client errors, 503 for backpressure).
    message:
        Human-readable description, returned in the JSON body.
    kind:
        The ``error.type`` value of the JSON body (defaults to the
        class name).
    hint:
        One actionable sentence for the caller, mirroring
        :class:`~repro.errors.ReproError` hints.
    """

    def __init__(self, status: int, message: str, *, kind: str = "",
                 hint: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind or type(self).__name__
        self.hint = hint


def error_payload(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map an exception to ``(http_status, json_body)``.

    * :class:`ServeError` carries its own status (client errors,
      backpressure);
    * :class:`~repro.errors.StageTimeoutError` maps to ``504``;
    * every other :class:`~repro.errors.ReproError` maps to ``500``
      with its ``site`` and ``hint`` fields in the body -- the same
      information the CLI prints before exiting 3;
    * anything else is a generic ``500``.

    The body shape is ``{"error": {"type", "message", "site", "hint"}}``.
    """
    if isinstance(exc, ServeError):
        return exc.status, {"error": {
            "type": exc.kind, "message": str(exc),
            "site": None, "hint": exc.hint,
        }}
    status = 504 if isinstance(exc, StageTimeoutError) else 500
    if isinstance(exc, ReproError):
        return status, {"error": exc.payload()}
    return status, {"error": {
        "type": type(exc).__name__,
        "message": str(exc),
        "site": getattr(exc, "site", None),
        "hint": getattr(exc, "hint", ""),
    }}


def summarize_report(report: AnalysisReport) -> Dict[str, Any]:
    """The JSON document of one :class:`AnalysisReport`.

    Carries the headline metrics (efficiency, issues, transactions,
    coverage), the exclusive per-function table (largest instruction
    share first), and the human-readable ``format_text()`` rendering,
    so HTTP clients never need to unpickle anything.
    """
    return {
        "workload": report.workload,
        "warp_size": report.warp_size,
        "n_threads": report.n_threads,
        "n_warps": report.n_warps,
        "simt_efficiency": report.simt_efficiency,
        "issues": report.metrics.issues,
        "thread_instructions": report.metrics.thread_instructions,
        "heap_transactions": report.heap_transactions,
        "stack_transactions": report.stack_transactions,
        "transactions_per_load_store":
            report.transactions_per_load_store(),
        "traced_fraction": report.traced_fraction,
        "functions": [
            {
                "name": fn.name,
                "calls": fn.calls,
                "issues": fn.issues,
                "thread_instructions": fn.thread_instructions,
                "instruction_share": fn.instruction_share,
                "efficiency": fn.efficiency,
            }
            for fn in report.per_function()
        ],
        "text": report.format_text(),
    }


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One normalized, validated analyze/sweep request.

    ``kind`` is ``"analyze"`` (one warp width) or ``"sweep"`` (several
    widths sharing the trace/DCFG stages).  All defaults match the CLI;
    ``n_threads`` is resolved against the workload catalog at parse
    time so two requests that mean the same run *are* the same spec.
    """

    kind: str
    workload: str
    n_threads: int
    seed: int
    opt_level: str
    warp_sizes: Tuple[int, ...]
    batching: str
    emulate_locks: bool
    lock_reconvergence: str

    @classmethod
    def parse(cls, kind: str, body: Dict[str, Any]) -> "JobSpec":
        """Validate a request body into a spec.

        Raises :class:`ServeError` 400 on malformed parameters and 404
        on an unknown workload -- the typed-4xx half of the error
        mapping.
        """
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object",
                             kind="BadRequest")
        workload = body.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ServeError(400, "missing required field 'workload'",
                             kind="BadRequest",
                             hint="POST {'workload': <name>, ...}; "
                                  "GET /v1/workloads lists the catalog")
        try:
            entry = get_workload(workload)
        except KeyError:
            raise ServeError(
                404, f"unknown workload {workload!r}",
                kind="UnknownWorkload",
                hint="GET /v1/workloads lists the analyzable catalog",
            ) from None

        def _int(name: str, default: int, minimum: int = 1) -> int:
            value = body.get(name, default)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < minimum:
                raise ServeError(
                    400, f"field {name!r} must be an integer >= {minimum}, "
                         f"got {value!r}", kind="BadRequest")
            return value

        n_threads = _int("n_threads", entry.default_threads)
        seed = _int("seed", 7, minimum=0)
        opt_level = body.get("opt_level", OPT_BASE)
        if opt_level not in OPT_LEVELS:
            raise ServeError(
                400, f"unknown opt_level {opt_level!r} "
                     f"(one of {sorted(OPT_LEVELS)})", kind="BadRequest")
        batching = body.get("batching", "linear")
        if batching not in _ANALYZE_BATCHINGS:
            raise ServeError(
                400, f"unknown batching {batching!r} "
                     f"(one of {_ANALYZE_BATCHINGS})", kind="BadRequest")
        lock_reconvergence = body.get("lock_reconvergence", "unlock")
        if lock_reconvergence not in _LOCK_RECONVERGENCE:
            raise ServeError(
                400, f"unknown lock_reconvergence {lock_reconvergence!r} "
                     f"(one of {_LOCK_RECONVERGENCE})", kind="BadRequest")
        emulate_locks = bool(body.get("emulate_locks", False))
        if kind == "analyze":
            warp_sizes = (_int("warp_size", 32),)
        else:
            raw = body.get("warp_sizes", [8, 16, 32])
            if (not isinstance(raw, (list, tuple)) or not raw
                    or not all(isinstance(w, int) and not isinstance(w, bool)
                               and w >= 1 for w in raw)):
                raise ServeError(
                    400, f"field 'warp_sizes' must be a non-empty list of "
                         f"positive integers, got {raw!r}",
                    kind="BadRequest")
            warp_sizes = tuple(raw)
        return cls(
            kind=kind, workload=workload, n_threads=n_threads, seed=seed,
            opt_level=opt_level, warp_sizes=warp_sizes, batching=batching,
            emulate_locks=emulate_locks,
            lock_reconvergence=lock_reconvergence,
        )

    def config(self, warp_size: Optional[int] = None) -> AnalyzerConfig:
        """The :class:`AnalyzerConfig` of this spec (at ``warp_size``)."""
        return AnalyzerConfig(
            warp_size=warp_size or self.warp_sizes[0],
            batching=self.batching,
            emulate_locks=self.emulate_locks,
            lock_reconvergence=self.lock_reconvergence,
        )

    def key(self) -> str:
        """Canonical spec identity (the submit-side fingerprint cache key)."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))

    def describe(self) -> Dict[str, Any]:
        """The spec as it appears inside job documents."""
        doc = dataclasses.asdict(self)
        doc["warp_sizes"] = list(self.warp_sizes)
        return doc


class Job:
    """One unit of server work, addressed by its artifact fingerprint.

    Mutated from the runner thread, snapshotted from the event loop;
    every cross-thread read goes through :meth:`snapshot` (or the
    other lock-guarded accessors), and every mutation bumps
    ``revision`` so the progress stream knows when to emit.
    """

    def __init__(self, job_id: str, spec: JobSpec, warm: bool = False)\
            -> None:
        self.job_id = job_id
        self.spec = spec
        #: True when every report of this job was already in the
        #: artifact store at submit time (the store-warm fast path:
        #: the job completes without a machine execution).
        self.warm = warm
        self.status = JOB_QUEUED
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.stages: List[Dict[str, float]] = []
        self.current_stage: Optional[str] = None
        self.error: Optional[BaseException] = None
        self.result: Optional[Dict[str, Any]] = None
        self.telemetry_doc: Optional[Dict[str, Any]] = None
        #: Machine executions this job caused (0 on every warm path).
        self.executions = 0
        #: Cell accounting: one cell per warp width (analyze jobs have
        #: exactly one).  ``partials`` collects each completed cell's
        #: report document in *arrival* order -- the payload of the
        #: ``partial`` events on the NDJSON stream.
        self.cells_total = len(spec.warp_sizes)
        self.cells_done = 0
        self.partials: List[Dict[str, Any]] = []
        #: Shard indices this job's cells were dispatched to, and
        #: coalesce hits that arrived before dispatch (attributed to
        #: the owner shard once one exists).
        self.shards_used: set = set()
        self.pending_coalesces = 0
        self.cell_telemetry: List[str] = []
        self.revision = 0
        self._lock = threading.Lock()

    # -- runner-thread mutations ----------------------------------------

    def mark_running(self) -> None:
        """Transition queued -> running (called by the runner thread)."""
        with self._lock:
            self.status = JOB_RUNNING
            self.started = time.time()
            self.revision += 1

    def enter_stage(self, name: str) -> None:
        """Record one pipeline-stage entry (driven by telemetry spans)."""
        with self._lock:
            self.current_stage = name
            if len(self.stages) < MAX_STAGE_LOG:
                base = self.started or self.created
                self.stages.append(
                    {"stage": name,
                     "t_s": round(time.time() - base, 6)})
            self.revision += 1

    def add_partial(self, width: int, report_doc: Dict[str, Any],
                    executions: int, shard: Optional[int] = None,
                    telemetry_json: Optional[str] = None) -> bool:
        """Record one completed cell; True when it was the last one.

        Called as each per-width report lands (from the runner thread
        inline, or from a shard's dispatch thread).  Bumps the
        revision so the events stream emits the cell as a ``partial``
        line immediately, before the job itself is terminal.
        """
        with self._lock:
            self.partials.append({
                "seq": len(self.partials),
                "width": width,
                "shard": shard,
                "report": report_doc,
            })
            if telemetry_json is not None:
                self.cell_telemetry.append(telemetry_json)
            self.cells_done += 1
            self.executions += executions
            self.revision += 1
            return (self.cells_done == self.cells_total
                    and self.status == JOB_RUNNING)

    def partials_since(self, seq: int) -> List[Dict[str, Any]]:
        """Completed-cell documents with ``seq`` >= the given one."""
        with self._lock:
            return [dict(partial) for partial in self.partials[seq:]]

    def finish(self, result: Dict[str, Any],
               telemetry_doc: Optional[Dict[str, Any]]) -> None:
        """Transition running -> done with the job's outputs.

        ``executions`` accumulates through :meth:`add_partial`; a
        second finish (a racing shard) is ignored.
        """
        with self._lock:
            if self.status in (JOB_DONE, JOB_FAILED):
                return
            self.status = JOB_DONE
            self.finished = time.time()
            self.current_stage = None
            self.result = result
            self.telemetry_doc = telemetry_doc
            self.revision += 1

    def fail(self, exc: BaseException) -> bool:
        """Transition running -> failed, keeping the typed error.

        Returns True when this call performed the transition (False
        when a concurrent cell already terminated the job) -- the
        failure counter credits exactly one cell.
        """
        with self._lock:
            if self.status in (JOB_DONE, JOB_FAILED):
                return False
            self.status = JOB_FAILED
            self.finished = time.time()
            self.current_stage = None
            self.error = exc
            self.revision += 1
            return True

    # -- loop-thread reads ----------------------------------------------

    @property
    def terminal(self) -> bool:
        """True once the job is done or failed."""
        return self.status in (JOB_DONE, JOB_FAILED)

    def snapshot(self) -> Dict[str, Any]:
        """The job's poll document (status, stages, timings, error)."""
        with self._lock:
            doc: Dict[str, Any] = {
                "job_id": self.job_id,
                "kind": self.spec.kind,
                "status": self.status,
                "warm": self.warm,
                "spec": self.spec.describe(),
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "stage": self.current_stage,
                "stages": list(self.stages),
                "executions": self.executions,
                "cells": {"total": self.cells_total,
                          "done": self.cells_done},
                "partial_widths": [partial["width"]
                                   for partial in self.partials],
                "revision": self.revision,
            }
            if self.started is not None:
                end = self.finished or time.time()
                doc["elapsed_s"] = round(end - self.started, 6)
            if self.error is not None:
                doc["error"] = error_payload(self.error)[1]["error"]
            return doc

    def submit_doc(self, coalesced: bool = False) -> Dict[str, Any]:
        """The submit response: the poll document plus coalescing flags."""
        doc = self.snapshot()
        doc["coalesced"] = coalesced
        return doc


class _JobRecorder(Recorder):
    """A :class:`Recorder` that mirrors stage entries into a job.

    Installed as the session's recorder for the duration of one job,
    so the session's own ``obs.span("trace")`` instrumentation doubles
    as the server's progress feed -- no second instrumentation layer.
    """

    def __init__(self, job: Job) -> None:
        super().__init__()
        self._job = job

    def span(self, name: str):
        self._job.enter_stage(name)
        return super().span(name)


class ServerClosed(ServeError):
    """Submit received while the server is shutting down."""

    def __init__(self) -> None:
        super().__init__(503, "server is shutting down",
                         kind="ServerClosed", hint="retry against a "
                         "live instance")


class AnalysisServer:
    """The long-running analysis server around one persistent session.

    Parameters
    ----------
    session:
        The :class:`~repro.session.AnalysisSession` that executes jobs.
        ``None`` builds one from ``session_kwargs`` (and the server
        then owns -- and closes -- it).
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; the bound
        address is available as :attr:`url` after :meth:`start`.
    queue_depth:
        Bound of the job queue.  Submits beyond it receive a typed
        ``503`` (``QueueSaturated``) instead of unbounded queueing.
    shards:
        ``0`` (default) runs jobs inline on this process's session,
        one at a time.  ``N >= 1`` spawns a
        :class:`~repro.shards.ShardPool` of N session worker
        processes over the same artifact store and dispatches
        per-width cells across them (``--shards`` on the CLI).
    cell_timeout:
        Optional per-cell wall-clock bound (seconds) in sharded mode;
        a cell past it counts as a shard crash and is re-run.
    session_kwargs:
        Forwarded to :class:`~repro.session.AnalysisSession` when no
        session is passed (``cache_dir``, ``jobs``, ``engine``,
        ``memo``, ...).

    Inline, jobs run one at a time on a dedicated runner thread;
    parallelism lives inside a job (the session's ``jobs`` knob fans
    warp replay and trace generation out over the shared worker
    pool).  Sharded, the runner becomes a dispatcher that routes
    cells to the least-loaded shard, bounded by a dispatch window so
    the queue-depth backpressure contract stays meaningful.  Either
    way, submit fingerprinting runs on its own single thread against
    a separate store-less session, so submissions stay fast while
    jobs run -- and coalescing always happens here, in the parent,
    which is what makes it hold across shard boundaries.
    """

    def __init__(self, session: Optional[AnalysisSession] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 shards: int = 0, cell_timeout: Optional[float] = None,
                 **session_kwargs: Any) -> None:
        self._owns_session = session is None
        if session is None:
            session = AnalysisSession(**session_kwargs)
        self._session = session
        self._fp_session = AnalysisSession(cache_dir=None)
        self.host = host
        self.port = port
        self.queue_depth = max(1, int(queue_depth))
        self.shards = max(0, int(shards))
        self.cell_timeout = cell_timeout
        self.started_at: Optional[float] = None
        self.closed = False
        self._jobs: "Dict[str, Job]" = {}
        self._fingerprints: Dict[str, Tuple[str, List[Dict]]] = {}
        self._counters: Dict[str, int] = {
            "submits": 0, "coalesced": 0, "warm_hits": 0, "enqueued": 0,
            "rejected": 0, "completed": 0, "failed": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._runner_task: Optional[asyncio.Task] = None
        self._running_job: Optional[Job] = None
        self._shard_pool: Optional[shards_mod.ShardPool] = None
        self._dispatch_gate: Optional[asyncio.Event] = None
        #: Guards counters and per-shard maps mutated off the loop
        #: (shard dispatch threads complete cells concurrently).
        self._count_lock = threading.Lock()
        self._coalesce_by_shard: Dict[int, int] = {}
        self._run_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tf-serve-run")
        self._fp_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tf-serve-fp")

    # -- lifecycle -------------------------------------------------------

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound listener."""
        return f"http://{self.host}:{self.port}"

    @property
    def session(self) -> AnalysisSession:
        """The session executing this server's jobs."""
        return self._session

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the runner; returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        if self.shards:
            self._shard_pool = shards_mod.ShardPool(
                self.shards, self._shard_config(),
                cell_timeout=self.cell_timeout)
            self._dispatch_gate = asyncio.Event()
            await self._loop.run_in_executor(None, self._shard_pool.start)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self.started_at = time.time()
        self._runner_task = self._loop.create_task(
            self._runner_sharded() if self.shards else self._runner())
        return self.host, self.port

    def _shard_config(self) -> Dict[str, Any]:
        """Session kwargs for each shard, derived from our session."""
        session = self._session
        store = session.store
        return {
            "cache_dir": store.root if store is not None else None,
            "jobs": session.jobs,
            "engine": session.engine,
            "memo": session.memo,
            "stage_timeout": session.stage_timeout,
        }

    async def stop(self) -> None:
        """Stop accepting, cancel the runner, release the executors.

        Queued jobs are abandoned (their clients see the server go
        away); the running job finishes on its thread before the
        executor shuts down.  The session is closed only when this
        server created it.
        """
        if self.closed:
            return
        self.closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._runner_task is not None:
            self._runner_task.cancel()
            try:
                await self._runner_task
            except asyncio.CancelledError:
                pass
        if self._shard_pool is not None:
            await self._loop.run_in_executor(None, self._shard_pool.close)
        await self._loop.run_in_executor(None, self._shutdown_executors)

    def _shutdown_executors(self) -> None:
        self._run_exec.shutdown(wait=True)
        self._fp_exec.shutdown(wait=True)
        if self._owns_session:
            self._session.close()
        self._fp_session.close()

    # -- the runner ------------------------------------------------------

    async def _runner(self) -> None:
        """Drain the job queue onto the runner thread, one job at a time."""
        while True:
            job = await self._queue.get()
            self._running_job = job
            try:
                await self._loop.run_in_executor(
                    self._run_exec, self._run_job, job)
            finally:
                self._running_job = None
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        """Execute one job inline on the runner thread (never raises).

        Runs the job cell by cell -- one analyze per warp width --
        through the server's own session, recording each width as a
        partial as it completes, so the streamed-partials contract is
        identical between inline and sharded servers.  (Per-width
        analyzes share the build/trace/DCFG stages through the
        session's stage caches, exactly like ``session.sweep``.)
        """
        job.mark_running()
        session = self._session
        recorder = _JobRecorder(job)
        previous = session.obs
        session.obs = recorder
        try:
            spec = job.spec
            for width in spec.warp_sizes:
                before = session.executions
                report = session.analyze(
                    spec.workload, n_threads=spec.n_threads,
                    seed=spec.seed, opt_level=spec.opt_level,
                    config=spec.config(width),
                )
                job.add_partial(width, summarize_report(report),
                                session.executions - before)
            telemetry_doc = json.loads(session.telemetry().to_json())
            self._finish_job(job, telemetry_doc)
            with self._count_lock:
                self._counters["completed"] += 1
        except Exception as exc:  # noqa: BLE001 - becomes a typed 5xx
            job.fail(exc)
            with self._count_lock:
                self._counters["failed"] += 1
        finally:
            session.obs = previous

    def _finish_job(self, job: Job,
                    telemetry_doc: Optional[Dict[str, Any]]) -> None:
        """Assemble the result document from the job's partials."""
        by_width = {partial["width"]: partial["report"]
                    for partial in job.partials_since(0)}
        if job.spec.kind == "analyze":
            result = {"report": by_width[job.spec.warp_sizes[0]]}
        else:
            result = {"reports": {str(width): by_width[width]
                                  for width in job.spec.warp_sizes}}
        job.finish(result, telemetry_doc)

    # -- the sharded dispatcher ------------------------------------------

    async def _runner_sharded(self) -> None:
        """Route queued jobs' cells across the shard pool.

        Pulls the next job only while the pool's outstanding-cell
        count is under the dispatch window, so a saturated pool backs
        work up into the bounded submit queue (where the typed 503
        lives) instead of into unbounded shard queues.
        """
        window = max(self.shards * 2, 2)
        while True:
            job = await self._queue.get()
            try:
                while self._shard_pool.outstanding() >= window:
                    self._dispatch_gate.clear()
                    await self._dispatch_gate.wait()
                self._dispatch_job(job)
            finally:
                self._queue.task_done()

    def _dispatch_job(self, job: Job) -> None:
        """Split ``job`` into per-width cells and route them to shards."""
        job.mark_running()
        spec = job.spec
        assigned = []
        for width in spec.warp_sizes:
            cell = {
                "workload": spec.workload,
                "n_threads": spec.n_threads,
                "seed": spec.seed,
                "opt_level": spec.opt_level,
                "warp_size": width,
                "batching": spec.batching,
                "emulate_locks": spec.emulate_locks,
                "lock_reconvergence": spec.lock_reconvergence,
                "token": f"{spec.workload}:w{width}",
            }
            def complete(payload, exc, shard, skipped,
                         job=job, width=width):
                self._cell_complete(job, width, payload, exc, shard,
                                    skipped)

            shard = self._shard_pool.submit(
                cell,
                on_stage=job.enter_stage,
                should_run=lambda job=job: not job.terminal,
                on_complete=complete,
            )
            assigned.append(shard)
        with job._lock:
            job.shards_used.update(assigned)
            pending, job.pending_coalesces = job.pending_coalesces, 0
        if pending:
            owner = min(assigned)
            with self._count_lock:
                self._coalesce_by_shard[owner] = \
                    self._coalesce_by_shard.get(owner, 0) + pending

    def _cell_complete(self, job: Job, width: int,
                       payload: Optional[Dict[str, Any]],
                       exc: Optional[BaseException], shard: int,
                       skipped: bool) -> None:
        """One cell finished (shard dispatch thread); never raises."""
        try:
            if exc is not None:
                if job.fail(exc):
                    with self._count_lock:
                        self._counters["failed"] += 1
            elif not skipped and payload is not None:
                summary = summarize_report(payload["report"])
                last = job.add_partial(
                    width, summary, int(payload.get("executions", 0)),
                    shard=shard,
                    telemetry_json=payload.get("telemetry"))
                if last:
                    self._finish_job(job, self._merge_telemetry(job))
                    with self._count_lock:
                        self._counters["completed"] += 1
        finally:
            self._wake_dispatcher()

    @staticmethod
    def _merge_telemetry(job: Job) -> Optional[Dict[str, Any]]:
        """Merge the job's per-cell telemetry JSONs into one document."""
        merged: Optional[Telemetry] = None
        for text in list(job.cell_telemetry):
            try:
                telemetry = Telemetry.from_json(text)
            except Exception:  # noqa: BLE001 - telemetry is best effort
                continue
            merged = telemetry if merged is None else merged.merge(telemetry)
        if merged is None:
            return None
        return json.loads(merged.to_json())

    def _wake_dispatcher(self) -> None:
        """Release the dispatch window (thread-safe, loop may be gone)."""
        loop, gate = self._loop, self._dispatch_gate
        if loop is None or gate is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(gate.set)
        except RuntimeError:
            pass

    # -- fingerprinting --------------------------------------------------

    def _compute_fingerprint(self, spec: JobSpec)\
            -> Tuple[str, List[Dict]]:
        """Fingerprint ``spec`` (runs on the fingerprint thread).

        Returns ``(job_id, report_fields_list)``: the per-width
        report-stage fingerprints and the job id derived from them (the
        analyze fingerprint itself, or a hash over the sweep's report
        fingerprints).
        """
        fp_session = self._fp_session
        fields_list = [
            fp_session.report_fields(
                spec.workload, n_threads=spec.n_threads, seed=spec.seed,
                opt_level=spec.opt_level, config=spec.config(width),
            )
            for width in spec.warp_sizes
        ]
        if spec.kind == "analyze":
            job_id = fingerprint_key(fields_list[0])
        else:
            job_id = fingerprint_key({
                "kind": "sweep",
                "reports": [fingerprint_key(f) for f in fields_list],
            })
        return job_id, fields_list

    def _store_warm(self, fields_list: List[Dict]) -> bool:
        """True when every report of the job is already stored on disk."""
        store = self._session.store
        if store is None:
            return False
        try:
            return all(store.has(KIND_REPORT, fields)
                       for fields in fields_list)
        except OSError:
            return False

    async def _fingerprint(self, spec: JobSpec) -> Tuple[str, List[Dict]]:
        """The (cached) job id of ``spec``; computed off the event loop."""
        key = spec.key()
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = await self._loop.run_in_executor(
                self._fp_exec, self._compute_fingerprint, spec)
            self._fingerprints[key] = cached
        return cached

    # -- submission ------------------------------------------------------

    async def _submit(self, kind: str,
                      body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Handle one analyze/sweep submit; the coalescing heart."""
        if self.closed:
            raise ServerClosed()
        spec = JobSpec.parse(kind, body)
        self._counters["submits"] += 1
        job_id, fields_list = await self._fingerprint(spec)
        warm = await self._loop.run_in_executor(
            self._fp_exec, self._store_warm, fields_list)
        # No awaits between here and the queue insert: concurrent
        # identical submits resume on the loop one at a time, so
        # exactly one of them creates the job and the rest coalesce.
        job = self._jobs.get(job_id)
        if job is not None and not job.terminal:
            # An identical request is already queued or running: attach
            # to it -- one computation, any number of waiters.  With
            # shards this parent-side check *is* the cross-shard
            # coalescing guarantee: the duplicate never reaches a
            # shard queue, whichever shard owns the in-flight cells.
            self._counters["coalesced"] += 1
            self._note_coalesce(job)
            return 202, job.submit_doc(coalesced=True)
        if job is not None and job.status == JOB_DONE:
            # Registry-warm: answered instantly, never enqueued.
            self._counters["warm_hits"] += 1
            return 200, job.submit_doc()
        # New fingerprint (or a failed job being retried).
        job = Job(job_id, spec, warm=warm)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._counters["rejected"] += 1
            raise ServeError(
                503, f"job queue is full ({self.queue_depth} pending)",
                kind="QueueSaturated",
                hint="retry with backoff, or run the server with a "
                     "larger --queue-depth",
            ) from None
        self._jobs[job_id] = job
        self._counters["enqueued"] += 1
        self._evict_retained()
        return 202, job.submit_doc()

    def _note_coalesce(self, job: Job) -> None:
        """Attribute one coalesce hit to the shard owning the job.

        A hit before dispatch is parked on the job and credited to the
        owner shard when the cells are routed.
        """
        if self._shard_pool is None:
            return
        with job._lock:
            shards_used = set(job.shards_used)
            if not shards_used:
                job.pending_coalesces += 1
                return
        owner = min(shards_used)
        with self._count_lock:
            self._coalesce_by_shard[owner] = \
                self._coalesce_by_shard.get(owner, 0) + 1

    def _evict_retained(self) -> None:
        """Drop the oldest terminal jobs beyond :data:`MAX_RETAINED_JOBS`."""
        terminal = [job_id for job_id, job in self._jobs.items()
                    if job.terminal]
        excess = len(terminal) - MAX_RETAINED_JOBS
        for job_id in terminal[:max(0, excess)]:
            self._jobs.pop(job_id, None)

    # -- documents -------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` document: queue, coalescing, cache, pool."""
        counters = dict(self._counters)
        submits = counters["submits"]
        shortcut = counters["coalesced"] + counters["warm_hits"]
        by_status: Dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        stats = self._session.cache_stats
        doc: Dict[str, Any] = {
            "status": "ok",
            "service": "threadfuser-serve",
            "serve_schema": SERVE_SCHEMA_VERSION,
            "uptime_s": round(time.time() - (self.started_at or
                                             time.time()), 6),
            "queue": {
                "depth": self.queue_depth,
                "size": self._queue.qsize() if self._queue else 0,
                "running": (self._shard_pool.busy_count()
                            if self._shard_pool is not None
                            else (1 if self._running_job is not None
                                  else 0)),
            },
            "jobs": by_status,
            "requests": counters,
            "coalesce_hit_rate": (shortcut / submits) if submits else 0.0,
            "shards": self._shards_doc(),
            "session": {
                "jobs": self._session.jobs,
                "memo": self._session.memo,
                "executions": self._session.executions,
                "cached": self._session.store is not None,
                "indexed": self._session.store is not None,
            },
            "vector_backend": vector.BACKEND,
            "numpy_accel": vector.numpy_active(),
            "cache": {
                "hits": stats.hits, "misses": stats.misses,
                "puts": stats.puts, "corrupt": stats.corrupt,
            },
        }
        doc["executions"] = (
            self._session.executions
            + sum(shard.get("executions", 0)
                  for shard in doc["shards"]["detail"]))
        if pool_mod.substrate_active():
            doc["pool"] = pool_mod.stats_snapshot()
        plan = faults.active()
        if plan is not None:
            doc["faults"] = {"injected": dict(plan.injected)}
        return doc

    def _shards_doc(self) -> Dict[str, Any]:
        """The ``shards`` health section: mode, count, per-shard detail.

        Each detail row carries the shard's process (pid/liveness),
        its load (queue depth, busy flag), its lifetime counters
        (cells done/failed/skipped, respawns, machine executions), the
        worker's vector backend, and the two registry-derived numbers
        the satellite contract names: ``in_flight_fingerprints``
        (non-terminal jobs with cells routed to the shard) and
        ``coalesce_hits`` (duplicate submits absorbed on behalf of a
        job the shard owns).
        """
        if self._shard_pool is None:
            return {"count": 0, "mode": "inline", "detail": []}
        detail = self._shard_pool.health()
        inflight: Dict[int, int] = {}
        for job in list(self._jobs.values()):
            if job.terminal:
                continue
            with job._lock:
                used = set(job.shards_used)
            for shard in used:
                inflight[shard] = inflight.get(shard, 0) + 1
        with self._count_lock:
            coalesce = dict(self._coalesce_by_shard)
        for row in detail:
            row["in_flight_fingerprints"] = inflight.get(row["shard"], 0)
            row["coalesce_hits"] = coalesce.get(row["shard"], 0)
        return {"count": self.shards, "mode": "process", "detail": detail}

    def _banner(self) -> Dict[str, Any]:
        return {
            "service": "threadfuser-serve",
            "serve_schema": SERVE_SCHEMA_VERSION,
            "endpoints": [
                "GET /v1/health", "GET /v1/workloads",
                "POST /v1/analyze", "POST /v1/sweep", "GET /v1/jobs",
                "GET /v1/jobs/<id>", "GET /v1/jobs/<id>/report",
                "GET /v1/jobs/<id>/telemetry", "GET /v1/jobs/<id>/events",
                "GET /v1/index/query", "GET /v1/index/history",
            ],
        }

    @staticmethod
    def _workloads_doc() -> Dict[str, Any]:
        return {"workloads": [
            {
                "name": w.name, "suite": w.suite,
                "default_threads": w.default_threads,
                "paper_simt_threads": w.paper_simt_threads,
                "has_gpu_impl": w.has_gpu_impl,
            }
            for w in sorted(all_workloads(),
                            key=lambda w: (w.suite, w.name))
        ]}

    def _job_or_404(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(404, f"unknown job {job_id!r}",
                             kind="UnknownJob",
                             hint="job ids are returned by POST "
                                  "/v1/analyze|/v1/sweep; completed jobs "
                                  "are eventually evicted")
        return job

    def _job_report(self, job: Job) -> Tuple[int, Dict[str, Any]]:
        if job.status == JOB_FAILED:
            return error_payload(job.error)
        if not job.terminal:
            doc = job.snapshot()
            doc["error"] = {
                "type": "NotFinished",
                "message": f"job is {job.status}; poll "
                           f"/v1/jobs/{job.job_id} until done",
                "site": None, "hint": "",
            }
            return 409, doc
        doc = job.snapshot()
        doc.update(job.result)
        return 200, doc

    def _job_telemetry(self, job: Job) -> Tuple[int, Dict[str, Any]]:
        if job.status == JOB_FAILED:
            return error_payload(job.error)
        if not job.terminal or job.telemetry_doc is None:
            return 409, {"error": {
                "type": "NotFinished",
                "message": f"job is {job.status}; telemetry is available "
                           "once the job completes",
                "site": None, "hint": "",
            }}
        return 200, {"job_id": job.job_id, "telemetry": job.telemetry_doc}

    # -- http plumbing ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                try:
                    handled = await self._dispatch(
                        method, path, body, reader, writer)
                except ServeError as exc:
                    status, payload = error_payload(exc)
                    self._write_json(writer, status, payload, keep_alive)
                except Exception as exc:  # noqa: BLE001 - typed 5xx
                    status, payload = error_payload(exc)
                    self._write_json(writer, status, payload, keep_alive)
                else:
                    if handled == "stream":
                        # The stream owns the connection and closed it.
                        return
                    status, payload = handled
                    self._write_json(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP request; ``None`` when the peer hung up."""
        try:
            line = await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT)
        except asyncio.TimeoutError:
            return None
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ServeError(400, "malformed request line",
                             kind="BadRequest") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise ServeError(400, f"bad Content-Length {length_raw!r}",
                             kind="BadRequest") from None
        if length > _MAX_BODY:
            raise ServeError(413, f"request body exceeds {_MAX_BODY} bytes",
                             kind="BodyTooLarge")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _dispatch(self, method: str, raw_path: str, body: bytes,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter):
        """Route one request; returns ``(status, payload)`` or ``"stream"``."""
        path, _sep, raw_query = raw_path.partition("?")
        if method == "GET" and path == "/v1/index/query":
            return await self._index_query(raw_query)
        if method == "GET" and path == "/v1/index/history":
            return await self._index_history(raw_query)
        if method == "GET" and path == "/":
            return 200, self._banner()
        if method == "GET" and path == "/v1/health":
            return 200, self.health()
        if method == "GET" and path == "/v1/workloads":
            return 200, self._workloads_doc()
        if method == "POST" and path in ("/v1/analyze", "/v1/sweep"):
            return await self._submit(path.rsplit("/", 1)[1],
                                      self._parse_body(body))
        if method == "GET" and path == "/v1/jobs":
            recent = list(self._jobs.values())[-100:]
            return 200, {"jobs": [job.snapshot() for job in recent]}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _sep, view = rest.partition("/")
            if method != "GET":
                raise ServeError(405, f"{method} not allowed here",
                                 kind="MethodNotAllowed")
            job = self._job_or_404(job_id)
            if view == "":
                return 200, job.snapshot()
            if view == "report":
                return self._job_report(job)
            if view == "telemetry":
                return self._job_telemetry(job)
            if view == "events":
                await self._stream_events(reader, writer, job)
                return "stream"
            raise ServeError(404, f"unknown job view {view!r}",
                             kind="NotFound")
        if method not in ("GET", "POST"):
            raise ServeError(405, f"method {method} not supported",
                             kind="MethodNotAllowed")
        raise ServeError(404, f"no route for {path!r}", kind="NotFound")

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(400, f"request body is not valid JSON: {exc}",
                             kind="BadRequest") from None

    # -- the result-index read side --------------------------------------

    def _index(self):
        """The session store's :class:`~repro.index.ResultIndex`.

        Raises a typed 409 when the server runs store-less -- there is
        nothing to index without an artifact store.
        """
        store = self._session.store
        if store is None:
            raise ServeError(
                409, "this server runs without an artifact store, so "
                     "there is no result index to query",
                kind="NoStore",
                hint="start the server with --cache-dir "
                     "(drop --no-cache)")
        return store.index

    @staticmethod
    def _params(raw_query: str) -> Dict[str, str]:
        return {name: values[-1]
                for name, values in parse_qs(raw_query).items()}

    async def _index_query(self, raw_query: str)\
            -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/index/query``: filtered run rows from sqlite.

        Query parameters mirror ``threadfuser index query``:
        ``workload``, ``opt_level``, ``warp_size``, ``min_efficiency``,
        ``max_efficiency``, ``hotspot`` (``func`` or ``func@0xADDR``),
        ``counter`` (``name OP number``), ``limit``.  Runs on the
        loop's default executor -- never on the session runner thread.
        """
        params = self._params(raw_query)
        unknown = set(params) - {
            "workload", "opt_level", "warp_size", "min_efficiency",
            "max_efficiency", "hotspot", "counter", "limit"}
        if unknown:
            raise ServeError(
                400, f"unknown query parameter(s) {sorted(unknown)}",
                kind="BadRequest")
        kwargs: Dict[str, Any] = {
            "workload": params.get("workload"),
            "opt_level": params.get("opt_level"),
            "hotspot": params.get("hotspot"),
        }
        try:
            for name, cast in (("warp_size", int), ("limit", int),
                               ("min_efficiency", float),
                               ("max_efficiency", float)):
                if name in params:
                    kwargs[name] = cast(params[name])
            if "counter" in params:
                kwargs["counter"] = parse_counter_expr(params["counter"])
        except ValueError as exc:
            raise ServeError(400, str(exc), kind="BadRequest") from None

        def work() -> List[Dict[str, Any]]:
            index = self._index()
            index.ensure_built()
            return index.query(**kwargs)

        rows = await self._loop.run_in_executor(None, work)
        return 200, {"runs": rows, "count": len(rows)}

    async def _index_history(self, raw_query: str)\
            -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/index/history``: bench metric trajectories.

        Parameters: exactly one of ``metric`` (one trajectory) or
        ``workload`` (the per-workload pivot: every
        ``workloads.<name>.*`` trajectory at once), plus ``label`` and
        ``max_regression`` (percent; adds a ``verdict`` per metric).
        """
        params = self._params(raw_query)
        metric = params.get("metric")
        workload = params.get("workload")
        if bool(metric) == bool(workload):
            raise ServeError(400, "pass exactly one of 'metric' or "
                                  "'workload'",
                             kind="BadRequest",
                             hint="e.g. /v1/index/history?metric="
                                  "workloads.pigz.vector_token_fraction or "
                                  "/v1/index/history?workload=pigz")
        label = params.get("label")
        max_regression: Optional[float] = None
        if "max_regression" in params:
            try:
                max_regression = float(params["max_regression"])
            except ValueError as exc:
                raise ServeError(400, str(exc),
                                 kind="BadRequest") from None

        def work():
            index = self._index()
            index.ensure_built()
            if metric:
                return index.history(metric, label=label)
            return index.workload_history(workload, label=label)

        got = await self._loop.run_in_executor(None, work)
        if not got:
            what = (f"metric {metric!r}" if metric
                    else f"workload {workload!r}")
            raise ServeError(
                404, f"no tracked points for {what}",
                kind="UnknownMetric",
                hint="record snapshots with 'threadfuser index ingest "
                     "BENCH_*.json'")
        if metric:
            return 200, {
                "metric": metric,
                "direction": metric_direction(metric),
                "points": got,
                "verdict": history_regression(got, metric,
                                              max_regression),
            }
        return 200, {
            "workload": workload,
            "metrics": {
                name: {
                    "direction": metric_direction(name),
                    "points": points,
                    "verdict": history_regression(points, name,
                                                  max_regression),
                }
                for name, points in sorted(got.items())
            },
        }

    async def _stream_events(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             job: Job) -> None:
        """NDJSON stage-progress stream; ends when the job is terminal.

        Emits one job snapshot per revision change (stage entries,
        status transitions), then closes the connection -- the
        poll-free way to follow a long sweep.  For sweep jobs, each
        completed cell is additionally streamed the moment it lands as
        a ``{"event": "partial", "seq", "width", "shard", "report"}``
        line, in completion order, every partial before the terminal
        snapshot -- the per-width reports arrive as they finish
        instead of one blob at job end.  The peer is watched for EOF
        between emissions, so a client that hangs up mid-stream
        releases the handler immediately instead of tying it to the
        job's lifetime.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        # The stream owns the connection and no further request is
        # legal on it: any inbound byte -- and EOF in particular --
        # means the client is gone.
        hangup = asyncio.ensure_future(reader.read(1))
        last_revision = -1
        last_seq = 0
        stream_partials = job.spec.kind == "sweep"
        try:
            while not hangup.done():
                # Snapshot first: if it is terminal, every partial is
                # already recorded (cells land before finish), so the
                # flush below is complete before the final line.
                snapshot = job.snapshot()
                wrote = False
                if stream_partials:
                    for partial in job.partials_since(last_seq):
                        last_seq = partial["seq"] + 1
                        line = dict(partial, event="partial",
                                    job_id=job.job_id)
                        writer.write(json.dumps(line, sort_keys=True)
                                     .encode("utf-8") + b"\n")
                        wrote = True
                if snapshot["revision"] != last_revision:
                    last_revision = snapshot["revision"]
                    writer.write(json.dumps(snapshot, sort_keys=True)
                                 .encode("utf-8") + b"\n")
                    await writer.drain()
                    if snapshot["status"] in (JOB_DONE, JOB_FAILED):
                        break
                elif wrote:
                    await writer.drain()
                else:
                    await asyncio.sleep(_STREAM_POLL_S)
        finally:
            hangup.cancel()
            try:
                await hangup
            except (asyncio.CancelledError, ConnectionResetError,
                    OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    _REASONS = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 409: "Conflict",
        413: "Payload Too Large", 500: "Internal Server Error",
        503: "Service Unavailable", 504: "Gateway Timeout",
    }

    def _write_json(self, writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, Any], keep_alive: bool) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = self._REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)


class ServerHandle:
    """A server running on a background thread (tests, docs, notebooks).

    Produced by :func:`start_in_background`; :attr:`url` is the bound
    address and :meth:`close` tears the loop, thread, and server down.
    Also a context manager.
    """

    def __init__(self, server: AnalysisServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def url(self) -> str:
        """``http://host:port`` of the running server."""
        return self.server.url

    def close(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread (idempotent).

        ``timeout`` bounds both the server shutdown and the thread
        join, in seconds.
        """
        if not self.thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        try:
            future.result(timeout=timeout)
        except Exception:  # noqa: BLE001 - teardown is best effort
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def start_in_background(ready_timeout: float = 30.0,
                        **kwargs: Any) -> ServerHandle:
    """Run an :class:`AnalysisServer` on a daemon thread; return a handle.

    ``kwargs`` go to :class:`AnalysisServer` (``session``, ``host``,
    ``port``, ``queue_depth``, and session knobs like ``cache_dir`` /
    ``jobs``).  Blocks up to ``ready_timeout`` seconds until the
    listener is bound, so :attr:`ServerHandle.url` is immediately
    usable.  Raises the startup error (or ``TimeoutError``) if the
    server fails to come up.
    """
    server = AnalysisServer(**kwargs)
    ready = threading.Event()
    failure: List[BaseException] = []
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failure.append(exc)
            finally:
                ready.set()

        loop.create_task(_boot())
        loop.run_forever()
        loop.close()

    thread = threading.Thread(target=_run, name="tf-serve", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        loop.call_soon_threadsafe(loop.stop)
        raise TimeoutError("analysis server failed to start in time")
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return ServerHandle(server, loop, thread)


async def _serve_forever(server: AnalysisServer) -> None:
    await server.start()
    print(f"threadfuser-serve listening on {server.url} "
          f"(queue depth {server.queue_depth}, "
          f"jobs {server.session.jobs}, "
          f"shards {server.shards})")
    print(f"SERVE_URL={server.url}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


def run_server(server: AnalysisServer) -> int:
    """Blocking entry point of ``threadfuser serve``.

    Prints the bound address (including the machine-readable
    ``SERVE_URL=...`` line the load generator's ``--spawn`` mode
    parses) and serves until interrupted; returns the process exit
    code.
    """
    try:
        asyncio.run(_serve_forever(server))
    except KeyboardInterrupt:
        print("threadfuser-serve: interrupted, shutting down")
    return 0


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "MAX_RETAINED_JOBS",
    "SERVE_SCHEMA_VERSION",
    "AnalysisServer",
    "Job",
    "JobSpec",
    "ServeError",
    "ServerHandle",
    "error_payload",
    "run_server",
    "start_in_background",
    "summarize_report",
]
