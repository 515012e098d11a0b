"""``repro.shards``: the horizontal serving substrate.

:mod:`repro.serve` runs one :class:`~repro.session.AnalysisSession`
behind one runner thread -- parallelism lives *inside* a job.  This
module adds the orthogonal axis: a :class:`ShardPool` of N **session
worker processes**, spawned once and crash-respawned exactly like the
:mod:`repro.pool` workers, each owning a private session over the
*shared* artifact store.  The serve dispatcher splits a sweep into
per-width **cells** and fans them across the shards, so independent
jobs (and the independent widths of one sweep) run concurrently while
every correctness property of the single-session server survives:

* **Coalescing holds across shards.**  The job registry and the
  fingerprint cache stay in the serve parent; a duplicate submit
  coalesces there *before* any cell is routed, so an in-flight
  fingerprint owned by shard A absorbs a duplicate submit that would
  have been routed to shard B.
* **Store-warm fast paths hold across shards.**  Every shard session
  opens the same ``cache_dir``; the content-addressed store makes a
  report computed by one shard warm for all of them (and for the
  parent's submit-time ``store.has`` probe).
* **Crash recovery, never a hang.**  A shard killed mid-cell (the
  ``serve.shard`` fault site, or a real crash) is detected by pipe
  EOF / process liveness, killed, respawned, and the cell re-runs --
  up to :data:`MAX_CELL_ATTEMPTS` times, after which the cell fails
  with a typed :class:`~repro.errors.WorkerCrashError`.  Re-runs
  produce bit-identical report bytes because cells are deterministic
  and content-addressed.

Wire protocol (one duplex pipe per shard, strictly sequential)::

    parent -> worker   ("plan", FaultPlan|None)   re-arm fault plan
                       ("cell", {...})            run one analyze cell
                       ("ping",)                  health probe
                       ("exit",)                  clean shutdown
    worker -> parent   ("ready", info)            boot handshake
                       ("stage", name)            pipeline-stage progress
                       ("result", payload)        cell output
                       ("error", encoded_exc)     typed cell failure
                       ("pong", info)             ping reply

``payload`` carries the pickled :class:`~repro.core.report.AnalysisReport`
itself (the parent summarizes it for HTTP clients), the cell's
telemetry JSON, and the machine-execution delta -- the numbers behind
the per-shard detail in ``/v1/health``.

``threadfuser pool info --shards N`` boots a throwaway pool via
:func:`probe_shards` and prints the same per-shard document the
server reports.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from . import faults
from .errors import WorkerCrashError
from .obs import Recorder
from .pool import _decode_exc, _encode_exc, start_method

#: How many times a cell is attempted before it fails typed (first run
#: plus respawn re-runs).  Attempt indices salt the ``serve.shard``
#: fault token, so a rate-based kill does not deterministically re-fire
#: on the re-run.
MAX_CELL_ATTEMPTS = 3

#: Seconds the parent waits for a freshly spawned shard's ``ready``
#: handshake before declaring the spawn failed.
READY_TIMEOUT_S = 60.0

#: Poll interval (seconds) of the parent-side cell wait loop.  Between
#: polls the worker process is liveness-checked, so a killed shard is
#: detected in about this time -- the "never a hang" bound.
_POLL_S = 0.2


class _StageForwarder(Recorder):
    """Worker-side recorder that mirrors stage spans over the pipe.

    The session's own ``obs.span("trace")`` instrumentation doubles as
    the cross-process progress feed: each span entry is sent as a
    ``("stage", name)`` message before the recording proceeds, so the
    parent can update the job document (and its NDJSON event stream)
    while the cell is still running.
    """

    def __init__(self, conn) -> None:
        super().__init__()
        self._conn = conn

    def span(self, name: str):
        try:
            self._conn.send(("stage", name))
        except (BrokenPipeError, OSError):
            pass
        return super().span(name)


def _run_cell(session, conn, cell: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one analyze cell inside the shard worker."""
    from .core.analyzer import AnalyzerConfig

    faults.check("serve.shard", cell.get("token", ""))
    forwarder = _StageForwarder(conn)
    previous = session.obs
    executions_before = session.executions
    session.obs = forwarder
    try:
        report = session.analyze(
            cell["workload"],
            n_threads=cell["n_threads"],
            seed=cell["seed"],
            opt_level=cell["opt_level"],
            config=AnalyzerConfig(
                warp_size=cell["warp_size"],
                batching=cell["batching"],
                emulate_locks=cell["emulate_locks"],
                lock_reconvergence=cell["lock_reconvergence"],
            ),
        )
        return {
            "report": report,
            "telemetry": session.telemetry().to_json(),
            "executions": session.executions - executions_before,
        }
    finally:
        session.obs = previous


def _shard_info() -> Dict[str, Any]:
    """The worker's self-description (handshake and ping payload)."""
    from .core import vector

    return {
        "pid": os.getpid(),
        "vector_backend": vector.BACKEND,
        "numpy_accel": vector.numpy_active(),
    }


def _shard_main(conn, config: Dict[str, Any]) -> None:
    """The shard worker process: one private session, one message loop."""
    from .session import AnalysisSession

    faults.install(config.get("plan"))
    session_kwargs = {key: value for key, value in config.items()
                      if key != "plan"}
    session = AnalysisSession(**session_kwargs)
    try:
        conn.send(("ready", _shard_info()))
    except (BrokenPipeError, OSError):
        session.close()
        return
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            kind = message[0]
            if kind == "exit":
                break
            try:
                if kind == "ping":
                    reply = ("pong", _shard_info())
                elif kind == "plan":
                    faults.install(message[1])
                    reply = ("ok", None)
                elif kind == "cell":
                    reply = ("result", _run_cell(session, conn, message[1]))
                else:
                    raise ValueError(f"unknown shard message {kind!r}")
            except Exception as exc:  # noqa: BLE001 - shipped typed
                reply = ("error", _encode_exc(exc))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        session.close()


class _ShardSlot:
    """One shard: process, pipe, work queue, and parent-side counters."""

    __slots__ = ("index", "process", "conn", "work", "thread", "info",
                 "busy", "stats")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.work: "queue.Queue" = queue.Queue()
        self.thread: Optional[threading.Thread] = None
        self.info: Dict[str, Any] = {}
        self.busy = False
        self.stats: Dict[str, int] = {
            "cells_done": 0, "cells_failed": 0, "cells_skipped": 0,
            "respawns": 0, "executions": 0,
        }


class ShardCrashError(WorkerCrashError):
    """A shard worker died more times than the cell retry budget."""


class ShardPool:
    """N crash-respawning session worker processes behind work queues.

    Parameters
    ----------
    count:
        Number of shard processes.
    config:
        :class:`~repro.session.AnalysisSession` keyword arguments for
        each shard's private session (``cache_dir`` pointing at the
        shared store, ``jobs``, ``engine``, ``memo``,
        ``stage_timeout``).
    cell_timeout:
        Optional per-cell wall-clock bound (seconds).  A cell past it
        has its shard killed and counts as a crash attempt, so a hung
        worker can never hang a job.

    Each slot owns a dedicated dispatch thread draining its work
    queue, so the pipe protocol stays strictly sequential per worker
    while cells on different shards run concurrently.  The active
    fault plan is re-sent before every cell (the moral equivalent of
    fork inheriting it), and a crashed shard is respawned with its
    session rebuilt -- resident caches are lost, the shared store is
    not.
    """

    def __init__(self, count: int, config: Optional[Dict[str, Any]] = None,
                 *, cell_timeout: Optional[float] = None,
                 mp_context=None) -> None:
        self.count = max(1, int(count))
        self.config = dict(config or {})
        self.cell_timeout = cell_timeout
        self.closed = False
        self._mp = mp_context or multiprocessing.get_context(start_method())
        self._slots = [_ShardSlot(index) for index in range(self.count)]
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard, wait for handshakes, start the threads."""
        for slot in self._slots:
            self._spawn(slot)
            slot.thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"tf-shard-{slot.index}", daemon=True)
            slot.thread.start()

    def close(self) -> None:
        """Drain the threads and shut every shard down (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for slot in self._slots:
            slot.work.put(None)
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=10.0)
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(("exit",))
                except (OSError, ValueError):
                    pass
            self._kill(slot)

    def _spawn(self, slot: _ShardSlot) -> None:
        """Start (or restart) the worker process behind ``slot``."""
        config = dict(self.config)
        config["plan"] = faults.active()
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_main, args=(child_conn, config), daemon=True,
            name=f"threadfuser-shard-{slot.index}")
        process.start()
        child_conn.close()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not parent_conn.poll(0.05):
            if time.monotonic() > deadline or not process.is_alive():
                try:
                    process.terminate()
                except OSError:
                    pass
                raise OSError(
                    f"shard {slot.index} failed its ready handshake")
        kind, info = parent_conn.recv()
        if kind != "ready":
            raise OSError(f"shard {slot.index} sent {kind!r} before ready")
        slot.process = process
        slot.conn = parent_conn
        slot.info = info

    def _kill(self, slot: _ShardSlot) -> None:
        process, conn = slot.process, slot.conn
        slot.process = slot.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            try:
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            except (OSError, ValueError, AttributeError):
                pass

    # -- dispatch --------------------------------------------------------

    def pick(self) -> int:
        """Index of the least-loaded shard (queue depth + busy flag)."""
        with self._lock:
            return min(
                self._slots,
                key=lambda s: (s.work.qsize() + (1 if s.busy else 0),
                               s.index),
            ).index

    def outstanding(self) -> int:
        """Cells queued or running across every shard."""
        with self._lock:
            return sum(slot.work.qsize() + (1 if slot.busy else 0)
                       for slot in self._slots)

    def submit(self, cell: Dict[str, Any], *,
               shard: Optional[int] = None,
               on_stage: Optional[Callable[[str], None]] = None,
               should_run: Optional[Callable[[], bool]] = None,
               on_complete: Callable[..., None]) -> int:
        """Queue one cell; returns the shard index it was routed to.

        ``on_complete(payload, exc, shard_index, skipped)`` fires on
        the shard's dispatch thread: exactly one of ``payload`` (the
        worker's result document) and ``exc`` is set unless
        ``should_run`` vetoed the cell (``skipped=True``, both
        ``None``).
        """
        if self.closed:
            raise OSError("shard pool is closed")
        index = self.pick() if shard is None else shard
        self._slots[index].work.put(
            ("cell", cell, on_stage, should_run, on_complete))
        return index

    def ping(self, timeout: float = 10.0) -> List[Dict[str, Any]]:
        """Round-trip every shard through its work queue; info docs."""
        boxes = []
        for slot in self._slots:
            box: "queue.Queue" = queue.Queue()
            slot.work.put(("ping", box))
            boxes.append((slot, box))
        infos = []
        for slot, box in boxes:
            try:
                infos.append(box.get(timeout=timeout))
            except queue.Empty:
                infos.append({"pid": None, "shard": slot.index,
                              "error": "ping timed out"})
        return infos

    # -- the per-shard dispatch thread -----------------------------------

    def _slot_loop(self, slot: _ShardSlot) -> None:
        while True:
            item = slot.work.get()
            if item is None:
                return
            if item[0] == "ping":
                item[1].put(self._ping_slot(slot))
                continue
            _kind, cell, on_stage, should_run, on_complete = item
            if should_run is not None and not should_run():
                with self._lock:
                    slot.stats["cells_skipped"] += 1
                on_complete(None, None, slot.index, True)
                continue
            with self._lock:
                slot.busy = True
            payload = exc = None
            try:
                payload = self._drive_cell(slot, cell, on_stage)
            except Exception as caught:  # noqa: BLE001 - typed onward
                exc = caught
            finally:
                with self._lock:
                    slot.busy = False
                    if exc is not None:
                        slot.stats["cells_failed"] += 1
                    elif payload is not None:
                        slot.stats["cells_done"] += 1
                        slot.stats["executions"] += int(
                            payload.get("executions", 0))
            on_complete(payload, exc, slot.index, False)

    def _ping_slot(self, slot: _ShardSlot) -> Dict[str, Any]:
        try:
            if slot.conn is None:
                self._respawn(slot)
            slot.conn.send(("ping",))
            deadline = time.monotonic() + 10.0
            while not slot.conn.poll(_POLL_S):
                if time.monotonic() > deadline:
                    raise OSError("ping timed out")
            kind, info = slot.conn.recv()
            if kind != "pong":
                raise OSError(f"unexpected ping reply {kind!r}")
            return dict(info, shard=slot.index)
        except (OSError, EOFError, ValueError) as exc:
            return {"pid": None, "shard": slot.index, "error": str(exc)}

    def _respawn(self, slot: _ShardSlot) -> None:
        self._kill(slot)
        self._spawn(slot)
        with self._lock:
            slot.stats["respawns"] += 1

    def _drive_cell(self, slot: _ShardSlot, cell: Dict[str, Any],
                    on_stage) -> Dict[str, Any]:
        """Run one cell, respawning the shard on crashes (never hangs)."""
        base_token = cell.get("token", "")
        last_crash = ""
        for attempt in range(1, MAX_CELL_ATTEMPTS + 1):
            if slot.conn is None or slot.process is None \
                    or not slot.process.is_alive():
                self._respawn(slot)
            attempt_cell = dict(cell, token=f"{base_token}#{attempt}")
            try:
                # Re-arm the plan so worker-side faults see the
                # parent's current schedule (and so plans installed
                # after spawn reach long-lived shards).
                slot.conn.send(("plan", faults.active()))
                self._await_reply(slot, expected=("ok",), on_stage=None)
                slot.conn.send(("cell", attempt_cell))
                kind, value = self._await_reply(
                    slot, expected=("result", "error"), on_stage=on_stage)
            except _ShardDied as died:
                last_crash = str(died)
                self._kill(slot)
                continue
            if kind == "result":
                return value
            raise _decode_exc(value)
        raise ShardCrashError(
            f"shard {slot.index} crashed {MAX_CELL_ATTEMPTS} times running "
            f"cell {base_token!r} (last: {last_crash})",
            site="serve.shard",
            hint="the cell is deterministic -- persistent crashes mean a "
                 "real bug or resource exhaustion; check shard logs/rlimits",
        )

    def _await_reply(self, slot: _ShardSlot, *, expected, on_stage):
        """Wait for a terminal reply, forwarding ``stage`` messages.

        Polls in :data:`_POLL_S` increments, checking process liveness
        (and the optional ``cell_timeout``) between polls, so a killed
        or hung shard surfaces as :class:`_ShardDied` instead of a
        blocked thread.
        """
        deadline = (time.monotonic() + self.cell_timeout
                    if self.cell_timeout else None)
        while True:
            try:
                if not slot.conn.poll(_POLL_S):
                    if not slot.process.is_alive():
                        raise _ShardDied("shard process died")
                    if deadline is not None and \
                            time.monotonic() > deadline:
                        raise _ShardDied(
                            f"cell exceeded {self.cell_timeout}s")
                    continue
                kind, value = slot.conn.recv()
            except (EOFError, OSError):
                raise _ShardDied("shard pipe closed") from None
            if kind == "stage":
                if on_stage is not None:
                    on_stage(value)
                continue
            if kind in expected:
                return kind, value
            raise _ShardDied(f"protocol desync: unexpected {kind!r}")

    # -- observability ---------------------------------------------------

    def busy_count(self) -> int:
        """How many shards are running a cell right now."""
        with self._lock:
            return sum(1 for slot in self._slots if slot.busy)

    def health(self) -> List[Dict[str, Any]]:
        """One document per shard: liveness, load, and counters."""
        docs = []
        with self._lock:
            for slot in self._slots:
                process = slot.process
                docs.append({
                    "shard": slot.index,
                    "pid": process.pid if process is not None else None,
                    "alive": bool(process is not None
                                  and process.is_alive()),
                    "queue": slot.work.qsize(),
                    "busy": slot.busy,
                    "vector_backend": slot.info.get("vector_backend"),
                    "numpy_accel": slot.info.get("numpy_accel"),
                    **slot.stats,
                })
        return docs


class _ShardDied(Exception):
    """Internal: the worker behind a slot died or desynced mid-cell."""


def probe_shards(count: int = 2,
                 cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Boot a throwaway :class:`ShardPool`, ping it, and report.

    The ``threadfuser pool info --shards N`` payload: the same
    per-shard documents ``/v1/health`` serves, measured on a pool that
    existed only for the probe.
    """
    pool = ShardPool(count, {"cache_dir": cache_dir})
    t0 = time.perf_counter()
    pool.start()
    spawn_s = time.perf_counter() - t0
    try:
        infos = pool.ping()
        detail = pool.health()
        for doc, info in zip(detail, infos):
            doc["ping"] = info
    finally:
        pool.close()
    return {
        "shards": count,
        "start_method": start_method(),
        "spawn_s": round(spawn_s, 6),
        "detail": detail,
    }


__all__ = [
    "MAX_CELL_ATTEMPTS",
    "READY_TIMEOUT_S",
    "ShardCrashError",
    "ShardPool",
    "probe_shards",
]
