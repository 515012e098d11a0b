"""``repro.index``: a sqlite-backed, queryable result index over the store.

The artifact store is a *memoizer*: reports, DCFGs, and telemetry are
opaque pickles/JSON addressed by fingerprint, perfect for skipping work
but useless for answering questions.  "Which workloads dropped below
0.8 SIMT efficiency?", "did the last PR regress pigz?", "how has
pigz's bulk-span token fraction moved across the BENCH snapshots?" all
required unpickling everything by hand.  This module turns the cache into a
**results database**: every write to the store upserts denormalized
rows into ``<store_root>/index.db`` (stdlib :mod:`sqlite3`), and
queries, diffs, and perf trajectories are answered from those rows
without ever touching a payload again.

Tables (all store-derived tables are keyed by the artifact key):

``artifacts``
    One row per stored object of any kind: kind, key, size, and the
    identifying fingerprint scalars (workload, threads, seed, opt
    level).
``runs``
    One row per *report* artifact: the identifying scalars plus the
    analyzer config fields (warp size, batching, lock emulation) and
    the headline metrics (SIMT efficiency, issues, thread
    instructions, heap/stack transactions, traced fraction).
``hotspots``
    The report's divergence hotspots -- ``(function, block addr) ->
    warp splits`` -- so "every run that splits warps inside
    ``deflate_block``" is one indexed query.
``telemetry``
    Flattened counters, gauges, and span wall-times of stored
    telemetry documents, linked to their run row via the recomputed
    report fingerprint (``run_key``).
``bench_runs`` / ``bench_metrics``
    Ingested ``BENCH_*.json`` snapshots (deduplicated by content
    hash), flattened with the same rules as ``tools/bench_compare.py``
    -- the perf *trajectory* across snapshots is first-class data and
    :meth:`ResultIndex.history` gates regressions on it.

Consistency contract
--------------------
The index is maintained **incrementally**: :class:`~repro.artifacts.
ArtifactStore` notifies its listeners on every put / quarantine /
clear, and the index upserts or deletes the matching rows.  A full
:meth:`ResultIndex.rebuild` from the store must produce **bit-identical
rows** to any incrementally-maintained history (the property tests
fuzz randomized put/clear/quarantine interleavings against this).
Both paths derive rows from the same verified payload bytes through
one function (:func:`rows_for_entry`), which is what makes the
invariant structural rather than aspirational.

Failure contract
----------------
Query-side failures are **typed, never wrong**: a locked or corrupt
``index.db`` raises :class:`~repro.errors.IndexCorruptError` carrying
``site="index.db"`` and a rebuild hint after bounded retries -- a
query never silently answers from a database it could not trust.
Write-side index failures degrade to an :class:`IndexWarning` (the
artifact put itself already succeeded; ``index rebuild`` restores the
rows), and corrupt *store* entries encountered during a rebuild are
skipped with an :class:`IndexWarning` naming the entry.  The
``index.db`` fault site (see :mod:`repro.faults`) injects transient
failures into every index operation; the smoke plan arms it at a low
rate so CI's fault-matrix job exercises the retry path continuously.

Queries themselves **never unpickle report payloads** -- the fault
tests bitflip every stored payload and assert queries still answer
identically, straight from sqlite.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import sqlite3
import time
import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import faults
from .artifacts import (
    KIND_REPORT,
    KIND_TELEMETRY,
    KINDS,
    SCHEMA_VERSION as STORE_SCHEMA_VERSION,
    ArtifactEntry,
    ArtifactStore,
    fingerprint_key,
)
from .errors import IndexCorruptError

#: Bump whenever the index table layout or row derivation changes; a
#: mismatch makes every operation demand a rebuild instead of silently
#: misreading rows written by another release.
INDEX_SCHEMA_VERSION = 1

#: Name of the database file inside the store root.
DB_FILENAME = "index.db"

#: Retry schedule for transient index failures (locked database,
#: injected ``index.db`` faults).
_RETRY = faults.RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.5)

#: Seconds sqlite waits on a locked database before raising (per
#: attempt; the retry loop above multiplies this).
_BUSY_TIMEOUT_MS = 2000

_REBUILD_HINT = ("run 'threadfuser index rebuild' to regenerate the "
                 "index from the artifact store (stored artifacts are "
                 "never touched)")

#: Flattened-metric key suffixes with a known good direction, shared
#: with ``tools/bench_compare.py`` (which imports these).
LOWER_IS_BETTER = ("_s",)
HIGHER_IS_BETTER = ("_ips", "speedup", "hit_rate", "efficiency",
                    "_fraction")

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    size INTEGER NOT NULL,
    workload TEXT,
    n_threads INTEGER,
    seed INTEGER,
    opt_level TEXT,
    PRIMARY KEY (kind, key)
);
CREATE TABLE IF NOT EXISTS runs (
    key TEXT PRIMARY KEY,
    workload TEXT NOT NULL,
    n_threads INTEGER,
    seed INTEGER,
    opt_level TEXT,
    warp_size INTEGER,
    batching TEXT,
    emulate_locks INTEGER,
    lock_reconvergence TEXT,
    simt_efficiency REAL,
    issues INTEGER,
    thread_instructions INTEGER,
    n_warps INTEGER,
    heap_transactions INTEGER,
    stack_transactions INTEGER,
    traced_fraction REAL
);
CREATE INDEX IF NOT EXISTS runs_by_workload
    ON runs (workload, warp_size, opt_level);
CREATE TABLE IF NOT EXISTS hotspots (
    key TEXT NOT NULL,
    function TEXT NOT NULL,
    addr INTEGER NOT NULL,
    splits INTEGER NOT NULL,
    PRIMARY KEY (key, function, addr)
);
CREATE TABLE IF NOT EXISTS telemetry (
    key TEXT NOT NULL,
    run_key TEXT NOT NULL,
    section TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (key, section, name)
);
CREATE INDEX IF NOT EXISTS telemetry_by_run
    ON telemetry (run_key, name);
CREATE TABLE IF NOT EXISTS bench_runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    label TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    source TEXT NOT NULL,
    UNIQUE (label, sha256)
);
CREATE TABLE IF NOT EXISTS bench_metrics (
    run_id INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, metric)
);
"""

#: The store-derived tables (wiped and repopulated by a rebuild; the
#: bench trajectory tables are *not* store-derived and survive it).
_STORE_TABLES = ("artifacts", "runs", "hotspots", "telemetry")

#: Comparison operators accepted by counter predicates, mapped to SQL.
_COUNTER_OPS = {">": ">", ">=": ">=", "<": "<", "<=": "<=",
                "=": "=", "==": "="}

#: Textual counter predicate: ``name OP number``.
_COUNTER_EXPR = re.compile(
    r"^\s*([A-Za-z0-9_.]+)\s*(<=|>=|==|=|<|>)\s*(-?[0-9][0-9_.eE+-]*)\s*$")


class IndexWarning(UserWarning):
    """A typed, non-fatal index event (skipped corrupt entry, degraded
    incremental write).  The artifact store itself is unaffected;
    ``threadfuser index rebuild`` restores full consistency."""


# -- shared metric helpers (also imported by tools/bench_compare.py) -----

def flatten_numeric(node: Any, prefix: str = "") -> Dict[str, float]:
    """``{"a": {"b": 1.5}} -> {"a.b": 1.5}``; non-numeric leaves dropped.

    The canonical flattening of ``BENCH_*.json`` documents, shared
    between the bench comparator and the index's trajectory tables so
    the two surfaces always agree on metric names.
    """
    flat: Dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flat.update(flatten_numeric(value, f"{prefix}{key}."))
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        flat[prefix[:-1]] = float(node)
    return flat


def metric_direction(key: str) -> int:
    """``-1`` lower-is-better, ``+1`` higher-is-better, ``0`` neutral.

    Inferred from the flattened key's suffix (``_s`` wall-clock seconds
    are lower-is-better; ``_ips``/``speedup``/``hit_rate``/
    ``efficiency``/``_fraction`` are higher-is-better).
    """
    if key.endswith(LOWER_IS_BETTER):
        return -1
    if key.endswith(HIGHER_IS_BETTER):
        return 1
    return 0


def parse_counter_expr(expr: str) -> Tuple[str, str, float]:
    """``"replay.divergence_events>100"`` -> ``("replay...", ">", 100.0)``.

    The textual form of a :meth:`ResultIndex.query` counter predicate,
    shared by the CLI and the serving layer.  Raises ``ValueError`` on
    anything that is not ``NAME OP NUMBER``.
    """
    match = _COUNTER_EXPR.match(expr)
    if match is None:
        raise ValueError(
            f"bad counter predicate {expr!r} (expected NAME OP NUMBER, "
            "e.g. 'replay.divergence_events>100')")
    return match.group(1), match.group(2), float(match.group(3))


def history_regression(points: Sequence[Dict[str, Any]], metric: str,
                       max_regression: Optional[float]
                       ) -> Optional[Dict[str, Any]]:
    """Direction-aware regression verdict over a metric trajectory.

    Compares the newest snapshot against the one before it (the same
    contract as ``tools/bench_compare.py``, applied to consecutive
    trajectory points).  Returns ``None`` when no verdict is possible
    (fewer than two points, neutral direction, zero baseline, or no
    threshold), otherwise a dict with ``before``/``after``/
    ``delta_pct``/``regressed``.
    """
    if max_regression is None or len(points) < 2:
        return None
    sign = metric_direction(metric)
    if sign == 0:
        return None
    before = points[-2]["value"]
    after = points[-1]["value"]
    if before == 0:
        return None
    delta_pct = (before - after) / before * 100.0 * sign
    return {
        "metric": metric,
        "before": before,
        "after": after,
        "delta_pct": delta_pct,
        "max_regression": max_regression,
        "regressed": delta_pct > max_regression,
    }


# -- row derivation (one function, both maintenance paths) ---------------

def rows_for_entry(kind: str, key: str, fields: Dict[str, Any],
                   payload: bytes) -> Dict[str, Any]:
    """The index rows of one verified store entry.

    Used by *both* the incremental put hook and :meth:`ResultIndex.
    rebuild`, so the two maintenance paths cannot drift: identical
    ``(kind, key, fields, payload)`` inputs always yield identical
    rows.  Raises ``ValueError`` when a checksum-valid payload cannot
    be decoded (layout drift) -- callers decide whether that is a skip
    (rebuild) or a warning (incremental).
    """
    fields = fields or {}
    rows: Dict[str, Any] = {
        "artifact": (
            kind, key, len(payload),
            fields.get("workload"), _int_or_none(fields.get("n_threads")),
            _int_or_none(fields.get("seed")), fields.get("opt_level"),
        ),
        "run": None,
        "hotspots": [],
        "telemetry": [],
    }
    if kind == KIND_REPORT:
        try:
            report = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - classified by caller
            raise ValueError(f"report payload does not unpickle: {exc}")
        try:
            analyzer = fields.get("analyzer") or {}
            rows["run"] = (
                key,
                getattr(report, "workload", fields.get("workload")),
                _int_or_none(fields.get("n_threads")),
                _int_or_none(fields.get("seed")),
                fields.get("opt_level"),
                int(report.warp_size),
                analyzer.get("batching"),
                int(bool(analyzer.get("emulate_locks", False))),
                analyzer.get("lock_reconvergence"),
                float(report.simt_efficiency),
                int(report.metrics.issues),
                int(report.metrics.thread_instructions),
                int(report.n_warps),
                int(report.heap_transactions),
                int(report.stack_transactions),
                float(report.traced_fraction),
            )
            rows["hotspots"] = sorted(
                (key, function, int(addr), int(count))
                for (function, addr), count
                in report.metrics.divergence_events.items()
            )
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"report payload has no metrics: {exc}")
    elif kind == KIND_TELEMETRY:
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"telemetry payload is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise ValueError("telemetry payload is not a JSON object")
        run_key = fingerprint_key(dict(fields, kind=KIND_REPORT))
        cells: List[Tuple[str, str, str, str, float]] = []
        for section, bag in (("counter", doc.get("counters")),
                             ("gauge", doc.get("gauges"))):
            if not isinstance(bag, dict):
                continue
            for name in sorted(bag):
                value = bag[name]
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                cells.append((key, run_key, section, name, float(value)))
        for name, seconds in sorted(
                _flatten_spans(doc.get("spans") or []).items()):
            cells.append((key, run_key, "span_s", name, seconds))
        rows["telemetry"] = cells
    return rows


def _flatten_spans(spans: Iterable[Dict[str, Any]],
                   prefix: str = "") -> Dict[str, float]:
    """Span tree -> ``{"report": 1.2, "report.trace": 0.9, ...}``."""
    flat: Dict[str, float] = {}
    for span in spans:
        if not isinstance(span, dict) or "name" not in span:
            continue
        name = f"{prefix}{span['name']}"
        seconds = span.get("seconds")
        if isinstance(seconds, (int, float)) and \
                not isinstance(seconds, bool):
            flat[name] = float(seconds)
        flat.update(_flatten_spans(span.get("children") or [],
                                   f"{name}."))
    return flat


def _int_or_none(value: Any) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


class ResultIndex:
    """The sqlite-backed result index of one :class:`ArtifactStore`.

    Every public operation opens a short-lived connection (sqlite
    connections are thread-bound; the serving layer queries from
    executor threads while the runner thread upserts), runs under the
    transient-failure retry loop, and maps an untrustworthy database
    to a typed :class:`~repro.errors.IndexCorruptError` -- never to a
    wrong answer.

    Construction never touches the database file; the schema is
    created lazily on first use.  Stores attach the index as a write
    listener automatically (see :attr:`ArtifactStore.index`), so the
    rows track every put/quarantine/clear as it happens.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 path: Optional[str] = None) -> None:
        if store is None and path is None:
            raise ValueError("ResultIndex needs a store or a db path")
        self.store = store
        self.path = path or os.path.join(store.root, DB_FILENAME)
        self._rebuilding = False
        self._write_degraded = False

    # -- low-level plumbing ----------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_MS / 1000)
        conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        """Create missing tables; reject rows from another schema."""
        conn.executescript(_DDL)
        stamps = {k: v for k, v in conn.execute(
            "SELECT k, v FROM meta")}
        expected = {"index_schema": str(INDEX_SCHEMA_VERSION),
                    "store_schema": str(STORE_SCHEMA_VERSION)}
        if not stamps:
            conn.executemany(
                "INSERT OR REPLACE INTO meta (k, v) VALUES (?, ?)",
                sorted(expected.items()))
            return
        for name, want in expected.items():
            if stamps.get(name) != want:
                raise IndexCorruptError(
                    f"index.db was written under {name}="
                    f"{stamps.get(name)!r} (this release expects "
                    f"{want})", site="index.db", hint=_REBUILD_HINT)

    def _run(self, label: str, fn):
        """Run ``fn(conn)`` under retry; typed errors, never garbage.

        Transient failures -- a locked database, an injected
        ``index.db`` fault, a retryable ``OSError`` -- are retried on
        the module schedule; exhaustion and genuinely corrupt sqlite
        files raise :class:`IndexCorruptError` with the site and the
        rebuild hint.
        """
        last: Optional[BaseException] = None
        for attempt in range(max(1, _RETRY.attempts)):
            if attempt:
                time.sleep(_RETRY.delay(attempt - 1))
            try:
                faults.check("index.db", label)
                conn = self._connect()
                try:
                    self._ensure_schema(conn)
                    result = fn(conn)
                    conn.commit()
                    return result
                finally:
                    conn.close()
            except sqlite3.OperationalError as exc:
                last = exc
            except sqlite3.DatabaseError as exc:
                raise IndexCorruptError(
                    f"{label}: index database is corrupt ({exc})",
                    site="index.db", hint=_REBUILD_HINT) from exc
            except IndexCorruptError:
                raise
            except OSError as exc:
                if not faults.is_retryable(exc):
                    raise
                last = exc
        raise IndexCorruptError(
            f"{label}: index database unavailable after "
            f"{_RETRY.attempts} attempts "
            f"(last: {type(last).__name__}: {last})",
            site="index.db", hint=_REBUILD_HINT) from last

    # -- incremental maintenance (the store's write hook) ----------------

    def on_store_event(self, event: str, kind: Optional[str] = None,
                       key: Optional[str] = None,
                       fields: Optional[Dict[str, Any]] = None,
                       data: Optional[bytes] = None) -> None:
        """Apply one store mutation to the index (best effort).

        ``event`` is ``"put"`` (with fields and payload bytes),
        ``"remove"`` (quarantine), or ``"clear"`` (kind, or every
        kind when ``kind is None``).  Write-side failures degrade to
        one :class:`IndexWarning` per index instance -- the artifact
        write already succeeded and a rebuild restores the rows -- so
        an index problem can never fail an analysis run.
        """
        if self._rebuilding:
            return
        try:
            if event == "put":
                self._apply_put(kind, key, fields, data)
            elif event == "remove":
                self._run(f"remove {kind}",
                          lambda conn: self._delete(conn, kind, key))
            elif event == "clear":
                self._run("clear",
                          lambda conn: self._clear(conn, kind))
        except Exception as exc:  # noqa: BLE001 - degrade, never fail a put
            if not self._write_degraded:
                self._write_degraded = True
                warnings.warn(
                    f"result index update failed ({exc}); the artifact "
                    f"store is unaffected -- {_REBUILD_HINT}",
                    IndexWarning, stacklevel=2)

    def _apply_put(self, kind: str, key: str, fields: Dict[str, Any],
                   data: bytes) -> None:
        try:
            rows = rows_for_entry(kind, key, fields, data)
        except ValueError as exc:
            warnings.warn(f"stored {kind} {key[:12]}.. not indexable: "
                          f"{exc}", IndexWarning, stacklevel=3)
            return
        self._run(f"upsert {kind}",
                  lambda conn: self._upsert(conn, rows))

    def _upsert(self, conn: sqlite3.Connection,
                rows: Dict[str, Any]) -> None:
        kind, key = rows["artifact"][0], rows["artifact"][1]
        self._delete(conn, kind, key)
        conn.execute(
            "INSERT OR REPLACE INTO artifacts "
            "(kind, key, size, workload, n_threads, seed, opt_level) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)", rows["artifact"])
        if rows["run"] is not None:
            conn.execute(
                "INSERT OR REPLACE INTO runs VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows["run"])
        if rows["hotspots"]:
            conn.executemany(
                "INSERT OR REPLACE INTO hotspots VALUES (?, ?, ?, ?)",
                rows["hotspots"])
        if rows["telemetry"]:
            conn.executemany(
                "INSERT OR REPLACE INTO telemetry VALUES (?, ?, ?, ?, ?)",
                rows["telemetry"])

    @staticmethod
    def _delete(conn: sqlite3.Connection, kind: str, key: str) -> None:
        conn.execute("DELETE FROM artifacts WHERE kind = ? AND key = ?",
                     (kind, key))
        if kind == KIND_REPORT:
            conn.execute("DELETE FROM runs WHERE key = ?", (key,))
            conn.execute("DELETE FROM hotspots WHERE key = ?", (key,))
        elif kind == KIND_TELEMETRY:
            conn.execute("DELETE FROM telemetry WHERE key = ?", (key,))

    @staticmethod
    def _clear(conn: sqlite3.Connection, kind: Optional[str]) -> None:
        if kind is None:
            for table in _STORE_TABLES:
                conn.execute(f"DELETE FROM {table}")
            return
        conn.execute("DELETE FROM artifacts WHERE kind = ?", (kind,))
        if kind == KIND_REPORT:
            conn.execute("DELETE FROM runs")
            conn.execute("DELETE FROM hotspots")
        elif kind == KIND_TELEMETRY:
            conn.execute("DELETE FROM telemetry")

    # -- rebuild ---------------------------------------------------------

    def ensure_built(self) -> None:
        """Rebuild once when the database file does not exist yet.

        The read surface (CLI query/diff/history, the serve
        endpoints) calls this so a store populated before the index
        existed still answers correctly instead of from an empty
        database.
        """
        if not os.path.exists(self.path):
            self.rebuild()

    def rebuild(self) -> Dict[str, int]:
        """Regenerate every store-derived row from the artifact store.

        Walks the store's meta records, re-reads each payload through
        the verified path (corrupt entries are quarantined by the
        store, *skipped* here with an :class:`IndexWarning`, and
        counted in the returned stats -- never indexed), and
        repopulates the store-derived tables in one transaction.  The
        bench trajectory tables are not store-derived and survive.

        A database file that is itself unreadable (corrupt sqlite) is
        deleted and recreated -- the one case where bench history is
        lost, because it was stored in the corrupt file.

        Returns ``{"indexed", "skipped_corrupt", "skipped_unknown"}``.
        """
        if self.store is None:
            raise ValueError("this index has no store to rebuild from")
        stats = {"indexed": 0, "skipped_corrupt": 0, "skipped_unknown": 0}
        entries = self.store.entries()
        self._rebuilding = True
        try:
            try:
                self._run("rebuild",
                          lambda conn: self._rebuild_into(conn, entries,
                                                          stats))
            except IndexCorruptError:
                # The db file itself is beyond repair: recreate it.
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass
                for name in stats:
                    stats[name] = 0
                self._run("rebuild",
                          lambda conn: self._rebuild_into(conn, entries,
                                                          stats))
        finally:
            self._rebuilding = False
        self._write_degraded = False
        return stats

    def _rebuild_into(self, conn: sqlite3.Connection,
                      entries: List[ArtifactEntry],
                      stats: Dict[str, int]) -> None:
        self._clear(conn, None)
        for name in stats:
            stats[name] = 0
        for entry in entries:
            if entry.kind not in KINDS:
                stats["skipped_unknown"] += 1
                warnings.warn(
                    f"unknown artifact kind {entry.kind!r} "
                    f"({entry.key[:12]}..) left unindexed (written by "
                    "another release; 'threadfuser cache clear' removes "
                    "it)", IndexWarning, stacklevel=4)
                continue
            payload = self.store.read_key(entry.kind, entry.key,
                                          count_stats=False)
            if payload is None:
                stats["skipped_corrupt"] += 1
                warnings.warn(
                    f"corrupt {entry.kind} entry {entry.key[:12]}.. "
                    "quarantined and skipped during index rebuild",
                    IndexWarning, stacklevel=4)
                continue
            try:
                rows = rows_for_entry(entry.kind, entry.key,
                                      entry.fingerprint, payload)
            except ValueError as exc:
                stats["skipped_corrupt"] += 1
                warnings.warn(
                    f"undecodable {entry.kind} entry "
                    f"{entry.key[:12]}.. skipped during index rebuild: "
                    f"{exc}", IndexWarning, stacklevel=4)
                continue
            self._upsert(conn, rows)
            stats["indexed"] += 1

    # -- queries (never touch payloads) ----------------------------------

    def query(self, workload: Optional[str] = None,
              opt_level: Optional[str] = None,
              warp_size: Optional[int] = None,
              min_efficiency: Optional[float] = None,
              max_efficiency: Optional[float] = None,
              hotspot: Optional[str] = None,
              counter: Optional[Tuple[str, str, float]] = None,
              limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Filtered run rows, in a deterministic order.

        Filters compose with AND: ``workload`` / ``opt_level`` /
        ``warp_size`` match exactly, ``min_efficiency`` /
        ``max_efficiency`` bound the SIMT efficiency, ``hotspot``
        keeps runs whose divergence hotspots include the function
        (``"func"`` or ``"func@0xADDR"`` for one specific block), and
        ``counter`` is a ``(name, op, value)`` predicate over the
        run's linked telemetry counters/gauges.  Rows are ordered by
        ``(workload, warp_size, opt_level, n_threads, seed, key)`` --
        bit-identical across rebuilds by construction.
        """
        where: List[str] = []
        params: List[Any] = []
        if workload is not None:
            where.append("workload = ?")
            params.append(workload)
        if opt_level is not None:
            where.append("opt_level = ?")
            params.append(opt_level)
        if warp_size is not None:
            where.append("warp_size = ?")
            params.append(int(warp_size))
        if min_efficiency is not None:
            where.append("simt_efficiency >= ?")
            params.append(float(min_efficiency))
        if max_efficiency is not None:
            where.append("simt_efficiency <= ?")
            params.append(float(max_efficiency))
        if hotspot is not None:
            function, _sep, addr = hotspot.partition("@")
            clause = ("EXISTS (SELECT 1 FROM hotspots h WHERE "
                      "h.key = runs.key AND h.function = ?")
            params.append(function)
            if addr:
                clause += " AND h.addr = ?"
                params.append(int(addr, 0))
            where.append(clause + ")")
        if counter is not None:
            name, op, value = counter
            sql_op = _COUNTER_OPS.get(op)
            if sql_op is None:
                raise ValueError(
                    f"unknown counter operator {op!r} "
                    f"(one of {sorted(_COUNTER_OPS)})")
            where.append(
                "EXISTS (SELECT 1 FROM telemetry t WHERE "
                "t.run_key = runs.key AND t.name = ? AND "
                f"t.section IN ('counter', 'gauge') AND t.value {sql_op} ?)")
            params.extend([name, float(value)])
        sql = "SELECT * FROM runs"
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += (" ORDER BY workload, warp_size, opt_level, n_threads, "
                "seed, key")
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))

        def go(conn: sqlite3.Connection) -> List[Dict[str, Any]]:
            cursor = conn.execute(sql, params)
            names = [column[0] for column in cursor.description]
            return [dict(zip(names, row)) for row in cursor.fetchall()]

        return self._run("query", go)

    def resolve(self, prefix: str) -> str:
        """The unique run key starting with ``prefix``.

        Raises ``KeyError`` when no run matches and ``ValueError``
        when the prefix is ambiguous -- the CLI maps both to exit 2.
        """

        def go(conn: sqlite3.Connection) -> List[str]:
            return [row[0] for row in conn.execute(
                "SELECT key FROM runs WHERE key LIKE ? "
                "ORDER BY key LIMIT 3", (prefix + "%",))]

        matches = self._run("resolve", go)
        if not matches:
            raise KeyError(prefix)
        if len(matches) > 1:
            raise ValueError(
                f"run key prefix {prefix!r} is ambiguous "
                f"({matches[0][:12]}.., {matches[1][:12]}.., ...)")
        return matches[0]

    def diff(self, key_a: str, key_b: str) -> Dict[str, Any]:
        """Field/hotspot/counter differences between two indexed runs.

        Keys may be unique prefixes.  Answers entirely from the index
        rows -- neither report payload is ever read, let alone
        unpickled.
        """
        key_a = self.resolve(key_a)
        key_b = self.resolve(key_b)

        def go(conn: sqlite3.Connection) -> Dict[str, Any]:
            out: Dict[str, Any] = {"a": None, "b": None}
            cursor = conn.execute("SELECT * FROM runs WHERE key = ?",
                                  (key_a,))
            names = [column[0] for column in cursor.description]
            out["a"] = dict(zip(names, cursor.fetchone()))
            out["b"] = dict(zip(
                names,
                conn.execute("SELECT * FROM runs WHERE key = ?",
                             (key_b,)).fetchone()))
            out["hotspots"] = {
                "a": conn.execute(
                    "SELECT function, addr, splits FROM hotspots "
                    "WHERE key = ? ORDER BY function, addr",
                    (key_a,)).fetchall(),
                "b": conn.execute(
                    "SELECT function, addr, splits FROM hotspots "
                    "WHERE key = ? ORDER BY function, addr",
                    (key_b,)).fetchall(),
            }
            out["counters"] = {
                side: dict(conn.execute(
                    "SELECT name, value FROM telemetry "
                    "WHERE run_key = ? AND section = 'counter' "
                    "ORDER BY name", (key,)).fetchall())
                for side, key in (("a", key_a), ("b", key_b))
            }
            return out

        raw = self._run("diff", go)
        fields = {}
        for name in raw["a"]:
            if name == "key":
                continue
            if raw["a"][name] != raw["b"][name]:
                fields[name] = {"a": raw["a"][name], "b": raw["b"][name]}
        hot_a = {(f, addr): splits
                 for f, addr, splits in raw["hotspots"]["a"]}
        hot_b = {(f, addr): splits
                 for f, addr, splits in raw["hotspots"]["b"]}
        hotspots = {
            f"{function}@{addr:#x}": {"a": hot_a.get((function, addr)),
                                      "b": hot_b.get((function, addr))}
            for function, addr in sorted(set(hot_a) | set(hot_b))
            if hot_a.get((function, addr)) != hot_b.get((function, addr))
        }
        counters = {
            name: {"a": raw["counters"]["a"].get(name),
                   "b": raw["counters"]["b"].get(name)}
            for name in sorted(set(raw["counters"]["a"])
                               | set(raw["counters"]["b"]))
            if raw["counters"]["a"].get(name)
            != raw["counters"]["b"].get(name)
        }
        return {
            "a": {"key": key_a, **{k: v for k, v in raw["a"].items()
                                   if k != "key"}},
            "b": {"key": key_b, **{k: v for k, v in raw["b"].items()
                                   if k != "key"}},
            "fields": fields,
            "hotspots": hotspots,
            "counters": counters,
        }

    # -- bench trajectory -------------------------------------------------

    def ingest_bench(self, path: str,
                     label: Optional[str] = None) -> Dict[str, Any]:
        """Record one ``BENCH_*.json`` snapshot in the trajectory tables.

        ``label`` defaults to the file's basename without extension
        (``BENCH_replay``), so re-ingesting successive versions of the
        same bench file grows one named trajectory.  Snapshots are
        deduplicated by content hash: ingesting identical bytes twice
        records one point.  Malformed JSON raises ``ValueError`` (the
        CLI's exit-2 path).
        """
        with open(path, "rb") as inp:
            raw = inp.read()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}")
        metrics = flatten_numeric(doc)
        if not metrics:
            raise ValueError(f"{path} contains no numeric metrics")
        label = label or os.path.splitext(os.path.basename(path))[0]
        digest = hashlib.sha256(raw).hexdigest()

        def go(conn: sqlite3.Connection) -> Dict[str, Any]:
            row = conn.execute(
                "SELECT id FROM bench_runs WHERE label = ? AND sha256 = ?",
                (label, digest)).fetchone()
            if row is not None:
                return {"label": label, "run_id": row[0],
                        "metrics": len(metrics), "deduplicated": True}
            cursor = conn.execute(
                "INSERT INTO bench_runs (label, sha256, source) "
                "VALUES (?, ?, ?)", (label, digest, os.path.abspath(path)))
            run_id = cursor.lastrowid
            conn.executemany(
                "INSERT OR REPLACE INTO bench_metrics VALUES (?, ?, ?)",
                [(run_id, metric, value)
                 for metric, value in sorted(metrics.items())])
            return {"label": label, "run_id": run_id,
                    "metrics": len(metrics), "deduplicated": False}

        return self._run("ingest", go)

    def history(self, metric: str,
                label: Optional[str] = None) -> List[Dict[str, Any]]:
        """The trajectory of one flattened bench metric, oldest first.

        Each point carries ``run_id``/``label``/``source``/``value``.
        Use :func:`history_regression` (or the CLI's
        ``--max-regression``) to gate the newest transition.
        """
        sql = ("SELECT b.id, b.label, b.source, m.value "
               "FROM bench_metrics m JOIN bench_runs b ON b.id = m.run_id "
               "WHERE m.metric = ?")
        params: List[Any] = [metric]
        if label is not None:
            sql += " AND b.label = ?"
            params.append(label)
        sql += " ORDER BY b.id"

        def go(conn: sqlite3.Connection) -> List[Dict[str, Any]]:
            return [
                {"run_id": run_id, "label": run_label, "source": source,
                 "value": value}
                for run_id, run_label, source, value
                in conn.execute(sql, params)
            ]

        return self._run("history", go)

    def workload_history(self, workload: str,
                         label: Optional[str] = None
                         ) -> Dict[str, List[Dict[str, Any]]]:
        """Every tracked trajectory of one workload, keyed by metric.

        The per-workload pivot of :meth:`history`: bench snapshots
        flatten workload sections to ``workloads.<name>.<metric>``
        keys, so this collects every metric under
        ``workloads.<workload>.`` and returns ``{full_metric_name:
        [points oldest-first]}`` with the same point shape as
        :meth:`history`.  An unknown workload yields an empty dict --
        callers (the CLI and ``/v1/index/history?workload=``) turn
        that into their not-found surface.
        """
        sql = ("SELECT m.metric, b.id, b.label, b.source, m.value "
               "FROM bench_metrics m JOIN bench_runs b ON b.id = m.run_id "
               "WHERE m.metric LIKE ? ESCAPE '\\'")
        escaped = (workload.replace("\\", "\\\\").replace("%", "\\%")
                   .replace("_", "\\_"))
        params: List[Any] = [f"workloads.{escaped}.%"]
        if label is not None:
            sql += " AND b.label = ?"
            params.append(label)
        sql += " ORDER BY m.metric, b.id"

        def go(conn: sqlite3.Connection
               ) -> Dict[str, List[Dict[str, Any]]]:
            out: Dict[str, List[Dict[str, Any]]] = {}
            for metric, run_id, run_label, source, value \
                    in conn.execute(sql, params):
                out.setdefault(metric, []).append(
                    {"run_id": run_id, "label": run_label,
                     "source": source, "value": value})
            return out

        return self._run("workload_history", go)

    def metrics(self, label: Optional[str] = None) -> List[str]:
        """Every tracked bench metric name (optionally for one label)."""
        sql = ("SELECT DISTINCT m.metric FROM bench_metrics m "
               "JOIN bench_runs b ON b.id = m.run_id")
        params: List[Any] = []
        if label is not None:
            sql += " WHERE b.label = ?"
            params.append(label)
        sql += " ORDER BY m.metric"
        return self._run(
            "metrics",
            lambda conn: [row[0] for row in conn.execute(sql, params)])

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Row counts per table (the ``threadfuser index rebuild``
        summary and the serve health probe)."""

        def go(conn: sqlite3.Connection) -> Dict[str, int]:
            out = {}
            for table in _STORE_TABLES + ("bench_runs", "bench_metrics"):
                out[table] = conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            return out

        return self._run("stats", go)

    def snapshot(self) -> str:
        """Canonical JSON of every store-derived table, ordered by key.

        Two indexes over the same store history serialize identically
        -- this is the bit-for-bit oracle of the rebuild-equals-
        incremental property tests.
        """

        def go(conn: sqlite3.Connection) -> Dict[str, list]:
            doc = {}
            for table in _STORE_TABLES:
                rows = [list(row) for row in
                        conn.execute(f"SELECT * FROM {table}")]
                # Sort on the serialized row, not the raw tuples: rows
                # mix None/str/float, which do not compare in Python,
                # and SQL ORDER BY would leave ties in scan order.
                rows.sort(key=lambda row: json.dumps(row))
                doc[table] = rows
            return doc

        return json.dumps(self._run("snapshot", go), sort_keys=True,
                          separators=(",", ":"))


__all__ = [
    "DB_FILENAME",
    "HIGHER_IS_BETTER",
    "INDEX_SCHEMA_VERSION",
    "LOWER_IS_BETTER",
    "IndexWarning",
    "ResultIndex",
    "flatten_numeric",
    "history_regression",
    "metric_direction",
    "parse_counter_expr",
    "rows_for_entry",
]
