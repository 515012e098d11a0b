"""The sqlite result index (``repro.index``): the ISSUE 9 contracts.

* **Incremental == rebuild** -- the index maintained by store write
  hooks serializes bit-identically to a fresh rebuild from the same
  store (the randomized histories live in
  ``test_index_properties.py``; here the targeted cases).
* **Queries never unpickle payloads** -- after bitflipping every
  stored payload on disk, query/diff/history answer byte-identically,
  and a read-probe asserts the store is never touched.
* **Corrupt entries are skipped typed** -- a rebuild over a corrupt
  store quarantines/skips with :class:`~repro.index.IndexWarning`,
  never indexes garbage.
* **Trajectory tracking** -- ``BENCH_*.json`` ingestion is
  deduplicated by content, ordered, and regression-gated with the same
  direction rules as ``tools/bench_compare.py``.
* **CLI exit contract** -- ``threadfuser index``: 0 success, 1
  regression, 2 bad input, 3 typed pipeline error.
"""

import dataclasses
import json
import os
import warnings
from typing import Dict, Tuple

import pytest

from repro import faults
from repro.artifacts import (
    KIND_DCFGS,
    KIND_REPORT,
    KIND_TELEMETRY,
    KIND_TRACES,
    ArtifactStore,
    fingerprint_key,
)
from repro.cli import main
from repro.errors import IndexCorruptError
from repro.index import (
    DB_FILENAME,
    IndexWarning,
    ResultIndex,
    flatten_numeric,
    history_regression,
    metric_direction,
    parse_counter_expr,
    rows_for_entry,
)


# -- synthetic reports (cheap, pickle-stable) ----------------------------

@dataclasses.dataclass
class FakeMetrics:
    issues: int = 100
    thread_instructions: int = 800
    divergence_events: Dict[Tuple[str, int], int] = \
        dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class FakeReport:
    workload: str = "vectoradd"
    warp_size: int = 32
    simt_efficiency: float = 0.5
    n_warps: int = 1
    n_threads: int = 8
    heap_transactions: int = 12
    stack_transactions: int = 3
    traced_fraction: float = 1.0
    metrics: FakeMetrics = dataclasses.field(default_factory=FakeMetrics)


def report_fields(workload="vectoradd", n_threads=8, seed=7,
                  opt_level="O1", warp_size=32):
    return {
        "kind": KIND_REPORT,
        "workload": workload,
        "n_threads": n_threads,
        "seed": seed,
        "opt_level": opt_level,
        "analyzer": {
            "warp_size": warp_size,
            "batching": "linear",
            "emulate_locks": False,
            "lock_reconvergence": "unlock",
        },
    }


def put_report(store, workload="vectoradd", efficiency=0.5, seed=7,
               warp_size=32, hotspots=None, **over):
    fields = report_fields(workload=workload, seed=seed,
                           warp_size=warp_size, **over)
    report = FakeReport(
        workload=workload, warp_size=warp_size,
        simt_efficiency=efficiency,
        n_threads=fields["n_threads"],
        metrics=FakeMetrics(divergence_events=dict(hotspots or {})),
    )
    store.put_object(KIND_REPORT, fields, report)
    return fields


def put_telemetry(store, fields, counters=None, gauges=None, spans=None):
    doc = {
        "telemetry_schema": 1,
        "meta": {},
        "spans": spans or [],
        "counters": counters or {},
        "gauges": gauges or {},
    }
    tele_fields = dict(fields, kind=KIND_TELEMETRY)
    store.put_bytes(KIND_TELEMETRY, tele_fields,
                    json.dumps(doc).encode() + b"\n")
    return tele_fields


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


# -- metric helpers -------------------------------------------------------

class TestMetricHelpers:
    def test_flatten_drops_non_numeric_and_bools(self):
        flat = flatten_numeric(
            {"a": {"b": 1.5, "flag": True, "name": "x"}, "c": 2})
        assert flat == {"a.b": 1.5, "c": 2.0}

    @pytest.mark.parametrize("key,sign", [
        ("workloads.pigz.replay_s", -1),
        ("geomean_vector_speedup", 1),
        ("serve.coalesce_hit_rate", 1),
        ("simt_efficiency", 1),
        ("traced_fraction", 1),
        ("workloads.nbody.issues", 0),
    ])
    def test_direction(self, key, sign):
        assert metric_direction(key) == sign

    def test_parse_counter_expr(self):
        assert parse_counter_expr("replay.issues>100") == \
            ("replay.issues", ">", 100.0)
        assert parse_counter_expr(" x.y <= -2.5 ") == ("x.y", "<=", -2.5)
        with pytest.raises(ValueError, match="predicate"):
            parse_counter_expr("no spaces allowed!!")

    def test_history_regression_is_direction_aware(self):
        worse = [{"value": 1.0}, {"value": 2.0}]
        # Seconds doubling is a 100% regression...
        verdict = history_regression(worse, "replay_s", 10.0)
        assert verdict["regressed"] and verdict["delta_pct"] == 100.0
        # ...while a speedup doubling is an improvement.
        verdict = history_regression(worse, "speedup", 10.0)
        assert not verdict["regressed"]
        # No threshold, too few points, neutral keys: no verdict.
        assert history_regression(worse, "replay_s", None) is None
        assert history_regression(worse[:1], "replay_s", 10.0) is None
        assert history_regression(worse, "issues", 10.0) is None


# -- row derivation -------------------------------------------------------

class TestRowDerivation:
    def test_report_rows(self):
        fields = report_fields(workload="pigz", warp_size=16)
        report = FakeReport(workload="pigz", warp_size=16,
                            simt_efficiency=0.25,
                            metrics=FakeMetrics(
                                divergence_events={("worker", 64): 5}))
        import pickle
        rows = rows_for_entry(KIND_REPORT, "k1", fields,
                              pickle.dumps(report))
        assert rows["artifact"][:2] == (KIND_REPORT, "k1")
        assert rows["run"][1] == "pigz"
        assert rows["run"][5] == 16          # warp_size
        assert rows["run"][9] == 0.25        # simt_efficiency
        assert rows["hotspots"] == [("k1", "worker", 64, 5)]

    def test_telemetry_rows_link_to_the_report_run(self):
        fields = report_fields()
        tele_fields = dict(fields, kind=KIND_TELEMETRY)
        doc = {
            "counters": {"replay.issues": 9, "skipme": "text"},
            "gauges": {"replay.vector_fraction": 0.75},
            "spans": [{"name": "report", "seconds": 1.5, "count": 1,
                       "children": [{"name": "trace", "seconds": 0.5}]}],
        }
        rows = rows_for_entry(KIND_TELEMETRY, "k2", tele_fields,
                              json.dumps(doc).encode())
        run_key = fingerprint_key(dict(fields, kind=KIND_REPORT))
        cells = {(section, name): (rk, value)
                 for _key, rk, section, name, value in rows["telemetry"]}
        assert cells[("counter", "replay.issues")] == (run_key, 9.0)
        assert cells[("gauge", "replay.vector_fraction")] == (run_key, 0.75)
        assert cells[("span_s", "report")] == (run_key, 1.5)
        assert cells[("span_s", "report.trace")] == (run_key, 0.5)
        assert ("counter", "skipme") not in cells

    def test_undecodable_payloads_raise_value_error(self):
        with pytest.raises(ValueError, match="unpickle"):
            rows_for_entry(KIND_REPORT, "k", {}, b"not a pickle")
        with pytest.raises(ValueError, match="JSON"):
            rows_for_entry(KIND_TELEMETRY, "k", {}, b"{truncated")
        # Non-report kinds only produce an artifact row.
        rows = rows_for_entry(KIND_TRACES, "k", {"workload": "x"}, b"abc")
        assert rows["run"] is None and rows["artifact"][2] == 3


# -- incremental maintenance ---------------------------------------------

class TestIncrementalMaintenance:
    def test_puts_upsert_rows(self, store):
        put_report(store, efficiency=0.4)
        index = store.index
        rows = index.query()
        assert len(rows) == 1
        assert rows[0]["simt_efficiency"] == 0.4
        # Re-putting the same fingerprint stays one row.
        put_report(store, efficiency=0.4)
        assert len(index.query()) == 1

    def test_quarantine_removes_rows(self, store):
        fields = put_report(store)
        index = store.index
        assert len(index.query()) == 1
        store.quarantine(KIND_REPORT, fingerprint_key(fields))
        assert index.query() == []
        assert index.stats()["artifacts"] == 0

    def test_clear_kind_and_clear_all(self, store):
        fields = put_report(store)
        put_telemetry(store, fields, counters={"c": 1})
        index = store.index
        assert index.stats()["telemetry"] == 1
        store.clear(KIND_TELEMETRY)
        assert index.stats()["telemetry"] == 0
        assert len(index.query()) == 1
        store.clear()
        assert index.stats() == {
            "artifacts": 0, "runs": 0, "hotspots": 0, "telemetry": 0,
            "bench_runs": 0, "bench_metrics": 0}

    def test_reopened_store_answers_without_rebuilding(self, store):
        put_report(store, efficiency=0.7)
        reopened = ArtifactStore(store.root)
        assert reopened.index.query()[0]["simt_efficiency"] == 0.7

    def test_store_populated_before_indexing_backfills(self, tmp_path):
        # Build the store with the index detached (as an older release
        # would have), then attach: the first access must backfill.
        store = ArtifactStore(str(tmp_path))
        store._listeners.clear()
        store._index = None
        put_report(store, efficiency=0.9)
        os.unlink(os.path.join(store.root, DB_FILENAME))
        store._listeners.clear()
        store._index = None
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.index.query()[0]["simt_efficiency"] == 0.9


# -- rebuild consistency --------------------------------------------------

class TestRebuildConsistency:
    def test_rebuild_is_bit_identical_to_incremental(self, store):
        fields = put_report(store, workload="pigz", efficiency=0.3,
                            hotspots={("worker", 64): 7})
        put_telemetry(store, fields, counters={"replay.issues": 5},
                      spans=[{"name": "report", "seconds": 0.1}])
        put_report(store, workload="nbody", efficiency=0.9, seed=8)
        store.quarantine(
            KIND_REPORT,
            fingerprint_key(report_fields(workload="nbody", seed=8)))
        incremental = store.index.snapshot()
        stats = store.index.rebuild()
        assert stats["indexed"] == 2
        assert store.index.snapshot() == incremental

    def test_rebuild_skips_corrupt_entries_with_typed_warning(self, store):
        fields = put_report(store)
        put_report(store, workload="nbody", seed=9)
        # Rot the first report's payload on disk.
        path = store.payload_path(KIND_REPORT, fields)
        with open(path, "r+b") as fh:
            fh.write(b"\xff\xff")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = store.index.rebuild()
        assert stats == {"indexed": 1, "skipped_corrupt": 1,
                         "skipped_unknown": 0}
        assert any(isinstance(w.message, IndexWarning)
                   and "corrupt" in str(w.message) for w in caught)
        rows = store.index.query()
        assert [row["workload"] for row in rows] == ["nbody"]
        # The store quarantined the rotten entry during the rebuild.
        assert store.quarantined()["count"] == 1

    def test_rebuild_skips_unknown_kinds(self, store):
        put_report(store)
        alien = os.path.join(store.root, "objects", "blobs", "aa")
        os.makedirs(alien)
        with open(os.path.join(alien, "a" * 8 + ".meta.json"), "w") as fh:
            json.dump({"kind": "blobs", "key": "a" * 8, "size": 1,
                       "fingerprint": {}}, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = store.index.rebuild()
        assert stats["skipped_unknown"] == 1
        assert any(isinstance(w.message, IndexWarning)
                   and "unknown artifact kind" in str(w.message)
                   for w in caught)

    def test_rebuild_recreates_a_corrupt_database_file(self, store):
        put_report(store, efficiency=0.6)
        index = store.index
        db = index.path
        with open(db, "wb") as fh:
            fh.write(b"this is not a sqlite file" * 100)
        # Queries refuse the garbage with a typed error...
        with pytest.raises(IndexCorruptError) as err:
            index.query()
        assert err.value.site == "index.db"
        assert "rebuild" in err.value.hint
        # ...and a rebuild recreates the file from the store.
        index.rebuild()
        assert index.query()[0]["simt_efficiency"] == 0.6

    def test_schema_mismatch_is_typed(self, store):
        put_report(store)
        index = store.index
        import sqlite3
        conn = sqlite3.connect(index.path)
        conn.execute("UPDATE meta SET v = '999' WHERE k = 'index_schema'")
        conn.commit()
        conn.close()
        with pytest.raises(IndexCorruptError, match="index_schema"):
            index.query()


# -- query surface --------------------------------------------------------

class TestQuerySurface:
    @pytest.fixture
    def seeded(self, store):
        put_report(store, workload="pigz", efficiency=0.2, warp_size=8,
                   hotspots={("deflate_block", 64): 9, ("worker", 80): 2})
        put_report(store, workload="pigz", efficiency=0.4, warp_size=32,
                   hotspots={("deflate_block", 64): 3})
        fields = put_report(store, workload="nbody", efficiency=0.95,
                            warp_size=32)
        put_telemetry(store, fields,
                      counters={"replay.divergence_events": 150})
        return store.index

    def test_filters_compose(self, seeded):
        assert len(seeded.query(workload="pigz")) == 2
        assert len(seeded.query(max_efficiency=0.3)) == 1
        assert len(seeded.query(min_efficiency=0.3, workload="pigz")) == 1
        assert len(seeded.query(warp_size=32)) == 2
        assert len(seeded.query(limit=1)) == 1

    def test_hotspot_filter_by_function_and_block(self, seeded):
        assert len(seeded.query(hotspot="deflate_block")) == 2
        assert len(seeded.query(hotspot="worker")) == 1
        assert len(seeded.query(hotspot="deflate_block@0x40")) == 2
        assert seeded.query(hotspot="deflate_block@0x50") == []

    def test_counter_predicate(self, seeded):
        rows = seeded.query(
            counter=("replay.divergence_events", ">", 100))
        assert [row["workload"] for row in rows] == ["nbody"]
        assert seeded.query(
            counter=("replay.divergence_events", "<", 100)) == []
        with pytest.raises(ValueError, match="operator"):
            seeded.query(counter=("x", "!=", 1))

    def test_order_is_deterministic(self, seeded):
        keys = [row["key"] for row in seeded.query()]
        assert keys == [row["key"] for row in seeded.query()]
        workloads = [row["workload"] for row in seeded.query()]
        assert workloads == sorted(workloads)

    def test_resolve_prefixes(self, seeded):
        key = seeded.query(workload="nbody")[0]["key"]
        assert seeded.resolve(key[:10]) == key
        with pytest.raises(KeyError):
            seeded.resolve("zz")
        with pytest.raises(ValueError, match="ambiguous"):
            seeded.resolve("")

    def test_diff(self, seeded):
        rows = seeded.query(workload="pigz")
        result = seeded.diff(rows[0]["key"][:12], rows[1]["key"][:12])
        assert result["fields"]["warp_size"] == {"a": 8, "b": 32}
        assert result["fields"]["simt_efficiency"] == {"a": 0.2, "b": 0.4}
        assert result["hotspots"]["deflate_block@0x40"] == {"a": 9, "b": 3}
        assert result["hotspots"]["worker@0x50"] == {"a": 2, "b": None}
        # Identical runs diff empty.
        same = seeded.diff(rows[0]["key"], rows[0]["key"])
        assert not same["fields"] and not same["hotspots"]


# -- the no-unpickle guarantee -------------------------------------------

class TestNoUnpickle:
    def test_queries_survive_bitflipped_payloads(self, store):
        """The acceptance criterion: flip every payload byte on disk;
        query/diff/history still answer byte-identically -- the read
        surface runs on sqlite rows alone."""
        fields = put_report(store, workload="pigz", efficiency=0.3,
                            hotspots={("worker", 64): 7})
        put_telemetry(store, fields, counters={"replay.issues": 5})
        put_report(store, workload="nbody", efficiency=0.9)
        index = store.index
        before_query = json.dumps(index.query(), sort_keys=True)
        keys = [row["key"] for row in index.query()]
        before_diff = json.dumps(index.diff(*keys), sort_keys=True)

        flipped = 0
        for dirpath, _dirs, names in os.walk(
                os.path.join(store.root, "objects")):
            for name in names:
                if name.endswith(".meta.json"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r+b") as fh:
                    first = fh.read(1)
                    fh.seek(0)
                    fh.write(bytes([first[0] ^ 0xFF]))
                flipped += 1
        assert flipped >= 3

        assert json.dumps(index.query(), sort_keys=True) == before_query
        assert json.dumps(index.diff(*keys), sort_keys=True) == before_diff
        assert index.query(hotspot="worker")[0]["workload"] == "pigz"
        # And nothing was quarantined: no payload was even read.
        assert store.quarantined()["count"] == 0

    def test_read_surface_never_touches_the_store(self, store,
                                                  monkeypatch):
        fields = put_report(store)
        put_telemetry(store, fields, counters={"c": 1})
        index = store.index

        def trip(*_args, **_kwargs):
            raise AssertionError("query surface read a payload")

        monkeypatch.setattr(store, "read_key", trip)
        monkeypatch.setattr(store, "get_bytes", trip)
        monkeypatch.setattr(store, "get_object", trip)
        rows = index.query()
        index.diff(rows[0]["key"], rows[0]["key"])
        index.stats()
        index.history("anything")


# -- bench trajectory -----------------------------------------------------

class TestBenchTrajectory:
    def _bench(self, tmp_path, name, geomean):
        path = tmp_path / name
        path.write_text(json.dumps({
            "geomean_vector_speedup": geomean,
            "workloads": {"nbody": {"vector_speedup": geomean}},
        }))
        return str(path)

    def test_ingest_history_and_dedup(self, tmp_path, store):
        index = store.index
        first = index.ingest_bench(
            self._bench(tmp_path, "BENCH_a.json", 2.0), label="replay")
        assert first["deduplicated"] is False
        again = index.ingest_bench(
            self._bench(tmp_path, "BENCH_a2.json", 2.0), label="replay")
        assert again["deduplicated"] is True
        index.ingest_bench(
            self._bench(tmp_path, "BENCH_b.json", 2.5), label="replay")
        points = index.history("geomean_vector_speedup")
        assert [p["value"] for p in points] == [2.0, 2.5]
        assert history_regression(points, "geomean_vector_speedup",
                                  10.0)["regressed"] is False
        assert "geomean_vector_speedup" in index.metrics()

    def test_workload_history_pivots_per_metric(self, tmp_path, store):
        index = store.index
        index.ingest_bench(self._bench(tmp_path, "a.json", 2.0),
                           label="replay")
        index.ingest_bench(self._bench(tmp_path, "b.json", 2.5),
                           label="replay")
        pivot = index.workload_history("nbody")
        assert set(pivot) == {"workloads.nbody.vector_speedup"}
        points = pivot["workloads.nbody.vector_speedup"]
        assert [p["value"] for p in points] == [2.0, 2.5]
        # Same point shape as history() on the full metric name.
        assert points == index.history("workloads.nbody.vector_speedup")
        # Unknown workloads yield an empty dict, and LIKE wildcards in
        # the workload name are escaped, not interpreted.
        assert index.workload_history("no-such-workload") == {}
        assert index.workload_history("nb%") == {}
        assert index.workload_history("nbod_") == {}
        # Labels partition the pivot like they partition history().
        assert index.workload_history("nbody", label="other") == {}

    def test_labels_partition_trajectories(self, tmp_path, store):
        index = store.index
        index.ingest_bench(self._bench(tmp_path, "a.json", 1.0),
                           label="one")
        index.ingest_bench(self._bench(tmp_path, "b.json", 9.0),
                           label="two")
        assert [p["value"] for p in
                index.history("geomean_vector_speedup", label="one")] \
            == [1.0]

    def test_default_label_is_the_basename(self, tmp_path, store):
        index = store.index
        result = index.ingest_bench(
            self._bench(tmp_path, "BENCH_replay.json", 2.0))
        assert result["label"] == "BENCH_replay"

    def test_malformed_bench_raises_value_error(self, tmp_path, store):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            store.index.ingest_bench(str(bad))
        empty = tmp_path / "empty.json"
        empty.write_text('{"name": "no numbers here"}')
        with pytest.raises(ValueError, match="no numeric"):
            store.index.ingest_bench(str(empty))

    def test_rebuild_preserves_the_trajectory(self, tmp_path, store):
        index = store.index
        index.ingest_bench(self._bench(tmp_path, "a.json", 2.0))
        put_report(store)
        index.rebuild()
        assert len(index.history("geomean_vector_speedup")) == 1


# -- the committed BENCH files (acceptance criterion) --------------------

class TestCommittedBenchFiles:
    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_history_reproduces_the_committed_metric(self, store):
        bench = os.path.join(self.REPO, "BENCH_replay.json")
        index = store.index
        index.ingest_bench(bench)
        points = index.history("workloads.pigz.vector_token_fraction")
        with open(bench) as fh:
            expected = json.load(fh)["workloads"]["pigz"][
                "vector_token_fraction"]
        assert [p["value"] for p in points] == [expected]

    def test_flattening_matches_bench_compare(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "bench_compare",
            os.path.join(self.REPO, "tools", "bench_compare.py"))
        bench_compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_compare)
        with open(os.path.join(self.REPO, "BENCH_replay.json")) as fh:
            doc = json.load(fh)
        assert bench_compare.flatten(doc) == flatten_numeric(doc)
        assert bench_compare.direction("x_s") == metric_direction("x_s")


# -- CLI exit contract ----------------------------------------------------

class TestCliContract:
    @pytest.fixture
    def cache(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        put_report(store, workload="pigz", efficiency=0.3,
                   hotspots={("worker", 64): 7})
        put_report(store, workload="nbody", efficiency=0.9)
        return store.root

    def test_rebuild_and_query_exit_zero(self, cache, capsys):
        assert main(["index", "rebuild", "--cache-dir", cache]) == 0
        assert "indexed 2 artifacts" in capsys.readouterr().out
        assert main(["index", "query", "--cache-dir", cache,
                     "--workload", "pigz"]) == 0
        out = capsys.readouterr().out
        assert "pigz" in out and "1 run(s)" in out

    def test_query_json_lines(self, cache, capsys):
        assert main(["index", "query", "--cache-dir", cache,
                     "--json"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert {row["workload"] for row in rows} == {"pigz", "nbody"}

    def test_diff_exit_codes(self, cache, capsys):
        assert main(["index", "query", "--cache-dir", cache,
                     "--json"]) == 0
        keys = [json.loads(line)["key"]
                for line in capsys.readouterr().out.splitlines()]
        assert main(["index", "diff", "--cache-dir", cache,
                     keys[0][:12], keys[1][:12]]) == 0
        assert "simt_efficiency" in capsys.readouterr().out
        assert main(["index", "diff", "--cache-dir", cache,
                     "zzzz", "yyyy"]) == 2
        assert "no indexed run" in capsys.readouterr().err
        assert main(["index", "diff", "--cache-dir", cache, "", ""]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_bad_counter_predicate_exits_two(self, cache, capsys):
        assert main(["index", "query", "--cache-dir", cache,
                     "--counter", "!!"]) == 2
        assert "predicate" in capsys.readouterr().err

    def test_history_contract(self, cache, tmp_path, capsys):
        good = tmp_path / "BENCH_one.json"
        good.write_text('{"geomean_vector_speedup": 2.0}')
        worse = tmp_path / "BENCH_two.json"
        worse.write_text('{"geomean_vector_speedup": 1.0}')
        assert main(["index", "ingest", "--cache-dir", cache,
                     "--label", "replay", str(good)]) == 0
        assert main(["index", "history", "--cache-dir", cache,
                     "--metric", "geomean_vector_speedup"]) == 0
        capsys.readouterr()
        # Unknown metric: bad input.
        assert main(["index", "history", "--cache-dir", cache,
                     "--metric", "nope"]) == 2
        capsys.readouterr()
        # A >10% drop on a higher-is-better metric gates exit 1.
        assert main(["index", "ingest", "--cache-dir", cache,
                     "--label", "replay", str(worse)]) == 0
        assert main(["index", "history", "--cache-dir", cache,
                     "--metric", "geomean_vector_speedup",
                     "--max-regression", "10"]) == 1
        assert "regression beyond" in capsys.readouterr().out

    def test_workload_history_contract(self, cache, tmp_path, capsys):
        good = tmp_path / "BENCH_one.json"
        good.write_text('{"workloads": {"nbody": {"vector_speedup": 2.0,'
                        ' "replay_s": 0.5}}}')
        worse = tmp_path / "BENCH_two.json"
        worse.write_text('{"workloads": {"nbody": {"vector_speedup": 1.0,'
                        ' "replay_s": 0.5}}}')
        assert main(["index", "ingest", "--cache-dir", cache,
                     "--label", "replay", str(good)]) == 0
        assert main(["index", "history", "--cache-dir", cache,
                     "--workload", "nbody"]) == 0
        out = capsys.readouterr().out
        assert "workloads.nbody.vector_speedup" in out
        assert "workloads.nbody.replay_s" in out
        # Exactly one of --metric / --workload.
        assert main(["index", "history", "--cache-dir", cache]) == 2
        assert main(["index", "history", "--cache-dir", cache,
                     "--metric", "x", "--workload", "nbody"]) == 2
        capsys.readouterr()
        # Untracked workload: bad input.
        assert main(["index", "history", "--cache-dir", cache,
                     "--workload", "nope"]) == 2
        assert "no tracked" in capsys.readouterr().err
        # A gated drop on any one pivoted metric exits 1.
        assert main(["index", "ingest", "--cache-dir", cache,
                     "--label", "replay", str(worse)]) == 0
        assert main(["index", "history", "--cache-dir", cache,
                     "--workload", "nbody",
                     "--max-regression", "10"]) == 1
        assert "regression beyond" in capsys.readouterr().out
        # JSON mode carries the pivot plus per-metric verdicts.
        assert main(["index", "history", "--cache-dir", cache,
                     "--workload", "nbody", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "nbody"
        assert set(doc["metrics"]) == {"workloads.nbody.vector_speedup",
                                       "workloads.nbody.replay_s"}
        assert set(doc["verdicts"]) == set(doc["metrics"])

    def test_ingest_malformed_exits_two(self, cache, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["index", "ingest", "--cache-dir", cache,
                     str(bad)]) == 2
        assert main(["index", "ingest", "--cache-dir", cache,
                     str(tmp_path / "missing.json")]) == 2

    def test_typed_index_failure_exits_three(self, cache, capsys):
        assert main(["index", "rebuild", "--cache-dir", cache]) == 0
        capsys.readouterr()
        with open(os.path.join(cache, DB_FILENAME), "wb") as fh:
            fh.write(b"garbage" * 64)
        assert main(["index", "query", "--cache-dir", cache]) == 3
        err = capsys.readouterr().err
        assert "[index.db]" in err and "rebuild" in err
