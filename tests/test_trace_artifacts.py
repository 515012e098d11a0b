"""Stored binary trace artifacts, end to end through the session.

Traces reach the store, the worker-pool pipe and ``--save-traces``
through one binary columnar codec (:mod:`repro.tracer.io`).  These
tests pin what that buys and what it must never cost: reports computed
from stored traces are bit-identical to a store-less session, a cold
stored analysis packs each thread exactly once, and stores written by
the JSON-lines releases keep working (old entries read as misses and
stay visible to the maintenance surface until cleared).
"""

import hashlib
import json
import os

import pytest

from repro import faults
from repro.artifacts import (
    KIND_DCFGS,
    KIND_REPORT,
    KIND_TRACES,
    SCHEMA_VERSION,
    ArtifactStore,
    _canonical_pickle,
    fingerprint_key,
    serialize_traces,
)
from repro.cli import main
from repro.core.analyzer import AnalyzerConfig
from repro.session import AnalysisSession
from repro.tracer.packed import PackedTrace
from repro.workloads import all_workloads

CATALOG = [w.name for w in all_workloads()]
WIDTHS = (8, 16, 32)
N_THREADS = 32


@pytest.fixture(scope="module")
def expected_reports():
    """Store-less ``jobs=1`` report bytes per (workload, width)."""
    with faults.injected(None):
        session = AnalysisSession()
        return {
            (name, width): _canonical_pickle(session.analyze(
                name, n_threads=N_THREADS,
                config=AnalyzerConfig(warp_size=width)))
            for name in CATALOG for width in WIDTHS
        }


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """A store holding only the catalog's traces."""
    root = str(tmp_path_factory.mktemp("traces"))
    with faults.injected(None):
        AnalysisSession(cache_dir=root).trace_many(CATALOG,
                                                   n_threads=N_THREADS)
    return root


class TestWarmStoreParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_match_a_storeless_session(self, trace_store,
                                               expected_reports, jobs):
        # Only traces are stored: every report is replayed from the
        # loaded columns, never served from a stored report.
        store = ArtifactStore(trace_store)
        store.clear(KIND_REPORT)
        store.clear(KIND_DCFGS)
        with AnalysisSession(cache_dir=trace_store, jobs=jobs) as session:
            for name in CATALOG:
                for width in WIDTHS:
                    report = session.analyze(
                        name, n_threads=N_THREADS,
                        config=AnalyzerConfig(warp_size=width))
                    assert _canonical_pickle(report) \
                        == expected_reports[name, width], (name, width)
            assert session.executions == 0


@pytest.fixture
def pack_calls(monkeypatch):
    """Per constructor name, the calls made: ``from_tokens`` lowers token
    tuples, ``from_records`` packs what the recorder wrote."""
    calls = {"from_tokens": 0, "from_records": 0}
    for name in calls:
        method = getattr(PackedTrace, name).__func__

        def counting(cls, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(cls, *args)

        monkeypatch.setattr(PackedTrace, name, classmethod(counting))
    return calls


class TestPackCount:
    """The recorder packs each logical thread once, straight from its
    columns; no analysis path lowers token tuples."""

    def test_cold_stored_analyze_packs_each_thread_once(self, tmp_path,
                                                        pack_calls):
        session = AnalysisSession(cache_dir=str(tmp_path), jobs=1)
        session.analyze("pigz", n_threads=16)
        traces = session.trace("pigz", n_threads=16)
        assert session.executions == 1
        assert pack_calls == {"from_tokens": 0,
                              "from_records": len(traces.threads)}

    def test_storeless_analyze_never_lowers_tuples(self, pack_calls):
        session = AnalysisSession(jobs=1)
        session.analyze("pigz", n_threads=16)
        traces = session.trace("pigz", n_threads=16)
        assert session.executions == 1
        assert pack_calls == {"from_tokens": 0,
                              "from_records": len(traces.threads)}

    def test_parallel_trace_many_never_lowers_tuples(self, tmp_path,
                                                     pack_calls):
        with AnalysisSession(cache_dir=str(tmp_path), jobs=2) as session:
            traced = session.trace_many(["vectoradd", "nbody"],
                                        n_threads=16)
            for name, traces in traced.items():
                session.analyze(name, n_threads=16)
                assert traces.threads, name
        assert pack_calls["from_tokens"] == 0


def _write_legacy_entry(root, fields, payload, ext="jsonl"):
    """An entry exactly as the JSON-lines releases' ``put_bytes`` wrote it."""
    key = fingerprint_key(fields)
    directory = os.path.join(root, "objects", KIND_TRACES, key[:2])
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{key}.{ext}"), "wb") as out:
        out.write(payload)
    meta = {
        "kind": KIND_TRACES,
        "key": key,
        "size": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "schema": SCHEMA_VERSION,
        "fingerprint": fields,
    }
    with open(os.path.join(directory, f"{key}.meta.json"), "w") as out:
        out.write(json.dumps(meta, sort_keys=True) + "\n")
    return key


#: The first line of a format-2 JSON-lines trace file.
_JSONL_PAYLOAD = (b'{"version": 2, "workload": "vectoradd", '
                  b'"untraced_skipped": {}, "n_threads": 0, '
                  b'"sha256": "00"}\n')


class TestOldStores:
    def test_format2_entries_miss_stay_listed_and_clear(self, tmp_path,
                                                        capsys):
        root = str(tmp_path / "store")
        session = AnalysisSession(cache_dir=root)
        fields = dict(session.trace_fields("vectoradd", 8), trace_format=2)
        old_key = _write_legacy_entry(root, fields, _JSONL_PAYLOAD)

        traces = session.trace("vectoradd", n_threads=8)
        assert session.executions == 1
        assert session.store.stats.corrupt == 0
        assert session.store.quarantined()["count"] == 0
        fresh = session.store.payload_path(
            KIND_TRACES, session.trace_fields("vectoradd", 8))
        assert fresh.endswith(".trace")
        with open(fresh, "rb") as inp:
            assert inp.read() == serialize_traces(traces)

        keys = {e.key for e in session.store.entries()
                if e.kind == KIND_TRACES}
        assert old_key in keys and len(keys) == 2
        assert main(["cache", "info", "--cache-dir", root]) == 0
        assert "traces" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert ArtifactStore(root).entries() == []
        leftovers = [name for _d, _s, files in os.walk(
            os.path.join(root, "objects")) for name in files]
        assert leftovers == []

    def test_json_payload_under_a_current_key_is_quarantined(self,
                                                             tmp_path):
        # Should a JSON-lines payload ever sit under a current key, its
        # checksum passes but the codec refuses it: quarantined, re-traced.
        root = str(tmp_path / "store")
        session = AnalysisSession(cache_dir=root)
        fields = session.trace_fields("vectoradd", 8)
        _write_legacy_entry(root, fields, _JSONL_PAYLOAD, ext="trace")
        session.trace("vectoradd", n_threads=8)
        assert session.executions == 1
        assert session.store.stats.corrupt == 1
        assert session.store.quarantined()["count"] == 1
