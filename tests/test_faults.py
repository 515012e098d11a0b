"""Fault-injection tests: the pipeline recovers exactly or fails typed.

Every scenario here asserts one of two outcomes and nothing else:

* **exact recovery** -- the run's result is bit-identical to a
  fault-free ``jobs=1`` run (serialized trace bytes compared);
* **a typed error** -- a :class:`repro.errors.ReproError` subclass with
  the original cause chained in.

A *wrong answer* (silently accepted corruption, a half-retried bug) is
never acceptable, and the fuzz tests below hammer on that boundary.
"""

import io
import os
import tempfile

import pytest

from repro import faults
from repro import pool as pool_mod
from repro.artifacts import (
    KIND_REPORT,
    KIND_TRACES,
    ArtifactStore,
    serialize_traces,
)
from repro.errors import (
    ArtifactCorruptError,
    ReproError,
    RetryExhaustedError,
    StageTimeoutError,
    TraceCorruptError,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.obs import Recorder
from repro.session import AnalysisSession
from repro.tracer import load_traces

WORKLOADS = ["vectoradd", "nn"]
N_THREADS = 8

STORE_FIELDS = {
    "kind": KIND_TRACES,
    "workload": "vectoradd",
    "n_threads": N_THREADS,
    "seed": 7,
}


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serialized trace bytes: the ground truth per workload."""
    with faults.injected(None):
        session = AnalysisSession()
        return {
            name: serialize_traces(session.trace(name, n_threads=N_THREADS))
            for name in WORKLOADS
        }


class TestPlanMechanics:
    def test_spec_validates_site_and_kind(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="pool.nowhere", kind="kill")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="pool.worker", kind="explode")

    def test_scheduled_fault_fires_on_the_named_hit(self):
        plan = FaultPlan([FaultSpec(site="pool.result", kind="timeout",
                                    at=2)])
        plan.check("pool.result", "x")
        with pytest.raises(StageTimeoutError):
            plan.check("pool.result", "x")
        plan.check("pool.result", "x")
        assert plan.injected == {"pool.result": 1}

    def test_match_scopes_a_fault_to_one_token(self):
        plan = FaultPlan([FaultSpec(site="pool.result", kind="timeout",
                                    match="nn")])
        plan.check("pool.result", "vectoradd")
        with pytest.raises(StageTimeoutError):
            plan.check("pool.result", "nn")

    def test_truncate_halves_the_payload(self):
        plan = FaultPlan([FaultSpec(site="trace.load", kind="truncate")])
        assert plan.mangle("trace.load", b"abcdef") == b"abc"

    def test_bitflip_is_seed_deterministic(self):
        data = bytes(range(64))
        first = FaultPlan([FaultSpec(site="artifact.read", kind="bitflip")],
                          seed=5).mangle("artifact.read", data)
        second = FaultPlan([FaultSpec(site="artifact.read", kind="bitflip")],
                           seed=5).mangle("artifact.read", data)
        assert first == second
        assert first != data
        assert len(first) == len(data)

    def test_rate_rolls_are_reproducible(self):
        def fired(seed):
            plan = FaultPlan(
                [FaultSpec(site="pool.result", kind="timeout", rate=0.3)],
                seed=seed,
            )
            out = []
            for _ in range(40):
                try:
                    plan.check("pool.result", "w")
                    out.append(False)
                except StageTimeoutError:
                    out.append(True)
            return out
        assert fired(11) == fired(11)
        assert any(fired(11)) and not all(fired(11))
        assert fired(11) != fired(12)


class TestClassificationAndRetry:
    def test_transient_types_are_retryable(self):
        for exc in (OSError("io"), TimeoutError(),
                    StageTimeoutError("t"), TraceCorruptError("c"),
                    EOFError(), ConnectionResetError()):
            assert faults.is_retryable(exc), exc

    def test_semantic_and_bug_types_are_not(self):
        for exc in (FileNotFoundError("gone"), NotADirectoryError("bad"),
                    ValueError("bug"), KeyError("bug"), AssertionError()):
            assert not faults.is_retryable(exc), exc

    def test_retry_recovers_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.0)
        assert faults.call_with_retry(flaky, policy=policy,
                                      label="flaky") == "ok"
        assert len(calls) == 3

    def test_exhaustion_raises_typed_with_cause(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def down():
            raise OSError("still down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            faults.call_with_retry(down, policy=policy, label="down")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert excinfo.value.hint

    def test_bug_propagates_on_the_first_attempt(self):
        calls = []

        def bug():
            calls.append(1)
            raise ValueError("bug")

        with pytest.raises(ValueError, match="bug"):
            faults.call_with_retry(
                bug, policy=RetryPolicy(attempts=5, base_delay=0.0),
                label="bug",
            )
        assert len(calls) == 1

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.3)
        assert [policy.delay(n) for n in range(4)] == [0.1, 0.2, 0.3, 0.3]


#: fault scenario -> plan factory.  Every fault is recoverable: wherever
#: it fires (or doesn't, for cells whose path never reaches the site),
#: the run must still produce bit-identical traces.
FAULT_PLANS = {
    "worker_kill": lambda: FaultPlan(
        [FaultSpec(site="pool.worker", kind="kill")]),
    "payload_bitflip": lambda: FaultPlan(
        [FaultSpec(site="artifact.read", kind="bitflip")]),
    "meta_truncation": lambda: FaultPlan(
        [FaultSpec(site="artifact.meta", kind="truncate")]),
    "trace_truncation": lambda: FaultPlan(
        [FaultSpec(site="trace.load", kind="truncate")]),
    "injected_timeout": lambda: FaultPlan(
        [FaultSpec(site="pool.result", kind="timeout")]),
}


class TestRecoveryMatrix:
    """fault x jobs x cache-state: recovery is always bit-identical."""

    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold", "warm"])
    @pytest.mark.parametrize("jobs", [1, 4], ids=["jobs1", "jobs4"])
    @pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
    def test_recovery_is_exact(self, tmp_path, baseline, fault, jobs, warm):
        cache = str(tmp_path / "cache")
        if warm:
            with faults.injected(None):
                AnalysisSession(cache_dir=cache).trace_many(
                    WORKLOADS, n_threads=N_THREADS
                )
        with faults.injected(FAULT_PLANS[fault]()):
            session = AnalysisSession(cache_dir=cache, jobs=jobs)
            traced = session.trace_many(WORKLOADS, n_threads=N_THREADS)
        for name in WORKLOADS:
            assert serialize_traces(traced[name]) == baseline[name], name

    def test_killed_workers_do_not_change_counters(self):
        # The determinism contract survives recovery: a run whose pool
        # workers all died exports the same telemetry *counters* as a
        # clean serial run (the activity shows up in gauges only).
        with faults.injected(None):
            clean = AnalysisSession(jobs=1, recorder=Recorder())
            clean.trace_many(WORKLOADS, n_threads=N_THREADS)
            expected = clean.telemetry().counters
        plan = FaultPlan([FaultSpec(site="pool.worker", kind="kill")])
        with faults.injected(plan):
            faulty = AnalysisSession(jobs=4, recorder=Recorder())
            faulty.trace_many(WORKLOADS, n_threads=N_THREADS)
            observed = faulty.telemetry().counters
        assert observed == expected


def _buggy_worker(spec):
    raise ValueError("workload bug, not infrastructure")


class TestFatalErrorsPropagate:
    def test_worker_bug_is_not_silently_retried(self, tmp_path,
                                                monkeypatch):
        # Regression: trace_many used to catch ValueError wholesale and
        # quietly regenerate serially, masking real workload bugs.
        import repro.session as session_module

        monkeypatch.setattr(session_module, "_trace_worker", _buggy_worker)
        with faults.injected(None):
            session = AnalysisSession(cache_dir=str(tmp_path / "cache"),
                                      jobs=2)
            with pytest.raises(ValueError, match="workload bug") as excinfo:
                session.trace_many(WORKLOADS, n_threads=N_THREADS)
            # No serial fallback ran: the bug aborted the batch.
            assert session.executions == 0
            assert session.fault_stats["retries"] == 0
        # The worker's original traceback rides along as the cause.
        assert excinfo.value.__cause__ is not None
        assert "_buggy_worker" in str(excinfo.value.__cause__)

    def test_exhausted_transient_io_raises_typed_error(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="io.transient", kind="raise",
                                    at=1, count=999)])
        with faults.injected(plan):
            session = AnalysisSession(cache_dir=str(tmp_path / "cache"))
            with pytest.raises(RetryExhaustedError) as excinfo:
                session.trace("vectoradd", n_threads=N_THREADS)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value.__cause__, OSError)


class TestCorruptTraceArtifacts:
    """A mangled stored trace is quarantined and re-traced, never replayed."""

    @pytest.mark.parametrize("kind", ["bitflip", "truncate"])
    @pytest.mark.parametrize("site", ["artifact.read", "trace.load"])
    def test_quarantined_and_retraced(self, tmp_path, baseline, site, kind):
        cache = str(tmp_path / "cache")
        with faults.injected(None):
            AnalysisSession(cache_dir=cache).trace("vectoradd",
                                                   n_threads=N_THREADS)
        plan = FaultPlan([FaultSpec(site=site, kind=kind)])
        with faults.injected(plan):
            session = AnalysisSession(cache_dir=cache)
            traces = session.trace("vectoradd", n_threads=N_THREADS)
        assert plan.injected == {site: 1}
        assert session.executions == 1
        assert session.store.stats.corrupt == 1
        assert session.store.quarantined()["count"] == 1
        assert serialize_traces(traces) == baseline["vectoradd"]
        # The re-trace was stored again: the next session is warm.
        with faults.injected(None):
            warm = AnalysisSession(cache_dir=cache)
            warm.trace("vectoradd", n_threads=N_THREADS)
        assert warm.executions == 0


class TestTelemetrySurface:
    def test_recovery_activity_exported_as_gauges(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="pool.result", kind="timeout")])
        with faults.injected(plan):
            session = AnalysisSession(cache_dir=str(tmp_path / "cache"),
                                      jobs=2, recorder=Recorder())
            session.trace_many(WORKLOADS, n_threads=N_THREADS)
            telemetry = session.telemetry()
        assert telemetry.gauges["faults.worker_failures"] >= 1
        # Hit counters are per (site, token): the at=1 spec fires once
        # per workload token.
        assert telemetry.gauges["faults.injected.pool.result"] \
            == len(WORKLOADS)
        assert "faults.retries" in telemetry.gauges
        assert "faults.pool_fallbacks" in telemetry.gauges
        # Recovery never leaks into the counters section.
        assert not any(k.startswith("faults.") for k in telemetry.counters)

    def test_unstartable_pool_is_counted_once(self):
        # A trace_many whose worker pool cannot spawn falls back to the
        # serial path exactly once, with bit-identical traces.
        names = ["vectoradd", "nbody"]
        with faults.injected(None):
            expected = {
                name: serialize_traces(traces)
                for name, traces in AnalysisSession(jobs=1).trace_many(
                    names, n_threads=16).items()
            }
        pool_mod.shutdown()  # no live workers: the batch must spawn
        plan = FaultPlan([FaultSpec(site="pool.spawn", kind="raise",
                                    count=999)])
        with faults.injected(plan):
            session = AnalysisSession(jobs=2)
            traced = session.trace_many(names, n_threads=16)
        assert session.fault_stats["pool_fallbacks"] == 1
        assert plan.injected == {"pool.spawn": 1}
        for name in names:
            assert serialize_traces(traced[name]) == expected[name], name

    def test_corrupt_cache_reads_exported_as_gauge(self, tmp_path):
        cache = str(tmp_path / "cache")
        with faults.injected(None):
            AnalysisSession(cache_dir=cache).trace("vectoradd",
                                                   n_threads=N_THREADS)
        plan = FaultPlan([FaultSpec(site="artifact.read", kind="bitflip")])
        with faults.injected(plan):
            session = AnalysisSession(cache_dir=cache, recorder=Recorder())
            session.trace("vectoradd", n_threads=N_THREADS)
            telemetry = session.telemetry()
        assert telemetry.gauges["cache.corrupt"] == 1
        assert telemetry.gauges["faults.injected.artifact.read"] == 1


class TestPackedTraceFaults:
    """``trace.pack``: corrupted packed buffers surface as typed errors.

    The packed columns are the replayer's and the memo table's ground
    truth, so a flipped bit in them must never replay (or memoize) as a
    plausible-but-wrong stream: the content signature catches it at
    first use.
    """

    def _tokens(self):
        with faults.injected(None):
            session = AnalysisSession()
            traces = session.trace("vectoradd", n_threads=N_THREADS)
        return list(traces.threads[0].tokens)

    def test_bitflip_caught_at_first_verification(self):
        from repro.tracer.packed import PackedTrace

        tokens = self._tokens()
        plan = FaultPlan([FaultSpec(site="trace.pack", kind="bitflip")])
        with faults.injected(plan):
            packed = PackedTrace.from_tokens(tokens)
            assert plan.injected == {"trace.pack": 1}
            with pytest.raises(TraceCorruptError) as excinfo:
                packed.ensure_verified()
        assert excinfo.value.site == "trace.pack"
        assert excinfo.value.hint
        # The pristine stream still packs and verifies cleanly.
        with faults.injected(None):
            PackedTrace.from_tokens(tokens).ensure_verified()

    def test_truncation_raises_at_pack_time(self):
        from repro.tracer.packed import PackedTrace

        plan = FaultPlan([FaultSpec(site="trace.pack", kind="truncate")])
        with faults.injected(plan):
            with pytest.raises(TraceCorruptError) as excinfo:
                PackedTrace.from_tokens(self._tokens())
        assert excinfo.value.site == "trace.pack"

    def test_corrupt_pack_never_reaches_replay_metrics(self):
        # End to end: a fault armed while the recorder packs the traces
        # must abort the later analysis as a typed error, not skew
        # counters.
        from repro.core import analyze_traces

        plan = FaultPlan([FaultSpec(site="trace.pack", kind="bitflip")])
        with faults.injected(plan):
            session = AnalysisSession()
            traces = session.trace("vectoradd", n_threads=N_THREADS)
        assert plan.injected["trace.pack"] >= 1
        with faults.injected(None):
            with pytest.raises(TraceCorruptError) as excinfo:
                analyze_traces(traces, warp_size=8)
        assert excinfo.value.site == "trace.pack"


class TestEnvironmentPlans:
    def test_smoke_plan_arms_only_recovery_transparent_sites(self):
        # Pool faults fall back to the bit-identical serial path;
        # transient index.db faults are absorbed by the index's retry
        # loop (and degrade to a warning on the write side); shard
        # kills are respawned and the cell re-run -- every observable
        # analysis result is unchanged under smoke.
        plan = faults.smoke_plan(seed=1)
        assert plan.specs
        sites = {spec.site for spec in plan.specs}
        assert sites <= {"pool.spawn", "pool.worker", "pool.result",
                         "index.db", "serve.shard"}
        assert "serve.shard" in sites
        assert all(spec.rate > 0 for spec in plan.specs)

    def test_serve_shard_is_a_registered_fault_site(self):
        assert "serve.shard" in faults.FAULT_SITES
        kill = [spec for spec in faults.smoke_plan(seed=1).specs
                if spec.site == "serve.shard"]
        assert len(kill) == 1 and kill[0].kind == "kill"

    def test_smoke_pool_plan_adds_the_shm_substrate_sites(self):
        plan = faults.smoke_pool_plan(seed=1)
        sites = {spec.site for spec in plan.specs}
        # Everything smoke arms, plus the persistent-pool sites.
        assert sites >= {spec.site for spec in faults.smoke_plan(seed=1).specs}
        assert {"pool.attach", "shm.unlink"} <= sites
        assert sites <= set(faults.FAULT_SITES)
        assert all(spec.rate > 0 for spec in plan.specs)

    def test_env_smoke_pool_installs_the_extended_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "smoke-pool")
        monkeypatch.setenv(faults.ENV_SEED_VAR, "78")
        faults.reset()
        try:
            plan = faults.active()
            assert plan is not None
            assert plan.seed == 78
            assert "shm.unlink" in {spec.site for spec in plan.specs}
        finally:
            faults.reset()

    def test_env_smoke_installs_a_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "smoke")
        monkeypatch.setenv(faults.ENV_SEED_VAR, "77")
        faults.reset()
        try:
            plan = faults.active()
            assert plan is not None
            assert plan.seed == 77
        finally:
            faults.reset()

    def test_env_off_values_disable_injection(self, monkeypatch):
        for value in ("", "0", "off", "none"):
            monkeypatch.setenv(faults.ENV_VAR, value)
            assert faults.plan_from_env() is None

    def test_env_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "chaos-monkey")
        with pytest.raises(ValueError, match="THREADFUSER_FAULTS"):
            faults.plan_from_env()


class TestCLISurface:
    def _corrupt_store(self, tmp_path):
        cache = str(tmp_path / "cache")
        store = ArtifactStore(cache)
        store.put_bytes(KIND_TRACES, STORE_FIELDS, b"payload")
        path = store.payload_path(KIND_TRACES, STORE_FIELDS)
        with open(path, "r+b") as out:
            out.write(b"X")
        assert store.get_bytes(KIND_TRACES, STORE_FIELDS) is None
        return cache

    def test_cache_info_reports_quarantined_entries(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        cache = self._corrupt_store(tmp_path)
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "quarantined:  1 corrupt entries" in out
        assert "cache clear --quarantined" in out

    def test_cache_clear_quarantined(self, tmp_path, capsys):
        from repro.cli import main

        cache = self._corrupt_store(tmp_path)
        assert main(["cache", "clear", "--quarantined",
                     "--cache-dir", cache]) == 0
        assert "removed 1 quarantined entries" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        assert "quarantined:" not in capsys.readouterr().out

    def test_typed_errors_exit_with_code_3(self, monkeypatch, capsys):
        from repro import cli

        def boom(_args):
            raise ArtifactCorruptError("store is hosed",
                                       site="artifact.read",
                                       hint="purge it")

        monkeypatch.setitem(cli._COMMANDS, "list", boom)
        assert cli.main(["list"]) == 3
        err = capsys.readouterr().err
        assert "error [artifact.read]: store is hosed" in err
        assert "hint: purge it" in err


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def trace_blob(baseline):
    return baseline["vectoradd"]


class TestFuzzCorruption:
    """Random single-byte mutations must never be silently accepted."""

    @settings(max_examples=20, deadline=None)
    @given(pos_frac=st.floats(min_value=0.0, max_value=1.0),
           xor=st.integers(min_value=1, max_value=255))
    def test_store_never_serves_mutated_payload(self, baseline,
                                                pos_frac, xor):
        original = baseline["vectoradd"]
        pos = min(int(pos_frac * len(original)), len(original) - 1)
        mutated = bytearray(original)
        mutated[pos] ^= xor
        assert bytes(mutated) != original
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            store.put_bytes(KIND_TRACES, STORE_FIELDS, original)
            path = store.payload_path(KIND_TRACES, STORE_FIELDS)
            with open(path, "wb") as out:
                out.write(bytes(mutated))
            with pytest.raises(ArtifactCorruptError):
                store.get_bytes(KIND_TRACES, STORE_FIELDS,
                                on_corrupt="raise")
            # The entry is quarantined; a plain read is now a miss.
            assert store.get_bytes(KIND_TRACES, STORE_FIELDS) is None
            assert store.quarantined()["count"] == 1

    @settings(max_examples=30, deadline=None)
    @given(pos_frac=st.floats(min_value=0.0, max_value=1.0),
           xor=st.integers(min_value=1, max_value=255))
    def test_loader_never_accepts_mutated_text(self, trace_blob,
                                               pos_frac, xor):
        # Any single-byte change anywhere in the binary trace stream --
        # magic, header, columns or the trailing digest.
        pos = min(int(pos_frac * len(trace_blob)), len(trace_blob) - 1)
        mutated = bytearray(trace_blob)
        mutated[pos] ^= xor
        with faults.injected(None):
            with pytest.raises(TraceCorruptError) as excinfo:
                load_traces(io.BytesIO(bytes(mutated)))
        assert excinfo.value.site == "trace.load"

    @settings(max_examples=15, deadline=None)
    @given(keep_frac=st.floats(min_value=0.0, max_value=0.999))
    def test_loader_never_accepts_truncation(self, trace_blob, keep_frac):
        mutated = trace_blob[: int(keep_frac * len(trace_blob))]
        with faults.injected(None):
            with pytest.raises(TraceCorruptError) as excinfo:
                load_traces(io.BytesIO(mutated))
        assert excinfo.value.site == "trace.load"


class TestIndexFaults:
    """The ``index.db`` fault site: retried or typed, never wrong.

    The result index sits *beside* the artifact store, so its failure
    contract has an extra leg: a write-side index failure must degrade
    to a warning (the artifact write already succeeded) and a rebuild
    must restore the lost rows exactly.
    """

    @staticmethod
    def _seeded_store(root):
        from test_index import put_report

        store = ArtifactStore(root)
        put_report(store, workload="pigz", efficiency=0.3,
                   hotspots={("worker", 64): 7})
        put_report(store, workload="nbody", efficiency=0.9)
        return store

    def test_single_transient_fault_is_absorbed_by_retry(self, tmp_path):
        store = self._seeded_store(str(tmp_path))
        with faults.injected(FaultPlan(
                [FaultSpec(site="index.db", kind="raise", at=1)])):
            rows = store.index.query()
        assert [r["workload"] for r in rows] == ["nbody", "pigz"]

    def test_persistent_fault_raises_typed_with_site_and_hint(
            self, tmp_path):
        store = self._seeded_store(str(tmp_path))
        with faults.injected(FaultPlan(
                [FaultSpec(site="index.db", kind="raise", at=1,
                           count=99)])):
            with pytest.raises(ReproError) as excinfo:
                store.index.query()
        err = excinfo.value
        assert err.site == "index.db"
        assert "index rebuild" in err.hint
        assert isinstance(err.__cause__, OSError)

    def test_write_side_failure_degrades_and_rebuild_recovers(
            self, tmp_path):
        from repro.index import IndexWarning

        store = self._seeded_store(str(tmp_path))
        before = store.index.snapshot()
        with faults.injected(FaultPlan(
                [FaultSpec(site="index.db", kind="raise", at=1,
                           count=99)])):
            with pytest.warns(IndexWarning, match="store is unaffected"):
                from test_index import put_report

                fields = put_report(store, workload="vectoradd",
                                    efficiency=0.5)
        # The artifact itself landed despite the hosed index...
        assert store.get_bytes(KIND_REPORT, fields) is not None
        # ...the index is stale (the new run is missing)...
        assert len(store.index.query()) == 2
        assert store.index.snapshot() == before
        # ...and a rebuild with the fault gone recovers exactly.
        stats = store.index.rebuild()
        assert stats["indexed"] == 3
        assert len(store.index.query(workload="vectoradd")) == 1

    def test_smoke_plan_never_yields_wrong_answers(self, tmp_path):
        """Under the smoke plan's low-rate index faults, every query
        outcome is either correct rows or a typed error."""
        store = self._seeded_store(str(tmp_path))
        expected = [r["key"] for r in store.index.query()]
        with faults.injected(faults.smoke_plan()):
            for _ in range(20):
                try:
                    got = [r["key"] for r in store.index.query()]
                except ReproError as err:
                    assert err.site == "index.db"
                else:
                    assert got == expected
