"""Warp-replay memoization is observationally invisible.

For one workload per catalog family, traced under both execution
engines, every (memo, jobs) combination must reproduce the frozen seed
report (``tests/fixtures/seed_reports.json``, see :mod:`seed_fixture`)
bit for bit, and identical telemetry *counters* -- both on the shared
traced set and on a ``tuple`` copy whose threads hold only tuple token
lists, so the replayer packs every lane from the recorder's
representation itself (gauges are excluded by
design: ``memo.*`` hit rates legitimately differ between serial and
sharded replay, and the ``replay.vector_*`` utilization fractions vary
with sharding too, which is exactly why they are gauges).

The synthetic replicated-lane tests then pin down the memo mechanics
themselves: identical warps actually hit, hits clone rather than
alias, and the warp-trace generator's output is byte-identical with
memoization force-disabled.
"""

import functools
import io
import pickle

import pytest

from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.obs import Recorder
from repro.tracegen import generate_kernel_trace, save_kernel_trace
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

from seed_fixture import (
    ENGINES,
    FAMILY_THREADS as N_THREADS,
    FAMILY_WIDTH as WARP_SIZE,
    FAMILY_WORKLOADS,
    canonical,
    dumps,
    expected,
    family_cell,
    family_config,
    traces_of,
)

#: Token representation handed to the analyzer: the shared traced set,
#: or a ``tuple`` copy with no packed columns cached.
TOKENS = ("traced", "tuple")

COMBOS = [(tokens, memo, jobs) for tokens in TOKENS
          for memo in (True, False) for jobs in (1, 2)]


def _traces(name, engine="compiled"):
    return traces_of(name, N_THREADS, engine)


def _tuple_traces(name, engine):
    """A fresh copy of the traced set holding only tuple token lists."""
    source = _traces(name, engine)
    copy = TraceSet(workload=source.workload, program=source.program)
    copy.untraced_skipped = dict(source.untraced_skipped)
    for thread in source:
        clone = copy.new_thread(thread.cpu_tid, thread.root)
        clone.tokens = list(thread.tokens)
        clone.skipped = dict(thread.skipped)
        clone.closed = thread.closed
    return copy


def _run(name, memo, jobs, engine="compiled", tokens="traced"):
    recorder = Recorder()
    analyzer = ThreadFuserAnalyzer(family_config(name), jobs=jobs,
                                   recorder=recorder, memo=memo)
    if tokens == "tuple":
        traces = _tuple_traces(name, engine)
    else:
        traces = _traces(name, engine)
    report = analyzer.analyze(traces)
    telemetry = recorder.telemetry()
    return report, dict(telemetry.counters), telemetry.gauges


@functools.lru_cache(maxsize=None)
def _reference_counters(name, engine):
    """The counters of the serial, memo-free replay."""
    return _run(name, memo=False, jobs=1, engine=engine)[1]


class TestMemoParityMatrix:
    @pytest.mark.parametrize("tokens,memo,jobs", COMBOS,
                             ids=[("tuple-" if t == "tuple" else "")
                                  + f"{'memo' if m else 'nomemo'}-jobs{j}"
                                  for t, m, j in COMBOS])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", FAMILY_WORKLOADS)
    def test_reports_and_counters_identical(self, name, engine, tokens,
                                            memo, jobs):
        report, counters, gauges = _run(name, memo, jobs, engine=engine,
                                        tokens=tokens)
        assert dumps(canonical(report)) == expected(
            family_cell(name, engine))
        assert counters == _reference_counters(name, engine)
        if memo and jobs == 1:
            # Memoization accounts its activity as gauges, never
            # counters; lookups equal the number of replayed warps.
            assert gauges["memo.warp_lookups"] == report.metrics.n_warps
            assert "memo.warp_hits" in gauges
        if not memo:
            assert "memo.warp_lookups" not in gauges


def _replicated_traces(n_threads, workload="memo_synth"):
    """Threads all sharing one token stream: every warp is memo-equal."""
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    traces = TraceSet(workload=workload)
    for tid in range(n_threads):
        traces.new_thread(tid, root).tokens = list(tokens)
    return traces


class TestMemoMechanics:
    def test_identical_warps_hit_the_memo(self):
        traces = _replicated_traces(4 * WARP_SIZE)
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                       recorder=recorder)
        memo_report = analyzer.analyze(traces)
        gauges = recorder.telemetry().gauges
        assert gauges["memo.warp_lookups"] == 4
        assert gauges["memo.warp_hits"] == 3
        plain = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                    memo=False).analyze(traces)
        assert pickle.dumps(memo_report) == pickle.dumps(plain)

    def test_distinct_streams_do_not_collide(self):
        # Same root, same length, different block addresses: the
        # signature tuple must keep the warps apart.
        traces = _replicated_traces(2 * WARP_SIZE)
        second_warp = traces.threads[WARP_SIZE:]
        for thread in second_warp:
            tokens = list(thread.tokens)
            for i, token in enumerate(tokens):
                if token[0] == "B":
                    tokens[i] = (token[0], token[1] + 0x8, *token[2:])
            thread.tokens = tokens
        recorder = Recorder()
        ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                            recorder=recorder).analyze(traces)
        gauges = recorder.telemetry().gauges
        assert gauges["memo.warp_lookups"] == 2
        assert gauges["memo.warp_hits"] == 0

    def test_hits_clone_metrics_not_alias(self):
        traces = _replicated_traces(2 * WARP_SIZE)
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE))
        dcfgs = analyzer.prepare(traces)
        from repro.core.analyzer import _memo_key, _replay_warp
        from repro.core.warp import form_warps

        warps = form_warps(traces, WARP_SIZE, "linear")
        assert _memo_key(warps[0]) == _memo_key(warps[1])
        first = _replay_warp(warps[0], dcfgs, analyzer.config)
        clone = first.clone()
        assert clone is not first
        assert pickle.dumps(clone) == pickle.dumps(first)
        # Mutating the clone (what aggregation-time merging may do)
        # must not leak back into the cached entry.
        clone.issues += 1
        assert clone.issues == first.issues + 1


class TestGeneratorParity:
    def test_kernel_traces_identical_with_memo_disabled(self, monkeypatch):
        """The warp-trace generator's output never depends on ``memo``.

        Visitors force fresh replays internally, so the generated
        streams must be byte-identical even when the analyzer class is
        pinned to ``memo=False`` outright.
        """
        traces = _traces("vectoradd")
        program = get_workload("vectoradd").instantiate(N_THREADS).program

        def _serialize(kernel):
            out = io.StringIO()
            save_kernel_trace(kernel, out)
            return out.getvalue()

        default = _serialize(
            generate_kernel_trace(traces, program, warp_size=WARP_SIZE))

        from repro.tracegen import generator as generator_module

        pinned = functools.partial(ThreadFuserAnalyzer, memo=False)
        monkeypatch.setattr(generator_module, "ThreadFuserAnalyzer", pinned)
        no_memo = _serialize(
            generate_kernel_trace(traces, program, warp_size=WARP_SIZE))
        assert default == no_memo
