"""The vector backend shim: selection, fallback, parity, telemetry.

:mod:`repro.core.vector` hosts the bulk column primitives behind the
bulk-span steps of :class:`~repro.core.replay.WarpReplayer` twice -- a pure
``array``-slicing reference and an optional numpy accelerator -- and
promises the choice is observationally invisible.  These tests pin that
promise down at every layer: the primitives agree element-for-element
on randomized columns, ``use_backend`` forces and restores the pure
path, a monkeypatched ``import numpy`` failure degrades to the
``array`` backend with bit-identical reports (the ``accel`` extra is
genuinely optional), the ``replay.vector_*`` gauges surface utilization
without ever touching counters, and the bulk-span steps raise the
exact same :class:`~repro.core.ReplayError` as per-block stepping on
corrupt streams.
"""

import array
import builtins
import functools
import importlib
import pickle
import random

import pytest

from repro.core import (
    AnalyzerConfig,
    ReplayError,
    ThreadFuserAnalyzer,
    WarpReplayer,
    build_dcfgs,
    compute_all_ipdoms,
)
from repro.core import vector
from repro.obs import Recorder
from repro.tracer.events import TOK_BLOCK, TraceSet
from repro.workloads import get_workload, trace_instance

N_THREADS = 32
WARP_SIZE = 8

STACK_BASE = 0x7000_0000

needs_numpy = pytest.mark.skipif(
    "numpy" not in vector._BACKENDS,
    reason="numpy accelerator not installed")


@functools.lru_cache(maxsize=None)
def _traces():
    traces, _ = trace_instance(get_workload("vectoradd").instantiate(
        N_THREADS))
    return traces


def _analyze(recorder=None, jobs=1):
    analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                   jobs=jobs, recorder=recorder,
                                   memo=False)
    return analyzer.analyze(_traces())


# -- primitive parity on randomized columns -------------------------------


@needs_numpy
class TestBackendPrimitiveParity:
    def test_first_index(self):
        rng = random.Random(7)
        col = array.array("q", [rng.randrange(6) for _ in range(300)])
        for lo, hi in ((0, 300), (5, 40), (120, 300), (17, 18), (9, 9)):
            for value in range(-1, 7):
                assert (vector._first_index_np(col, lo, hi, value)
                        == vector._first_index_py(col, lo, hi, value))

    def test_first_index_on_memoryview_columns(self):
        # Shared-memory arenas hand the primitives memoryview casts,
        # which lack ``array.index`` -- the pure loop fallback and the
        # numpy view must still agree.
        col = array.array("q", [3, 1, 4, 1, 5, 9, 2, 6] * 20)
        view = memoryview(col)
        for value in (1, 9, 7):
            assert (vector._first_index_py(view, 0, len(col), value)
                    == vector._first_index_np(view, 0, len(col), value))

    def test_prefix_len(self):
        rng = random.Random(11)
        a = array.array("q", [rng.randrange(50) for _ in range(400)])
        for d in (0, 1, 63, 64, 200, 399):
            b = array.array("q", a)
            b[d] ^= 1
            for k in (1, 2, 63, 64, 128, 400):
                expect = min(d, k)
                assert vector._prefix_len_py(a, 0, b, 0, k) == expect
                assert vector._prefix_len_np(a, 0, b, 0, k) == expect
        b = array.array("q", a)
        assert vector._prefix_len_py(a, 0, b, 0, 400) == 400
        assert vector._prefix_len_np(a, 0, b, 0, 400) == 400
        # Offset slices compare windows, not whole columns.
        assert vector._prefix_len_py(a, 100, a, 100, 200) == 200
        assert vector._prefix_len_np(a, 100, a, 100, 200) == 200

    def test_span_stats(self):
        rng = random.Random(23)
        n_lanes, nrec = 5, 96
        fcols, lcols, los = [], [], []
        base_lo = 7
        for k in range(n_lanes):
            lo = base_lo + 3 * k
            los.append(lo)
            f = array.array("q", [0] * (lo + nrec + 5))
            last = array.array("q", f)
            for i in range(nrec):
                seg = rng.randrange(1 << 20)
                f[lo + i] = seg
                last[lo + i] = seg + rng.choice((0, 0, 0, 1, 2))
            fcols.append(f)
            lcols.append(last)
        maddr = array.array("q", [0] * (base_lo + nrec))
        for i in range(nrec):
            maddr[base_lo + i] = rng.choice(
                (0x2000 + 32 * i, STACK_BASE + 64 * i))
        assert (vector._span_stats_np(fcols, lcols, los, maddr, nrec,
                                      STACK_BASE)
                == vector._span_stats_py(fcols, lcols, los, maddr, nrec,
                                         STACK_BASE))
        # All-single-segment accesses take the sorted-column fast path.
        assert (vector._span_stats_np(fcols, fcols, los, maddr, nrec,
                                      STACK_BASE)
                == vector._span_stats_py(fcols, fcols, los, maddr, nrec,
                                         STACK_BASE))
        # Short spans delegate to the pure implementation outright.
        assert (vector._span_stats_np(fcols, lcols, los, maddr, 3,
                                      STACK_BASE)
                == vector._span_stats_py(fcols, lcols, los, maddr, 3,
                                         STACK_BASE))

    def test_solo_span_stats(self):
        rng = random.Random(31)
        n = 200
        msegf, msegl, maddr = (array.array("q") for _ in range(3))
        for _ in range(n):
            seg = rng.randrange(1 << 16)
            msegf.append(seg)
            msegl.append(seg + rng.randrange(3))
            maddr.append(rng.choice((0x1000, STACK_BASE + 0x100)))
        for lo, hi in ((0, n), (3, 9), (50, 180)):
            assert (vector._solo_span_stats_np(maddr, msegf, msegl, lo, hi,
                                               STACK_BASE)
                    == vector._solo_span_stats_py(maddr, msegf, msegl, lo,
                                                  hi, STACK_BASE))


# -- backend selection ----------------------------------------------------


class TestBackendSelection:
    def test_auto_prefers_numpy_when_importable(self):
        have_numpy = "numpy" in vector._BACKENDS
        try:
            picked = vector.use_backend("auto")
        finally:
            vector.use_backend()
        assert picked == ("numpy" if have_numpy else "array")
        assert vector.numpy_active() == have_numpy

    def test_unknown_backend_is_a_value_error(self):
        before = vector.BACKEND
        with pytest.raises(ValueError, match="available"):
            vector.use_backend("cuda")
        # A failed selection never clobbers the active backend.
        assert vector.BACKEND == before

    def test_forced_array_backend_is_bit_identical(self):
        reference = pickle.dumps(_analyze())
        try:
            assert vector.use_backend("array") == "array"
            assert not vector.numpy_active()
            forced = pickle.dumps(_analyze())
        finally:
            vector.use_backend()
        assert forced == reference


class TestNoNumpyFallback:
    def test_missing_numpy_degrades_to_array_backend(self):
        """A failed ``import numpy`` must be invisible in the report."""
        reference = pickle.dumps(_analyze())
        real_import = builtins.__import__

        def _no_numpy(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy disabled for test")
            return real_import(name, *args, **kwargs)

        try:
            builtins.__import__ = _no_numpy
            importlib.reload(vector)
            assert vector.BACKEND == "array"
            assert not vector.numpy_active()
            assert "numpy" not in vector._BACKENDS
            fallback = pickle.dumps(_analyze())
        finally:
            builtins.__import__ = real_import
            importlib.reload(vector)
        assert fallback == reference


# -- synthetic warps: bulk-path coverage and error parity -----------------


def _converged_traces(n_threads=8, n_tokens=64):
    """Identical lanes: the whole stream is one converged bulk span."""
    tokens = []
    for i in range(n_tokens):
        mems = (((0, i % 2 == 0, 0x2000 + 32 * i, 8),)
                if i % 3 == 0 else ())
        tokens.append((TOK_BLOCK, 0x100 + 8 * i, 2, mems))
    traces = TraceSet(workload="vector_synth")
    for tid in range(n_threads):
        traces.new_thread(tid, "worker").tokens = list(tokens)
    return traces


def _prepared(traces):
    dcfgs = build_dcfgs(traces)
    compute_all_ipdoms(dcfgs)
    return dcfgs


class _NullVisitor:
    """Attaching any visitor makes the replayer step block by block."""

    def on_issue(self, *args):
        pass

    def on_mem_issue(self, *args):
        pass


class TestVectorReplayer:
    def test_converged_stream_is_consumed_entirely_in_bulk(self):
        traces = _converged_traces()
        dcfgs = _prepared(traces)
        bulk = WarpReplayer(traces.threads, dcfgs, 8)
        bulk.run()
        assert bulk.total_tokens > 0
        assert bulk.vector_tokens == bulk.total_tokens
        stepped = WarpReplayer(traces.threads, dcfgs, 8,
                               visitor=_NullVisitor())
        stepped.run()
        assert stepped.vector_tokens == 0
        assert pickle.dumps(bulk.metrics) == pickle.dumps(stepped.metrics)

    def test_misaligned_records_raise_the_oracle_error(self):
        # Lanes agree on a long record-free prefix (entering the bulk
        # path), then lane 1 misses lane 0's memory record: the bulk
        # step must shrink to the agreeing prefix and surface per-block
        # stepping's exact misalignment error.
        prefix = [(TOK_BLOCK, 0x100 + 8 * i, 1, ()) for i in range(12)]
        tail = [(TOK_BLOCK, 0x300, 1, ())]
        with_rec = prefix + [(TOK_BLOCK, 0x200, 1,
                              ((0, True, 0x2000, 8),))] + tail
        without_rec = prefix + [(TOK_BLOCK, 0x200, 1, ())] + tail
        traces = TraceSet(workload="vector_err")
        traces.new_thread(0, "worker").tokens = with_rec
        traces.new_thread(1, "worker").tokens = without_rec
        dcfgs = _prepared(traces)
        with pytest.raises(ReplayError) as stepped_err:
            WarpReplayer(traces.threads, dcfgs, 2,
                         visitor=_NullVisitor()).run()
        with pytest.raises(ReplayError) as bulk_err:
            WarpReplayer(traces.threads, dcfgs, 2).run()
        assert str(bulk_err.value) == str(stepped_err.value)
        assert "misaligned" in str(stepped_err.value)


# -- telemetry and CLI surfaces -------------------------------------------


class TestVectorTelemetry:
    def test_vector_gauges_are_emitted(self):
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                       recorder=recorder, memo=False)
        analyzer.analyze(_converged_traces(n_threads=16))
        gauges = recorder.telemetry().gauges
        assert gauges["replay.vector_tokens"] > 0
        assert (gauges["replay.vector_total_tokens"]
                >= gauges["replay.vector_tokens"])
        assert gauges["replay.vector_token_fraction"] == 1.0
        assert gauges["replay.vector_backend_numpy"] == (
            1 if vector.numpy_active() else 0)

    def test_sharded_replay_aggregates_the_gauges(self):
        recorder = Recorder()
        _analyze(recorder=recorder, jobs=2)
        gauges = recorder.telemetry().gauges
        assert 0.0 <= gauges["replay.vector_token_fraction"] <= 1.0
        assert (gauges["replay.vector_total_tokens"]
                >= gauges["replay.vector_tokens"])


class TestCLISurface:
    def test_pool_info_reports_the_vector_backend(self, capsys):
        from repro.cli import main

        rc = main(["pool", "info", "--no-probe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vector backend:" in out
        assert vector.BACKEND in out
