"""End-to-end integration tests: complete pipelines, cross-subsystem.

Fast versions of what the benchmark harness does at scale, pinned with
hard assertions so regressions surface in `pytest tests/`.
"""

import pytest

from repro.core import AnalyzerConfig, ThreadFuserAnalyzer, analyze_traces
from repro.gpuref import LockstepGPU
from repro.optlevels import OPT_LEVELS, apply_opt_level
from repro.simulator import GPUSimulator, project_speedup, rtx3070
from repro.tracegen import (
    generate_kernel_trace,
    generate_oracle_kernel_trace,
)
from repro.workloads import get_workload, trace_instance

N = 32


class TestFullDeveloperFlow:
    """Trace -> analyze -> pinpoint -> fix -> re-project (Fig. 7 flow)."""

    def test_hdsearch_story_end_to_end(self):
        stock_w = get_workload("hdsearch_mid")
        fixed_w = get_workload("hdsearch_mid_fixed")
        stock = stock_w.instantiate(N)
        fixed = fixed_w.instantiate(N)
        stock_traces, _m1 = trace_instance(stock)
        fixed_traces, _m2 = trace_instance(fixed)

        stock_report = analyze_traces(stock_traces, warp_size=16)
        fixed_report = analyze_traces(fixed_traces, warp_size=16)

        # 1. the bottleneck function is identified
        top = stock_report.per_function()[0]
        assert top.name == "getpoint"
        # 2. hotspots point inside getpoint
        hotspots = stock_report.divergence_hotspots(
            program=stock.program)
        assert hotspots[0][0] == "getpoint"
        # 3. fix recovers efficiency
        assert fixed_report.simt_efficiency > 3 * stock_report.simt_efficiency
        # 4. and the projected speedup improves
        s1 = project_speedup(stock_traces, stock.program,
                             launch_threads=512)
        s2 = project_speedup(fixed_traces, fixed.program,
                             launch_threads=512)
        assert s2.speedup > s1.speedup


class TestFullCorrelationFlow:
    """CPU binaries at 4 opt levels vs the SIMT oracle (Fig. 5 flow)."""

    def test_btree_correlates_at_every_level(self):
        workload = get_workload("btree")
        instance = workload.instantiate(N)
        oracle = LockstepGPU(instance.gpu.program, warp_size=16)
        instance.gpu.setup(oracle)
        measured = oracle.run_kernel(
            instance.gpu.kernel, instance.gpu.args_per_thread
        )
        for level in OPT_LEVELS:
            program = apply_opt_level(instance.program, level)
            traces, _m = trace_instance(instance, program=program)
            predicted = analyze_traces(traces, warp_size=16)
            assert predicted.simt_efficiency == pytest.approx(
                measured.simt_efficiency, abs=0.08
            ), level


class TestFullArchitectFlow:
    """MIMD traces -> warp traces -> simulator (Fig. 6 flow)."""

    def test_threadfuser_and_nvbit_traces_agree_on_shared_kernel(self):
        workload = get_workload("streamcluster")
        instance = workload.instantiate(N)
        traces, _m = trace_instance(instance)
        tf_kernel = generate_kernel_trace(traces, instance.program,
                                          warp_size=16)
        cu_kernel = generate_oracle_kernel_trace(
            instance.gpu.program, instance.gpu.kernel,
            instance.gpu.args_per_thread, instance.gpu.setup,
            warp_size=16,
        )
        # Identical implementations => identical warp streams.
        assert tf_kernel.total_issues == cu_kernel.total_issues
        assert (tf_kernel.total_thread_instructions
                == cu_kernel.total_thread_instructions)
        a = GPUSimulator(rtx3070()).run(tf_kernel)
        b = GPUSimulator(rtx3070()).run(cu_kernel)
        assert a.cycles == b.cycles

    def test_efficiency_is_monotone_in_warp_size_via_shared_dcfgs(self):
        workload = get_workload("dsb_text")
        instance = workload.instantiate(N)
        traces, _m = trace_instance(instance)
        analyzer = ThreadFuserAnalyzer()
        dcfgs = analyzer.prepare(traces)
        effs = []
        for warp_size in (2, 4, 8, 16, 32):
            analyzer.config = AnalyzerConfig(warp_size=warp_size)
            effs.append(
                analyzer.analyze(traces, dcfgs=dcfgs).simt_efficiency
            )
        assert all(a >= b - 1e-9 for a, b in zip(effs, effs[1:]))

    def test_speedup_scales_with_launch_size(self):
        workload = get_workload("nn")
        instance = workload.instantiate(N)
        traces, _m = trace_instance(instance)
        small = project_speedup(traces, instance.program,
                                launch_threads=N)
        large = project_speedup(traces, instance.program,
                                launch_threads=N * 64)
        assert large.speedup > small.speedup


class TestTraceFileRoundtripFlow:
    def test_saved_traces_analyze_identically(self, tmp_path):
        from repro.tracer import load_traces, save_traces

        workload = get_workload("memcached")
        instance = workload.instantiate(N)
        traces, _m = trace_instance(instance)
        path = str(tmp_path / "mc.trace")
        save_traces(traces, path)
        loaded = load_traces(path, program=instance.program)
        a = analyze_traces(traces, warp_size=16, emulate_locks=True)
        b = analyze_traces(loaded, warp_size=16, emulate_locks=True)
        assert a.simt_efficiency == b.simt_efficiency
        assert a.heap_transactions == b.heap_transactions
        assert a.metrics.locks.serialized_issues == (
            b.metrics.locks.serialized_issues
        )
