"""Edge-case tests for the SIMT-stack replay engine."""

import pytest

from repro.core import (
    ReplayError,
    WarpReplayer,
    analyze_traces,
    build_dcfgs,
    compute_all_ipdoms,
)
from repro.isa import Mem
from repro.program import ProgramBuilder

from util import build_diamond_program, run_traced


def _replay(traces, warp_size, **kw):
    dcfgs = build_dcfgs(traces)
    compute_all_ipdoms(dcfgs)
    replayer = WarpReplayer(list(traces), dcfgs, warp_size, **kw)
    return replayer.run()


class TestHaltAndEarlyExit:
    def test_halt_in_root_function(self):
        b = ProgramBuilder()
        with b.function("worker", args=["tid"]) as f:
            t = f.reg()
            f.mod(t, f.a(0), 2)
            f.if_then(t, "==", 0, f.halt)
            f.nop()
            f.ret(0)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(4)], ["worker"]
        )
        metrics = _replay(traces, 4)
        assert metrics.thread_instructions == traces.total_instructions

    def test_halt_inside_callee(self):
        b = ProgramBuilder()
        with b.function("maybe_die", args=["x"]) as f:
            f.if_then(f.a(0), "==", 0, f.halt)
            f.ret(1)
        with b.function("worker", args=["tid"]) as f:
            r = f.reg()
            t = f.reg()
            f.mod(t, f.a(0), 2)
            f.call(r, "maybe_die", [t])
            f.add(r, r, 10)
            f.ret(r)
        program = b.build()
        traces, machine = run_traced(
            program, [("worker", [t], None) for t in range(4)], ["worker"]
        )
        # Even tids died inside the callee; odd tids returned 11.
        assert [t.retval for t in machine.threads] == [None, 11, None, 11]
        metrics = _replay(traces, 4)
        assert metrics.thread_instructions == traces.total_instructions

    def test_early_return_reconverges(self):
        b = ProgramBuilder()
        with b.function("worker", args=["tid"]) as f:
            t = f.reg()
            f.mod(t, f.a(0), 2)
            f.if_then(t, "==", 0, lambda: f.ret(0))
            f.nop()
            f.nop()
            f.ret(1)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)], ["worker"]
        )
        metrics = _replay(traces, 8)
        assert 0 < metrics.efficiency() < 1.0
        assert metrics.thread_instructions == traces.total_instructions


class TestDegenerateWarps:
    def test_empty_warp_rejected(self):
        traces, _m = run_traced(
            build_diamond_program(), [("worker", [0], None)], ["worker"]
        )
        dcfgs = build_dcfgs(traces)
        compute_all_ipdoms(dcfgs)
        with pytest.raises(ValueError):
            WarpReplayer([], dcfgs, 4)

    def test_single_thread_warp(self):
        traces, _m = run_traced(
            build_diamond_program(), [("worker", [1], None)], ["worker"]
        )
        metrics = _replay(traces, 32)
        assert metrics.efficiency() == pytest.approx(1 / 32)

    def test_bad_lock_reconvergence_policy_rejected(self):
        traces, _m = run_traced(
            build_diamond_program(), [("worker", [0], None)], ["worker"]
        )
        dcfgs = build_dcfgs(traces)
        compute_all_ipdoms(dcfgs)
        with pytest.raises(ValueError):
            WarpReplayer(list(traces), dcfgs, 4,
                         lock_reconvergence="banana")


class TestTraceCorruption:
    def test_truncated_trace_detected(self):
        traces, _m = run_traced(
            build_diamond_program(),
            [("worker", [t], None) for t in range(2)],
            ["worker"],
        )
        # Corrupt: chop one thread's stream mid-way.
        traces.threads[1].tokens = traces.threads[1].tokens[:1]
        dcfgs = build_dcfgs(traces)
        compute_all_ipdoms(dcfgs)
        # Either it replays (treating the cut as thread end) or raises a
        # ReplayError -- it must never silently miscount.
        try:
            metrics = WarpReplayer(list(traces), dcfgs, 2).run()
        except ReplayError:
            return
        total = sum(t.n_instructions for t in traces)
        assert metrics.thread_instructions == total

    def test_foreign_block_rejected(self):
        traces, _m = run_traced(
            build_diamond_program(),
            [("worker", [t], None) for t in range(2)],
            ["worker"],
        )
        tokens = list(traces.threads[0].tokens)
        kind, _addr, nins, mems = tokens[0]
        tokens[0] = (kind, 0xDEAD000, nins, mems)
        traces.threads[0].tokens = tokens
        dcfgs = build_dcfgs(traces)
        compute_all_ipdoms(dcfgs)
        with pytest.raises(ReplayError):
            WarpReplayer(list(traces), dcfgs, 2).run()


class TestDeepNesting:
    def test_four_level_call_chain_with_divergence(self):
        b = ProgramBuilder()
        for depth in range(4):
            callee = f"level{depth + 1}" if depth < 3 else None
            with b.function(f"level{depth}", args=["x"]) as f:
                r = f.reg()
                f.add(r, f.a(0), 1)
                if callee:
                    f.if_then(
                        r, ">", depth,
                        lambda c=callee, fr=f, rr=r: fr.call(rr, c, [rr]),
                    )
                f.ret(r)
        with b.function("worker", args=["tid"]) as f:
            r = f.reg()
            f.call(r, "level0", [f.a(0)])
            f.ret(r)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)], ["worker"]
        )
        report = analyze_traces(traces, warp_size=8)
        assert (report.metrics.thread_instructions
                == traces.total_instructions)
        assert "level3" in report.metrics.per_function

    def test_mutual_recursion(self):
        b = ProgramBuilder()
        with b.function("is_even", args=["n"]) as f:
            r = f.reg()

            def rec():
                t = f.reg()
                f.sub(t, f.a(0), 1)
                f.call(r, "is_odd", [t])

            f.if_else(f.a(0), "==", 0, lambda: f.mov(r, 1), rec)
            f.ret(r)
        with b.function("is_odd", args=["n"]) as f:
            r = f.reg()

            def rec():
                t = f.reg()
                f.sub(t, f.a(0), 1)
                f.call(r, "is_even", [t])

            f.if_else(f.a(0), "==", 0, lambda: f.mov(r, 0), rec)
            f.ret(r)
        with b.function("worker", args=["n"]) as f:
            r = f.reg()
            f.call(r, "is_even", [f.a(0)])
            f.ret(r)
        program = b.build()
        traces, machine = run_traced(
            program, [("worker", [n], None) for n in range(6)], ["worker"]
        )
        assert [t.retval for t in machine.threads] == [1, 0, 1, 0, 1, 0]
        report = analyze_traces(traces, warp_size=6)
        assert (report.metrics.thread_instructions
                == traces.total_instructions)


class TestMemoryEdge:
    def test_byte_sized_accesses_coalesce(self):
        b = ProgramBuilder()
        d = b.data("d", 64)
        with b.function("worker", args=["tid"]) as f:
            v = f.reg()
            f.load(v, Mem(None, disp=d.value, index=f.a(0), scale=1,
                          size=1))
            f.ret(v)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(32)], ["worker"]
        )
        report = analyze_traces(traces, warp_size=32)
        # 32 one-byte accesses over 32 consecutive bytes = 1 transaction.
        assert report.heap_transactions == 1
