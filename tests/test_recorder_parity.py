"""The columnar recorder writes exactly what the tuple recorder packed to.

:class:`~repro.tracer.recorder.TraceRecorder` records each logical
thread straight into packed columns.  ``_TupleRecorder`` below is the
recorder it replaced -- one token tuple per event, each block emitted
when the next event ends it -- kept as the oracle.  Both hook objects
watch the same machine run, and for every trace the recorder's
:data:`~repro.tracer.packed.SHM_COLUMNS`, interned names and signature
must equal :meth:`PackedTrace.from_tokens` of the oracle's tokens (and
of the recorder's own round-tripped tokens), with identical per-thread
``skipped`` and ``untraced_skipped`` mappings, insertion order
included.
"""

import pytest

from repro.machine import Machine
from repro.machine.errors import InstructionLimitError
from repro.machine.memory import STACK_BASE, STACK_SIZE
from repro.tracer import TraceRecorder
from repro.tracer.events import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_LOCK,
    TOK_RET,
    TOK_UNLOCK,
)
from repro.tracer.packed import SHM_COLUMNS, PackedTrace
from repro.workloads import all_workloads, get_workload

N_THREADS = 8
ENGINES = ("interp", "compiled")


class _TupleRecorder:
    """The tuple-token recorder: ``tokens`` and skip counts per trace."""

    def __init__(self, roots, exclude=()):
        self.roots = set(roots)
        self.exclude = set(exclude)
        self.traces = []  # [tokens, skipped, closed] per logical thread
        self.untraced = {}
        self.state = {}

    def _flush(self, st):
        if st["block"] is not None:
            block, mems = st["block"], tuple(st["mems"])
            st["block"], st["mems"] = None, []
            n = len(block.instructions)
            if st["excluded"]:
                skipped = st["trace"][1]
                skipped["filtered"] = skipped.get("filtered", 0) + n
            else:
                st["trace"][0].append((TOK_BLOCK, block.addr, n, mems))

    def _begin(self, tid, root):
        trace = [[], {}, False]
        self.traces.append(trace)
        self.state[tid] = {"trace": trace, "index": len(self.traces) - 1,
                           "depth": 1, "excluded": 0, "block": None,
                           "mems": []}

    def _close(self, tid):
        st = self.state.pop(tid)
        self._flush(st)
        st["trace"][2] = True

    def on_thread_start(self, tid, function_name):
        if function_name in self.roots:
            self._begin(tid, function_name)

    def on_thread_end(self, tid):
        if tid in self.state:
            self._close(tid)

    def on_block(self, tid, block):
        st = self.state.get(tid)
        if st is not None:
            self._flush(st)
            st["block"] = block

    def on_mem(self, tid, slot, is_store, addr, size):
        st = self.state.get(tid)
        if st is None or st["excluded"]:
            return
        if addr >= STACK_BASE:
            addr = (STACK_BASE + st["index"] * STACK_SIZE
                    + (addr - STACK_BASE) % STACK_SIZE)
        st["mems"].append((slot, is_store, addr, size))

    def on_call(self, tid, function_name):
        st = self.state.get(tid)
        if st is None:
            if function_name in self.roots:
                self._begin(tid, function_name)
            return
        self._flush(st)
        st["depth"] += 1
        if st["excluded"] or function_name in self.exclude:
            st["excluded"] += 1
        else:
            st["trace"][0].append((TOK_CALL, function_name))

    def on_ret(self, tid):
        st = self.state.get(tid)
        if st is None:
            return
        self._flush(st)
        st["depth"] -= 1
        if st["excluded"]:
            st["excluded"] -= 1
        elif st["depth"]:
            st["trace"][0].append((TOK_RET,))
        if not st["depth"]:
            self._close(tid)

    def _lock(self, tid, kind, addr):
        st = self.state.get(tid)
        if st is not None:
            self._flush(st)
            if not st["excluded"]:
                st["trace"][0].append((kind, addr))

    def on_lock(self, tid, lock_addr):
        self._lock(tid, TOK_LOCK, lock_addr)

    def on_unlock(self, tid, lock_addr):
        self._lock(tid, TOK_UNLOCK, lock_addr)

    def on_skip(self, tid, count, reason):
        st = self.state.get(tid)
        skipped = st["trace"][1] if st is not None else self.untraced
        skipped[reason] = skipped.get(reason, 0) + count


class _Tee:
    """Hooks that forward every machine event to each of ``hooks``."""

    def __init__(self, *hooks):
        self._hooks = hooks

    def __getattr__(self, name):
        calls = [getattr(hook, name) for hook in self._hooks]

        def fan(*args):
            for call in calls:
                call(*args)
        return fan


def _record(name, engine, exclude=(), max_instructions=None):
    """Run one workload under both recorders; returns (traces, oracle)."""
    instance = get_workload(name).instantiate(N_THREADS)
    recorder = TraceRecorder(instance.roots, exclude=exclude,
                             workload=instance.name,
                             program=instance.program)
    oracle = _TupleRecorder(instance.roots, exclude=exclude)
    kwargs = dict(instance.machine_kwargs, engine=engine)
    if max_instructions is not None:
        kwargs["max_instructions"] = max_instructions
    machine = Machine(instance.program, hooks=_Tee(recorder, oracle),
                      **kwargs)
    if instance.setup is not None:
        instance.setup(machine)
    for function, args, io_in in instance.spawns:
        machine.spawn(function, args, io_in=io_in)
    try:
        machine.run()
    except InstructionLimitError:
        assert max_instructions is not None
    return recorder.traces, oracle


def _columns(packed):
    return {attr: list(getattr(packed, attr)) for attr, _ in SHM_COLUMNS}


def _assert_parity(traces, oracle):
    assert len(traces.threads) == len(oracle.traces)
    assert (list(traces.untraced_skipped.items())
            == list(oracle.untraced.items()))
    for trace, (tokens, skipped, closed) in zip(traces.threads,
                                                oracle.traces):
        packed = trace.packed()
        packed.ensure_verified()
        for reference in (PackedTrace.from_tokens(tokens),
                          PackedTrace.from_tokens(packed.to_tokens())):
            assert _columns(packed) == _columns(reference), trace.index
            assert packed.names == reference.names
            assert packed.signature == reference.signature
        assert list(trace.skipped.items()) == list(skipped.items())
        assert trace.closed == closed


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(w.name for w in all_workloads()))
def test_catalog_workload_columns_match(name, engine):
    _assert_parity(*_record(name, engine))


def _callees(name):
    traces, _oracle = _record(name, "compiled")
    return sorted({callee for trace in traces
                   for callee in trace.packed().names})


class _Block:
    """A stand-in basic block: the recorders read only these two."""

    def __init__(self, addr, n_instructions):
        self.addr = addr
        self.instructions = [None] * n_instructions


_B1, _B2, _B3 = _Block(0x100, 3), _Block(0x108, 2), _Block(0x110, 4)
_H1, _H2 = _Block(0x200, 5), _Block(0x208, 1)

#: Hand-ordered hook streams for the orderings a machine run seldom
#: hits: a skip inside an excluded block (``skipped`` insertion order),
#: and machines stopping inside an excluded extent, after a lock and
#: right after a call.
SCRIPTS = {
    "skip-inside-excluded-block": [
        ("on_thread_start", 0, "worker"), ("on_block", 0, _B1),
        ("on_mem", 0, 1, False, 0x2000, 8), ("on_call", 0, "helper"),
        ("on_block", 0, _H1), ("on_skip", 0, 7, "io"),
        ("on_block", 0, _H2), ("on_ret", 0), ("on_block", 0, _B2),
        ("on_ret", 0),
    ],
    "stop-inside-excluded-extent": [
        ("on_thread_start", 0, "worker"), ("on_block", 0, _B1),
        ("on_mem", 0, 0, True, 0x2000, 4), ("on_call", 0, "helper"),
        ("on_block", 0, _H1), ("on_block", 0, _H2),
    ],
    "stop-after-lock": [
        ("on_thread_start", 0, "worker"), ("on_block", 0, _B1),
        ("on_lock", 0, 0x3000), ("on_block", 0, _B2),
        ("on_mem", 0, 0, True, 0x3000, 8),
    ],
    "stop-after-call": [
        ("on_skip", 1, 3, "spin"), ("on_thread_start", 0, "worker"),
        ("on_block", 0, _B1), ("on_call", 0, "leaf"),
        ("on_thread_start", 1, "worker"), ("on_block", 1, _B3),
        ("on_thread_end", 1),
    ],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_scripted_hook_streams_match(script):
    recorder = TraceRecorder(["worker"], exclude=["helper"])
    oracle = _TupleRecorder(["worker"], exclude=["helper"])
    hooks = _Tee(recorder, oracle)
    for hook, *args in SCRIPTS[script]:
        getattr(hooks, hook)(*args)
    _assert_parity(recorder.traces, oracle)


@pytest.mark.parametrize("engine", ENGINES)
def test_excluded_functions_are_skip_counted_alike(engine):
    exclude = _callees("memcached")[:2]
    assert exclude
    traces, oracle = _record("memcached", engine, exclude=exclude)
    assert any("filtered" in trace.skipped for trace in traces)
    _assert_parity(traces, oracle)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("exclude", [False, True], ids=["plain", "exclude"])
def test_trace_open_when_the_machine_stops(engine, exclude):
    # The instruction limit stops the machine mid-block: those traces
    # never close, and their last open block is not recorded.
    excluded = _callees("pigz")[:1] if exclude else ()
    traces, oracle = _record("pigz", engine, exclude=excluded,
                             max_instructions=5_000)
    assert not all(trace.closed for trace in traces)
    _assert_parity(traces, oracle)
