"""The ThreadFuser tracer: machine instrumentation hooks -> packed traces.

Plays the role of the paper's PIN tool: it observes basic-block executions,
per-instruction memory accesses, call/return events and lock operations,
splits each CPU thread's stream into one logical trace per invocation of a
*root* (worker) function, and skip-counts lock spinning, I/O and
explicitly excluded functions instead of tracing them.

Each logical thread records straight into the lists its
:class:`~repro.tracer.packed.PackedTrace` columns are cut from: the
``kind, arg, nins`` triple of every token (each block extends the list
by one prebuilt, shared tuple, so recording a block allocates nothing),
the token's first memory-record index, and one
``(slot, is_store, addr, size)`` tuple per memory record.  Closing the
trace hands those lists to :meth:`PackedTrace.from_records`; no token
tuple is ever built.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..machine.memory import STACK_BASE, STACK_SIZE
from ..program.ir import BasicBlock
from .events import ThreadTrace, TraceSet
from .packed import KIND_B, KIND_CALL, KIND_LOCK, KIND_UNLOCK, RET_REC
from .packed import PackedTrace


class _OpenTrace:
    """Recording state of one live logical-thread trace."""

    __slots__ = (
        "trace", "recs", "moff", "mems", "names", "depth",
        "excluded_depth", "filtered", "sealed",
    )

    def __init__(self, trace: ThreadTrace) -> None:
        self.trace = trace
        #: ``kind, arg, nins`` of every token, flattened.
        self.recs: List[int] = []
        #: Per token: the number of memory records before it.
        self.moff: List[int] = []
        self.mems: List[tuple] = []
        #: Interned callee name -> its index in the packed ``names``.
        self.names: Dict[str, int] = {}
        self.depth = 1
        self.excluded_depth = 0
        #: Instructions of the open block of an excluded extent; they
        #: are skip-counted when the block ends.
        self.filtered = 0
        #: ``len(recs)`` after the last non-block event: a block
        #: recorded after it is still open.
        self.sealed = 0

    def pack(self, open_block: bool = False) -> PackedTrace:
        """The columns recorded so far; ``open_block`` drops a block
        that never ended (and its memory records)."""
        recs, moff, mems = self.recs, self.moff, self.mems
        if open_block:
            recs, moff = recs[:-3], moff[:-1]
            mems = mems[:self.moff[-1]]
        return PackedTrace.from_records(recs, moff, mems, self.names)


class TraceRecorder:
    """Machine hooks implementation that records a :class:`TraceSet`.

    Parameters
    ----------
    roots:
        Names of worker functions; each dynamic call to one of them starts
        a fresh logical thread trace (the paper's per-iteration /
        per-worker-call trace granularity).
    exclude:
        Functions whose dynamic extent is skip-counted rather than traced
        (the paper's selective-tracing configuration knob).
    workload:
        Free-form label stored on the resulting :class:`TraceSet`.
    """

    def __init__(self, roots: Iterable[str], exclude: Iterable[str] = (),
                 workload: str = "", program=None) -> None:
        self.roots: Set[str] = set(roots)
        self.exclude: Set[str] = set(exclude)
        self._traces = TraceSet(workload=workload, program=program)
        #: CPU thread id -> the logical trace it is recording.
        self._open: Dict[int, _OpenTrace] = {}
        #: The shared ``(KIND_B, addr, nins)`` triple of each block.
        self._blocks: Dict[BasicBlock, tuple] = {}

    @property
    def traces(self) -> TraceSet:
        """The recorded traces.

        A trace still open (the machine stopped inside a root call)
        holds what was recorded up to its last completed block.
        """
        for state in self._open.values():
            state.trace.attach_packed(
                state.pack(open_block=len(state.recs) > state.sealed))
        return self._traces

    # ------------------------------------------------------------------

    def _begin(self, tid: int, root: str) -> None:
        self._open[tid] = _OpenTrace(self._traces.new_thread(tid, root))

    def _close(self, tid: int, state: _OpenTrace) -> None:
        self._end_block(state)
        del self._open[tid]
        trace = state.trace
        trace.attach_packed(state.pack())
        trace.closed = True

    @staticmethod
    def _end_block(state: _OpenTrace) -> None:
        """A non-block event ends the open block (skip-counted if it
        belongs to an excluded extent)."""
        if state.filtered:
            state.trace.add_skip(state.filtered, "filtered")
            state.filtered = 0
        state.sealed = len(state.recs)

    # ------------------------------------------------------------------
    # Machine hook interface.

    def on_thread_start(self, tid: int, function_name: str) -> None:
        if function_name in self.roots:
            self._begin(tid, function_name)

    def on_thread_end(self, tid: int) -> None:
        state = self._open.get(tid)
        if state is not None:
            self._close(tid, state)

    def on_block(self, tid: int, block: BasicBlock) -> None:
        state = self._open.get(tid)
        if state is None:
            return
        if state.excluded_depth:
            self._end_block(state)
            state.filtered = len(block.instructions)
            return
        rec = self._blocks.get(block)
        if rec is None:
            rec = (KIND_B, block.addr, len(block.instructions))
            self._blocks[block] = rec
        state.moff.append(len(state.mems))
        state.recs += rec

    def on_mem(self, tid: int, slot: int, is_store: bool, addr: int,
               size: int) -> None:
        state = self._open.get(tid)
        if state is None or state.excluded_depth:
            return
        if addr >= STACK_BASE:
            # Rebase stack addresses onto a per-*logical*-thread stack: on
            # SIMT hardware every fused thread owns private local memory,
            # whereas on the traced CPU all worker invocations of one
            # thread reuse the same stack region (paper Fig. 10: "each
            # thread having its private stack").
            region = (addr - STACK_BASE) % STACK_SIZE
            addr = STACK_BASE + state.trace.index * STACK_SIZE + region
        state.mems.append((slot, is_store, addr, size))

    def _token(self, state: _OpenTrace, rec: tuple) -> None:
        state.moff.append(len(state.mems))
        state.recs += rec
        state.sealed = len(state.recs)

    def on_call(self, tid: int, function_name: str) -> None:
        state = self._open.get(tid)
        if state is None:
            if function_name in self.roots:
                self._begin(tid, function_name)
            return
        state.depth += 1
        if state.excluded_depth or function_name in self.exclude:
            self._end_block(state)
            state.excluded_depth += 1
            return
        names = state.names
        index = names.get(function_name)
        if index is None:
            index = names[function_name] = len(names)
        self._token(state, (KIND_CALL, index, 0))

    def on_ret(self, tid: int) -> None:
        state = self._open.get(tid)
        if state is None:
            return
        state.depth -= 1
        if state.excluded_depth:
            self._end_block(state)
            state.excluded_depth -= 1
        elif state.depth:
            self._token(state, RET_REC)
        if not state.depth:
            self._close(tid, state)

    def _lock_event(self, tid: int, kind: int, lock_addr: int) -> None:
        state = self._open.get(tid)
        if state is None:
            return
        if state.excluded_depth:
            self._end_block(state)
        else:
            self._token(state, (kind, lock_addr, 0))

    def on_lock(self, tid: int, lock_addr: int) -> None:
        self._lock_event(tid, KIND_LOCK, lock_addr)

    def on_unlock(self, tid: int, lock_addr: int) -> None:
        self._lock_event(tid, KIND_UNLOCK, lock_addr)

    def on_skip(self, tid: int, count: int, reason: str) -> None:
        state = self._open.get(tid)
        if state is not None:
            state.trace.add_skip(count, reason)
        else:
            untraced = self._traces.untraced_skipped
            untraced[reason] = untraced.get(reason, 0) + count
