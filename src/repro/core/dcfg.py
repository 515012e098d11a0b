"""Dynamic Control Flow Graph (DCFG) construction.

The analyzer builds one DCFG *per function* from the merged per-thread
traces, exactly as the paper describes: building one graph for the whole
trace would let a shared function's return edge point at many blocks and
make IPDOM overly conservative, so every function gets its own graph with
a *virtual exit block* appended, forcing divergent threads to reconverge at
function end like contemporary SIMT hardware does.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..tracer.events import TraceSet
from ..tracer.packed import KIND_B, KIND_CALL, KIND_RET

#: Sentinel node: the per-function virtual exit block.
VEXIT = -1


class FunctionDCFG:
    """The merged dynamic CFG of one function (plus virtual exit).

    Nodes are basic-block addresses (program addresses, plus the
    :data:`VEXIT` sentinel); edges are observed dynamic transitions.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.succs: Dict[int, Set[int]] = {VEXIT: set()}
        self.preds: Dict[int, Set[int]] = {VEXIT: set()}
        self.entries: Set[int] = set()
        self.ipdom: Dict[int, int] = {}

    def add_edge(self, src: int, dst: int) -> None:
        """Record one observed transition between block addresses."""
        self.succs.setdefault(src, set()).add(dst)
        self.succs.setdefault(dst, set())
        self.preds.setdefault(dst, set()).add(src)
        self.preds.setdefault(src, set())

    @property
    def nodes(self) -> Iterable[int]:
        """All block addresses of the graph (including :data:`VEXIT`)."""
        return self.succs.keys()

    def __len__(self) -> int:
        return len(self.succs)

    def __repr__(self) -> str:
        return f"<FunctionDCFG {self.name} nodes={len(self.succs)}>"


class DCFGSet:
    """All per-function DCFGs observed in a trace set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionDCFG] = {}

    def get(self, name: str) -> FunctionDCFG:
        """The DCFG of function ``name``, created empty on first use."""
        dcfg = self.functions.get(name)
        if dcfg is None:
            dcfg = FunctionDCFG(name)
            self.functions[name] = dcfg
        return dcfg

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __getitem__(self, name: str) -> FunctionDCFG:
        return self.functions[name]

    def __iter__(self):
        return iter(self.functions.values())


def _scan_thread(root: str, packed, dcfgs: DCFGSet) -> None:
    """Add one thread's control-flow edges, read from its packed columns.

    Each call frame links its consecutive blocks; a frame's first block
    becomes an entry of its function, and its last block (at RET, or at
    stream end for a thread that halted inside open frames) links to the
    virtual exit.  The frame state lives in locals and edges already
    present are skipped with one membership probe (``add_edge`` is
    idempotent) -- loop bodies and threads sharing control flow cost two
    hash lookups per block instead of five dict writes.
    """
    stack: list = []
    names = packed.names
    dcfg = dcfgs.get(root)
    succs = dcfg.succs
    seen = False
    last = VEXIT
    for kind, a in zip(packed.kinds, packed.arg):
        if kind == KIND_B:
            if seen:
                if a not in succs[last]:
                    dcfg.add_edge(last, a)
            else:
                dcfg.entries.add(a)
                succs.setdefault(a, set())
                dcfg.preds.setdefault(a, set())
                seen = True
            last = a
        elif kind == KIND_CALL:
            stack.append((dcfg, succs, seen, last))
            dcfg = dcfgs.get(names[a])
            succs = dcfg.succs
            seen = False
            last = VEXIT
        elif kind == KIND_RET:
            if seen and VEXIT not in succs[last]:
                dcfg.add_edge(last, VEXIT)
            dcfg, succs, seen, last = stack.pop()
        # LOCK/UNLOCK tokens carry no control-flow information.
    # A thread that ended inside open frames (HALT / truncation) still
    # pins each open frame's last block to the virtual exit.
    while True:
        if seen and VEXIT not in succs[last]:
            dcfg.add_edge(last, VEXIT)
        if not stack:
            break
        dcfg, succs, seen, last = stack.pop()


def build_dcfgs(traces: TraceSet) -> DCFGSet:
    """Build merged per-function DCFGs from all logical-thread traces.

    Threads whose control-flow columns -- root, names, kinds, arg --
    exactly match an already-scanned thread's are not re-scanned: a
    duplicate scan adds no edges and no entries, so skipping it leaves
    every graph bit-identical while SPMD-style workloads collapse from
    ``n_threads`` scans to one per distinct control flow.  Candidates
    are bucketed by ``(root, n_tokens)`` and confirmed with C-speed
    array equality, which exits on the first differing token.
    """
    dcfgs = DCFGSet()
    buckets: Dict[tuple, list] = {}
    for trace in traces:
        packed = trace.packed()
        key = (trace.root, packed.n_tokens)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [packed]
        else:
            if any(seen.names == packed.names
                   and seen.kinds == packed.kinds
                   and seen.arg == packed.arg
                   for seen in bucket):
                continue
            bucket.append(packed)
        _scan_thread(trace.root, packed, dcfgs)
    return dcfgs
