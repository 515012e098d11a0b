"""Trace containers and token formats.

A *logical thread* follows the paper's correlation methodology: one trace
per dynamic invocation of a traced worker function (one OpenMP iteration /
one Pthread worker call), so CPU scheduling does not perturb the
CPU-vs-GPU thread mapping.

Token stream grammar (one stream per logical thread)::

    ("B", block_addr, n_instructions, mems)   executed basic block
    ("C", callee_name)                        call into callee (traced)
    ("R",)                                    return to caller
    ("L", lock_addr)                          lock acquired
    ("U", lock_addr)                          lock released

``mems`` is a tuple of ``(slot, is_store, addr, size)`` records, where
``slot`` is the instruction's index inside the block -- the alignment key
the coalescer uses to gather the same instruction's addresses across the
lanes of a warp.
"""

from __future__ import annotations

from typing import Dict, List

TOK_BLOCK = "B"
TOK_CALL = "C"
TOK_RET = "R"
TOK_LOCK = "L"
TOK_UNLOCK = "U"


class ThreadTrace:
    """The dynamic trace of one logical (SIMT) thread.

    The token stream has two interchangeable representations: the tuple
    list (:attr:`tokens`, what the recorder appends to) and the columnar
    :class:`~repro.tracer.packed.PackedTrace` (:meth:`packed`, what the
    replayer iterates).  Either side is produced lazily from the other --
    traces loaded from disk start packed and only materialize tuples if a
    consumer asks for them.  Both the packed form and the
    :attr:`n_instructions` total are cached keyed on the token-list
    length, so recorder appends (the only in-tree mutation) invalidate
    them automatically; ``trace.tokens = [...]`` assignment resets every
    cache.
    """

    __slots__ = ("index", "cpu_tid", "root", "skipped", "closed",
                 "_tokens", "_packed", "_ncache")

    def __init__(self, index: int, cpu_tid: int, root: str) -> None:
        self.index = index
        self.cpu_tid = cpu_tid
        self.root = root
        self._tokens: List[tuple] = []
        self._packed = None
        self._ncache = None
        self.skipped: Dict[str, int] = {}
        self.closed = False

    @property
    def tokens(self) -> List[tuple]:
        """Token tuple stream (materialized from packed form on demand)."""
        toks = self._tokens
        if toks is None:
            toks = self._packed.to_tokens()
            self._tokens = toks
        return toks

    @tokens.setter
    def tokens(self, value: List[tuple]) -> None:
        self._tokens = value
        self._packed = None
        self._ncache = None

    @property
    def n_tokens(self) -> int:
        """Token count without materializing tuples."""
        toks = self._tokens
        if toks is None:
            return self._packed.n_tokens
        return len(toks)

    def packed(self):
        """The columnar form of this trace (packed once, then cached).

        The cache is keyed on the token-list length: appending tokens
        (what the recorder does) produces a fresh pack on next use.
        """
        packed = self._packed
        toks = self._tokens
        if packed is not None and (toks is None
                                   or packed.n_tokens == len(toks)):
            return packed
        from .packed import PackedTrace

        packed = PackedTrace.from_tokens(toks)
        self._packed = packed
        return packed

    def attach_packed(self, packed) -> None:
        """Adopt ``packed`` as the trace content (tuples become lazy)."""
        self._packed = packed
        self._tokens = None
        self._ncache = None

    @property
    def signature(self) -> str:
        """sha256 content signature of the packed token columns."""
        packed = self.packed()
        packed.ensure_verified()
        return packed.signature

    @property
    def n_instructions(self) -> int:
        """Traced dynamic instruction count (cached; O(1) when packed)."""
        toks = self._tokens
        if toks is None:
            return self._packed.total_instructions
        cache = self._ncache
        n = len(toks)
        if cache is not None and cache[0] == n:
            return cache[1]
        packed = self._packed
        if packed is not None and packed.n_tokens == n:
            total = packed.total_instructions
        else:
            total = sum(t[2] for t in toks if t[0] == TOK_BLOCK)
        self._ncache = (n, total)
        return total

    @property
    def n_skipped(self) -> int:
        return sum(self.skipped.values())

    def add_skip(self, count: int, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count

    def __repr__(self) -> str:
        return (
            f"<ThreadTrace #{self.index} root={self.root} "
            f"tokens={self.n_tokens} instrs={self.n_instructions}>"
        )


class TraceSet:
    """All logical-thread traces collected from one program run."""

    def __init__(self, workload: str = "", program=None) -> None:
        self.workload = workload
        self.program = program
        self.threads: List[ThreadTrace] = []
        #: Skipped instructions attributed outside any traced extent.
        self.untraced_skipped: Dict[str, int] = {}

    def new_thread(self, cpu_tid: int, root: str) -> ThreadTrace:
        trace = ThreadTrace(len(self.threads), cpu_tid, root)
        self.threads.append(trace)
        return trace

    def __len__(self) -> int:
        return len(self.threads)

    def __iter__(self):
        return iter(self.threads)

    @property
    def total_instructions(self) -> int:
        return sum(t.n_instructions for t in self.threads)

    @property
    def total_skipped(self) -> int:
        in_trace = sum(t.n_skipped for t in self.threads)
        return in_trace + sum(self.untraced_skipped.values())

    def skipped_by_reason(self) -> Dict[str, int]:
        totals: Dict[str, int] = dict(self.untraced_skipped)
        for trace in self.threads:
            for reason, count in trace.skipped.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def traced_fraction(self) -> float:
        """Fraction of dynamic instructions that were traced (Fig. 8)."""
        traced = self.total_instructions
        total = traced + self.total_skipped
        return traced / total if total else 1.0

    def __repr__(self) -> str:
        return (
            f"<TraceSet {self.workload!r} threads={len(self.threads)} "
            f"instrs={self.total_instructions}>"
        )
