"""Trace containers and token formats.

A *logical thread* follows the paper's correlation methodology: one trace
per dynamic invocation of a traced worker function (one OpenMP iteration /
one Pthread worker call), so CPU scheduling does not perturb the
CPU-vs-GPU thread mapping.

Each stream is stored in columns (:mod:`repro.tracer.packed`, written
by the recorder as it traces); the tuple grammar below is its read-only
view and the input format for hand-built traces::

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

from typing import Dict, Iterable, List, Tuple

TOK_BLOCK = "B"
TOK_CALL = "C"
TOK_RET = "R"
TOK_LOCK = "L"
TOK_UNLOCK = "U"


class ThreadTrace:
    """The dynamic trace of one logical (SIMT) thread.

    The content is stored once, as the columnar
    :class:`~repro.tracer.packed.PackedTrace` (:meth:`packed`, what the
    recorder builds, the store loads and the replayer iterates).
    :attr:`tokens` is a read-only tuple view of the same stream,
    materialized only if a consumer asks for it; assigning a token
    sequence to :attr:`tokens` packs it and is the one way to replace
    the content.
    """

    __slots__ = ("index", "cpu_tid", "root", "skipped", "closed",
                 "_packed", "_tokens")

    def __init__(self, index: int, cpu_tid: int, root: str) -> None:
        self.index = index
        self.cpu_tid = cpu_tid
        self.root = root
        self._packed = None
        self._tokens = None
        self.skipped: Dict[str, int] = {}
        self.closed = False

    @property
    def tokens(self) -> Tuple[tuple, ...]:
        """The token stream as tuples (materialized once, on demand)."""
        toks = self._tokens
        if toks is None:
            toks = self._tokens = tuple(self.packed().to_tokens())
        return toks

    @tokens.setter
    def tokens(self, value: Iterable[tuple]) -> None:
        from .packed import PackedTrace

        self.attach_packed(PackedTrace.from_tokens(value))

    @property
    def n_tokens(self) -> int:
        """Token count without materializing tuples."""
        return self.packed().n_tokens

    def packed(self):
        """The columnar form of this trace."""
        packed = self._packed
        if packed is None:
            # Nothing was recorded or assigned: the empty stream.
            from .packed import PackedTrace

            packed = self._packed = PackedTrace.from_records((), (), (), ())
        return packed

    def attach_packed(self, packed) -> None:
        """Adopt ``packed`` as the trace content."""
        self._packed = packed
        self._tokens = None

    @property
    def signature(self) -> str:
        """sha256 content signature of the packed token columns."""
        packed = self.packed()
        packed.ensure_verified()
        return packed.signature

    @property
    def n_instructions(self) -> int:
        """Traced dynamic instruction count, O(1)."""
        return self.packed().total_instructions

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
