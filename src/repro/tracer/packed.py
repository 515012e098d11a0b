"""Columnar packed trace representation.

A :class:`PackedTrace` holds one :class:`~repro.tracer.events.ThreadTrace`
token stream as flat ``array`` columns, one entry per token.  The
recorder builds it straight from what it recorded
(:meth:`PackedTrace.from_records`); :meth:`PackedTrace.from_tokens`
packs a token tuple list:

====================  =======================================================
column                contents
====================  =======================================================
``kinds``  (``'b'``)  token kind code (``KIND_B`` .. ``KIND_UNLOCK``)
``arg``    (``'q'``)  B: block address; C: index into :attr:`names`;
                      L/U: lock address; R: 0
``nins``   (``'q'``)  B: executed instruction count; otherwise 0
``cumn``   (``'q'``)  ``n_tokens + 1`` running sum of ``nins`` (prefix sums,
                      so any token span's instruction total is one subtract)
``moff``   (``'q'``)  ``n_tokens + 1`` running count of memory records, i.e.
                      token ``i`` owns mem records ``moff[i]:moff[i + 1]``
``mslot``  (``'q'``)  per memory record: instruction slot inside the block
``mstore`` (``'b'``)  per memory record: 1 for store, 0 for load
``maddr``  (``'q'``)  per memory record: virtual address
``msize``  (``'q'``)  per memory record: access size in bytes
====================  =======================================================

Callee name strings are interned once into the :attr:`names` tuple so the
hot columns stay pure int64.  The :attr:`signature` is a sha256 over the
raw column buffers (plus the interned names) -- a content address for the
whole stream that warp-replay memoization keys on.  ``runs`` additionally
caches, for every position starting a memory-less ``B`` token, the length
of the maximal run of memory-less ``B`` tokens from there; the packed
replayer uses it to consume whole converged block runs in one batched
accounting call.  ``mcnt`` (per-token memory-record counts, the forward
differences of ``moff``) and ``bext`` (maximal ``B``-token run lengths,
memory records allowed) extend the same idea for the vectorized
replayer, which compares ``mcnt`` slices across lanes at C speed and
consumes whole ``bext`` spans -- memory blocks included -- per
accounting call.

Integrity: the signature is computed over the pristine buffers at pack
time and :meth:`ensure_verified` re-hashes before first use, so any later
corruption of the packed buffers (including injected ``trace.pack``
faults, see :mod:`repro.faults`) surfaces as a
:class:`~repro.errors.TraceCorruptError` -- never as a silently wrong
signature feeding the memo table.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import accumulate, repeat
from operator import add, rshift, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TraceCorruptError
from .events import TOK_BLOCK, TOK_CALL, TOK_LOCK, TOK_RET, TOK_UNLOCK

#: Token kind codes, in column order.  ``CODE_KINDS[code]`` recovers the
#: single-letter kind of the tuple grammar.
KIND_B = 0
KIND_CALL = 1
KIND_RET = 2
KIND_LOCK = 3
KIND_UNLOCK = 4
CODE_KINDS = (TOK_BLOCK, TOK_CALL, TOK_RET, TOK_LOCK, TOK_UNLOCK)

#: The ``kind, arg, nins`` triple every return token shares.
RET_REC = (KIND_RET, 0, 0)

#: ``bytes.translate`` table mapping every nonzero byte to 1.
_NONZERO = bytes([0]) + bytes([1]) * 255

#: ``log2`` of the coalescing granularity; must stay in sync with
#: :data:`repro.core.metrics.TRANSACTION_BYTES` (asserted in
#: :mod:`repro.core.replay`).
TRANSACTION_SHIFT = 5

_PACK_HINT = (
    "packed trace buffers failed integrity verification; re-trace the "
    "workload (or clear the artifact cache) to rebuild the trace"
)

#: Column layout of one packed trace inside a shared-memory arena and
#: a trace file (:mod:`repro.tracer.io`): ``(attribute, array
#: typecode)`` in serialization order.  Derived columns (``cumn``,
#: ``runs``, ``msegf``, ``msegl``, ``mcnt``, ``bext``) are exported
#: too, so attaching workers and loads never recompute prefix sums --
#: but only the eight pristine columns participate in the content
#: signature, exactly as for in-process instances.
SHM_COLUMNS = (
    ("kinds", "b"),
    ("arg", "q"),
    ("nins", "q"),
    ("cumn", "q"),
    ("moff", "q"),
    ("mslot", "q"),
    ("mstore", "b"),
    ("maddr", "q"),
    ("msize", "q"),
    ("runs", "q"),
    ("msegf", "q"),
    ("msegl", "q"),
    ("mcnt", "q"),
    ("bext", "q"),
)

#: Alignment of each column inside the arena buffer.  Eight bytes keeps
#: every ``'q'`` column naturally aligned for ``memoryview.cast``.
SHM_ALIGN = 8


def _align(offset: int) -> int:
    return (offset + SHM_ALIGN - 1) & ~(SHM_ALIGN - 1)


def _run_lengths(mask: bytes, countdown: array) -> array:
    """Per position of a 0/1 ``mask``: the length of the run of zeros
    starting there (0 on ones).  ``countdown`` is ``len(mask)..1``, so
    each run is one copy of its tail."""
    n = len(mask)
    out = array("q", bytes(8 * n))
    find = mask.find
    start = find(0)
    while start >= 0:
        end = find(1, start)
        if end < 0:
            end = n
        out[start:end] = countdown[n - end + start:]
        start = find(0, end)
    return out


class PackedTrace:
    """One thread's token stream as flat columnar buffers."""

    __slots__ = (
        "n_tokens", "kinds", "arg", "nins", "cumn", "moff",
        "mslot", "mstore", "maddr", "msize", "names",
        "signature", "runs", "msegf", "msegl", "mcnt", "bext",
        "_verified",
    )

    def __init__(self, kinds, arg, nins, moff, mslot, mstore, maddr,
                 msize, names: Tuple[str, ...]) -> None:
        self.n_tokens = len(kinds)
        self.kinds = kinds
        self.arg = arg
        self.nins = nins
        self.moff = moff
        self.mslot = mslot
        self.mstore = mstore
        self.maddr = maddr
        self.msize = msize
        self.names = names
        # ``array`` fills from a list faster than from an iterator.
        self.cumn = array("q", list(accumulate(nins, initial=0)))
        self.mcnt = array("q", list(map(sub, moff[1:], moff[:-1])))
        self.runs, self.bext = self._block_runs()
        self.signature = self._digest()
        # Verified lazily: the first consumer (replay cursor, memo key)
        # re-hashes the buffers against the signature exactly once.
        self._verified = False
        self._maybe_inject()
        # Per memory record: first/last 32-byte transaction segment, so
        # coalescing reads precomputed bounds instead of dividing in the
        # replay hot loop.  Derived data (like ``runs``): recomputed at
        # pack time, not part of the signature.  Computed after fault
        # injection so the bounds always describe the final buffers.
        shifts = repeat(TRANSACTION_SHIFT)
        try:
            self.msegf = array("q", list(map(rshift, self.maddr, shifts)))
            self.msegl = array("q", list(map(rshift, map(
                sub, map(add, self.maddr, self.msize), repeat(1)), shifts)))
        except OverflowError:
            # Corrupted address/size columns can push the segment bounds
            # past int64; that is buffer corruption, not a packing bug.
            raise TraceCorruptError(
                "packed trace memory columns overflow segment bounds",
                site="trace.pack", hint=_PACK_HINT) from None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_records(cls, recs: Sequence[int], moff: Sequence[int],
                     mems: Sequence[tuple],
                     names: Sequence[str]) -> "PackedTrace":
        """Build the columns from the recorder's per-thread lists.

        ``recs`` is the flat ``kind code, arg, nins`` triple of every
        token, ``moff`` each token's first memory record (the record
        count when the token opened), ``mems`` one ``(slot, is_store,
        addr, size)`` tuple per record and ``names`` the interned
        callees.
        """
        kinds, arg, nins = recs[0::3], recs[1::3], recs[2::3]
        mslot, mstore, maddr, msize = zip(*mems) if mems else ((),) * 4
        offsets = array("q", moff)
        offsets.append(len(mems))
        return cls(array("b", bytes(kinds)), array("q", arg),
                   array("q", nins), offsets, array("q", mslot),
                   array("b", map(bool, mstore)), array("q", maddr),
                   array("q", msize), tuple(names))

    @classmethod
    def from_tokens(cls, tokens: Iterable[tuple]) -> "PackedTrace":
        """Pack a token tuple stream (hand-built traces, round trips)."""
        recs: List[int] = []
        moff: List[int] = []
        mems: List[tuple] = []
        names: Dict[str, int] = {}
        for token in tokens:
            kind = token[0]
            moff.append(len(mems))
            if kind == TOK_BLOCK:
                recs += (KIND_B, token[1], token[2])
                mems.extend(token[3])
            elif kind == TOK_CALL:
                recs += (KIND_CALL, names.setdefault(token[1], len(names)), 0)
            elif kind == TOK_RET:
                recs += RET_REC
            elif kind == TOK_LOCK:
                recs += (KIND_LOCK, token[1], 0)
            elif kind == TOK_UNLOCK:
                recs += (KIND_UNLOCK, token[1], 0)
            else:
                raise ValueError(f"unknown trace token kind {kind!r}")
        return cls.from_records(recs, moff, mems, names)

    # ------------------------------------------------------------------
    # reconstruction (cold paths: error messages, lazy materialization)

    def token(self, i: int) -> tuple:
        """Reconstruct token ``i`` as its original tuple form."""
        kind = self.kinds[i]
        if kind == KIND_B:
            return (TOK_BLOCK, self.arg[i], self.nins[i], self.mems(i))
        if kind == KIND_CALL:
            return (TOK_CALL, self.names[self.arg[i]])
        if kind == KIND_RET:
            return (TOK_RET,)
        if kind == KIND_LOCK:
            return (TOK_LOCK, self.arg[i])
        return (TOK_UNLOCK, self.arg[i])

    def mems(self, i: int) -> tuple:
        """Memory records of token ``i`` as ``(slot, is_store, addr, size)``."""
        lo, hi = self.moff[i], self.moff[i + 1]
        mslot, mstore, maddr, msize = (
            self.mslot, self.mstore, self.maddr, self.msize)
        return tuple(
            (mslot[j], bool(mstore[j]), maddr[j], msize[j])
            for j in range(lo, hi)
        )

    def to_tokens(self) -> List[tuple]:
        """Materialize the full tuple stream (identical to the original)."""
        return [self.token(i) for i in range(self.n_tokens)]

    # ------------------------------------------------------------------
    # shared-memory export (zero-copy transport between processes)

    def shm_spans(self, offset: int = 0) -> Tuple[tuple, int]:
        """Where :meth:`to_shm` puts each column when writing at
        ``offset``: ``((start, count), ...)`` in :data:`SHM_COLUMNS`
        order, plus the aligned end offset."""
        spans = []
        for attr, _ in SHM_COLUMNS:
            column = getattr(self, attr)
            offset = _align(offset)
            spans.append((offset, len(column)))
            offset += len(column) * column.itemsize
        return tuple(spans), _align(offset)

    def shm_nbytes(self) -> int:
        """Bytes this trace occupies in an arena (aligned columns)."""
        return self.shm_spans()[1]

    def to_shm(self, buf, offset: int) -> Tuple[tuple, int]:
        """Copy the columns into ``buf`` at ``offset`` (a writable
        buffer, typically ``SharedMemory.buf``).

        Returns ``(descriptor, end_offset)``.  The descriptor is a
        small picklable tuple -- ``(signature, names, column spans)`` --
        that :meth:`from_shm` turns back into a live trace against the
        same bytes in another process.  The signature travels in the
        descriptor, so attaching workers re-verify the shared columns
        exactly like locally packed ones.
        """
        spans, end = self.shm_spans(offset)
        view = memoryview(buf)
        for (attr, _), (start, count) in zip(SHM_COLUMNS, spans):
            raw = memoryview(getattr(self, attr)).cast("B")
            view[start:start + len(raw)] = raw
        return (self.signature, self.names, spans), end

    @classmethod
    def from_shm(cls, descriptor: tuple, buf) -> "PackedTrace":
        """Attach a trace to arena bytes written by :meth:`to_shm`.

        The columns are zero-copy ``memoryview`` casts over ``buf`` --
        nothing is deserialized.  The instance starts *unverified*, so
        the first consumer re-hashes the shared bytes against the
        descriptor signature; corruption of the arena (or an injected
        ``trace.pack`` fault in the producer) surfaces as the usual
        :class:`TraceCorruptError` instead of silently wrong replay.

        Keeps a view per column alive; the segment must not be closed
        while the returned trace (or anything it produced) is in use.
        """
        signature, names, spans = descriptor
        self = object.__new__(cls)
        view = memoryview(buf)
        for (attr, typecode), (offset, count) in zip(SHM_COLUMNS, spans):
            itemsize = 1 if typecode == "b" else 8
            column = view[offset:offset + count * itemsize].cast(typecode)
            setattr(self, attr, column)
        self.n_tokens = len(self.kinds)
        self.names = tuple(names)
        self.signature = signature
        self._verified = False
        return self

    # ------------------------------------------------------------------
    # derived data

    @property
    def total_instructions(self) -> int:
        """Traced dynamic instruction count, O(1)."""
        return self.cumn[-1] if len(self.cumn) > 1 else 0

    def _block_runs(self) -> Tuple[array, array]:
        """``runs[i]``: length of the run of memory-less ``B`` tokens
        starting at ``i``; ``bext[i]``: the same with memory records
        allowed.  Both are zero at non-``B`` positions.

        Derived data, recomputed at pack time and outside the
        signature: the replayer consumes whole ``runs`` in one batched
        accounting call, compares ``mcnt`` slices across lanes at C
        speed and consumes whole ``bext`` spans per call.
        """
        n = self.n_tokens
        blocks = self.kinds.tobytes().translate(_NONZERO)
        plain = (int.from_bytes(blocks, "little")
                 | int.from_bytes(bytes(map(bool, self.mcnt)), "little"))
        countdown = array("q", list(range(n, 0, -1)))
        return (_run_lengths(plain.to_bytes(n, "little"), countdown),
                _run_lengths(blocks, countdown))

    # ------------------------------------------------------------------
    # integrity

    def _digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"threadfuser-packed-v1\x00")
        hasher.update(self.n_tokens.to_bytes(8, "little"))
        for column in (self.kinds, self.arg, self.nins, self.moff,
                       self.mslot, self.mstore, self.maddr, self.msize):
            hasher.update(column)
            hasher.update(b"\x00")
        for name in self.names:
            hasher.update(name.encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def ensure_verified(self) -> None:
        """Re-hash the buffers and compare against :attr:`signature`.

        Verification runs once per instance (the first cursor or memo-key
        use); corruption raises :class:`TraceCorruptError` at site
        ``trace.pack``.
        """
        if self._verified:
            return
        if self._digest() != self.signature:
            raise TraceCorruptError(
                "packed trace columns do not match their content signature",
                site="trace.pack", hint=_PACK_HINT)
        self._verified = True

    def _maybe_inject(self) -> None:
        """Deterministic fault hook: corrupt the packed buffers.

        Imported lazily to keep :mod:`repro.tracer` importable without the
        faults machinery in odd bootstrap orders.
        """
        from .. import faults

        plan = faults.active()
        if plan is None:
            return
        blob = b"".join(
            column.tobytes()
            for column in (self.kinds, self.arg, self.nins, self.moff,
                           self.mslot, self.mstore, self.maddr, self.msize))
        mangled = plan.mangle("trace.pack", blob, token=self.signature)
        if mangled == blob:
            return
        # Rebuild the columns from the mangled blob; a truncation that no
        # longer covers every column is itself corruption.
        offset = 0
        for name in ("kinds", "arg", "nins", "moff",
                     "mslot", "mstore", "maddr", "msize"):
            column = getattr(self, name)
            span = len(column) * column.itemsize
            chunk = mangled[offset:offset + span]
            if len(chunk) != span:
                raise TraceCorruptError(
                    "packed trace buffers truncated by fault injection",
                    site="trace.pack", hint=_PACK_HINT)
            fresh = array(column.typecode)
            fresh.frombytes(chunk)
            setattr(self, name, fresh)
            offset += span

    def __repr__(self) -> str:
        return (
            f"<PackedTrace tokens={self.n_tokens} "
            f"instrs={self.total_instructions} sig={self.signature[:12]}>"
        )
