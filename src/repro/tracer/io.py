"""Trace-file (de)serialization: one binary columnar codec.

The paper's tracer writes trace files consumed later by the analyzer.
This module is the only codec for them: the artifact store persists
traces through it, the worker pool ships freshly traced workloads back
to the parent in it, and ``threadfuser analyze --save-traces`` writes
it.  A file holds the packed columns of every thread in exactly the
layout :meth:`PackedTrace.to_shm <repro.tracer.packed.PackedTrace.to_shm>`
uses for shared-memory arenas, so loading attaches zero-copy views
instead of decoding anything::

    0        8-byte magic: b"TFTRACE" + one format-version byte
    8        header length H (uint64, little-endian)
    16       H bytes of JSON header
    align 8  column region: per thread, the SHM_COLUMNS (derived
             columns included), 8-byte aligned
    end-32   sha256 over every preceding byte

The header names the workload, ``untraced_skipped``, and per thread
its ``index``/``cpu_tid``/``root``/``skipped``, content ``signature``,
interned callee ``names`` and column ``spans`` (offsets relative to the
column region).

Integrity: :func:`load_traces` verifies the trailing sha256 before any
column is attached, so an empty, truncated or bit-flipped file -- or one
written by another format version -- raises a precise
:class:`~repro.errors.TraceCorruptError` instead of decoding garbage.
Attached traces start unverified: the first consumer re-hashes the
pristine columns against the per-thread signature, as for every packed
trace.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Union

from .. import faults
from ..errors import TraceCorruptError
from .events import TraceSet
from .packed import SHM_COLUMNS, PackedTrace, _align

#: v3: binary columnar files (v1/v2 were JSON lines, no longer read).
FORMAT_VERSION = 3

_MAGIC = b"TFTRACE"
_PREFIX = 16  # magic + version byte + header length
_DIGEST = 32

_CORRUPT_HINT = ("the trace file is truncated or corrupted; delete it "
                 "and re-trace (cached traces are regenerated "
                 "automatically)")


def _corrupt(message: str, hint: str = _CORRUPT_HINT) -> TraceCorruptError:
    return TraceCorruptError(message, site="trace.load", hint=hint)


def save_traces(traces: TraceSet, fp: Union[str, IO]) -> None:
    """Write ``traces`` to a path or binary file object.

    Each thread is packed once through :meth:`ThreadTrace.packed`, so
    the cached pack is what later replay reuses, and verified before it
    is written, so a corrupted pack never reaches a file.  Columns are
    streamed one thread at a time (hashed as they go), so saving holds
    no second copy of the whole file in memory.
    """
    packs = []
    records = []
    size = 0
    for trace in traces.threads:
        packed = trace.packed()
        packed.ensure_verified()
        spans, end = packed.shm_spans(size)
        packs.append((packed, end - size))
        records.append({
            "index": trace.index,
            "cpu_tid": trace.cpu_tid,
            "root": trace.root,
            "skipped": trace.skipped,
            "signature": packed.signature,
            "names": list(packed.names),
            "spans": spans,
        })
        size = end
    header = json.dumps({
        "workload": traces.workload,
        "untraced_skipped": traces.untraced_skipped,
        "threads": records,
    }, separators=(",", ":")).encode("utf-8")
    prefix = bytearray(_align(_PREFIX + len(header)))
    prefix[:8] = _MAGIC + bytes((FORMAT_VERSION,))
    prefix[8:_PREFIX] = len(header).to_bytes(8, "little")
    prefix[_PREFIX:_PREFIX + len(header)] = header
    own = isinstance(fp, str)
    out = open(fp, "wb") if own else fp
    try:
        hasher = hashlib.sha256(prefix)
        out.write(prefix)
        for packed, nbytes in packs:
            # Every thread's block starts 8-byte aligned, so its spans
            # relative to the block are the header's minus its offset.
            block = bytearray(nbytes)
            packed.to_shm(block, 0)
            hasher.update(block)
            out.write(block)
        out.write(hasher.digest())
    finally:
        if own:
            out.close()


def _read(fp: Union[str, IO]) -> bytes:
    if isinstance(fp, str):
        with open(fp, "rb") as inp:
            return inp.read()
    return fp.read()


def load_traces(fp: Union[str, IO], program=None) -> TraceSet:
    """Read a :class:`TraceSet` written by :func:`save_traces`.

    ``fp`` is a path or a binary file object.  Every thread's columns
    are zero-copy views over the one buffer read.  Raises
    :class:`~repro.errors.TraceCorruptError` (a ``ValueError``
    subclass) when the stream is empty, truncated, bit-flipped, fails
    its checksum, or was written under another format version.
    """
    data = faults.mangle("trace.load", _read(fp))
    if not data:
        raise _corrupt("trace stream is empty (truncated before the header?)")
    if data[:len(_MAGIC)] != _MAGIC[:len(data)]:
        raise _corrupt(
            "not a binary trace file (bad magic)",
            hint="the file was written by an incompatible release or is "
                 "not a trace file; re-trace the workload")
    if len(data) > len(_MAGIC) and data[len(_MAGIC)] != FORMAT_VERSION:
        raise _corrupt(
            f"unsupported trace format version {data[len(_MAGIC)]} "
            f"(this release reads {FORMAT_VERSION})",
            hint="the file was written by an incompatible release; "
                 "re-trace the workload")
    if len(data) < _PREFIX + _DIGEST:
        raise _corrupt(f"trace stream truncated at {len(data)} bytes")
    view = memoryview(data)
    body = view[:-_DIGEST]
    expected = bytes(view[-_DIGEST:])
    actual = hashlib.sha256(body).digest()
    if actual != expected:
        raise _corrupt(
            f"trace stream failed its checksum (expected "
            f"{expected.hex()[:12]}.., got {actual.hex()[:12]}..)")
    length = int.from_bytes(data[8:_PREFIX], "little")
    base = _align(_PREFIX + length)
    if base > len(body):
        raise _corrupt("trace header overruns the stream")
    try:
        header = json.loads(bytes(view[_PREFIX:_PREFIX + length]))
        traces = TraceSet(workload=header["workload"], program=program)
        traces.untraced_skipped = dict(header["untraced_skipped"])
        columns = body[base:]
        for record in header["threads"]:
            trace = traces.new_thread(record["cpu_tid"], record["root"])
            if record["index"] != trace.index:
                raise ValueError(f"thread index {record['index']} out of "
                                 f"order (expected {trace.index})")
            trace.skipped = dict(record["skipped"])
            trace.attach_packed(_attach(record, columns))
            trace.closed = True
    except (KeyError, TypeError, IndexError, ValueError,
            OverflowError) as exc:
        raise _corrupt(f"trace header is malformed: "
                       f"{type(exc).__name__}: {exc}") from None
    return traces


def _attach(record: dict, columns: memoryview) -> PackedTrace:
    """One thread's :class:`PackedTrace` over the column region."""
    spans = record["spans"]
    if len(spans) != len(SHM_COLUMNS):
        raise ValueError(f"{len(spans)} column spans, "
                         f"expected {len(SHM_COLUMNS)}")
    for (attr, typecode), (offset, count) in zip(SHM_COLUMNS, spans):
        itemsize = 1 if typecode == "b" else 8
        if offset < 0 or count < 0 \
                or offset + count * itemsize > len(columns):
            raise ValueError(f"column {attr} overruns the stream")
    packed = PackedTrace.from_shm(
        (record["signature"], record["names"], spans), columns)
    n = packed.n_tokens
    n_mems = len(packed.mslot)
    if any(len(getattr(packed, attr)) != want for attr, want in (
            ("cumn", n + 1), ("moff", n + 1), ("arg", n), ("nins", n),
            ("runs", n), ("mcnt", n), ("bext", n), ("mstore", n_mems),
            ("maddr", n_mems), ("msize", n_mems), ("msegf", n_mems),
            ("msegl", n_mems))) or packed.moff[n] != n_mems:
        raise ValueError("column lengths are inconsistent")
    return packed
