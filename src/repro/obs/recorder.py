"""Recorders: the write side of the observability layer.

Two implementations share one four-method interface:

* :class:`Recorder` -- accumulates hierarchical spans, counters and
  gauges into a live tree, snapshot via :meth:`Recorder.telemetry`;
* :class:`NullRecorder` -- every method is a constant-time no-op, and
  :data:`NULL_RECORDER` is the shared instance every uninstrumented
  pipeline object holds.

The null path is the default everywhere, so code under instrumentation
pays only an attribute load and a no-op call per probe when profiling is
off.  The singleton's :meth:`~NullRecorder.span` returns one shared,
reentrant, stateless context manager -- no allocation per stage entry.

Recorders are deliberately **not** shared across processes: pool replay
workers never see the parent's recorder.  Cross-worker observability
flows through the per-warp metric objects the workers already return,
which the analyzer merges in warp-index order (see
:mod:`repro.core.analyzer`), keeping every exported counter bit-identical
to a serial run.
"""

from __future__ import annotations

import time
from typing import List

from .telemetry import SpanNode, Telemetry


class _NullSpan:
    """Shared no-op context manager (reentrant, stateless)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every probe is a constant-time no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass

    def telemetry(self) -> Telemetry:
        """An empty document (the null recorder never holds state)."""
        return Telemetry()


#: The process-wide shared no-op recorder; default for every pipeline
#: object that was not given an explicit recorder.
NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager produced by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_name", "_node", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._node = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack
        self._node = stack[-1].child(self._name)
        stack.append(self._node)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        elapsed = time.perf_counter() - self._start
        self._node.seconds += elapsed
        self._node.count += 1
        self._recorder._stack.pop()
        return False


class Recorder:
    """Accumulates spans/counters/gauges for one pipeline run.

    Spans nest by dynamic scope: a span entered while another is open
    becomes its child, giving the stage hierarchy
    (``report > trace > build``...) for free.  Counters add; gauges set;
    :meth:`maximum` keeps the largest value seen (high-water marks).

    Not thread- or process-safe by design -- one recorder belongs to one
    session in one process.  See the module docstring for how parallel
    replay stays observable anyway.
    """

    __slots__ = ("_root", "_stack", "counters", "gauges", "meta")

    enabled = True

    def __init__(self) -> None:
        self._root = SpanNode("")
        self._stack: List[SpanNode] = [self._root]
        self.counters = {}
        self.gauges = {}
        self.meta = {}

    def span(self, name: str) -> _Span:
        """A context manager timing one entry into stage ``name``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def maximum(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is the largest yet."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def telemetry(self) -> Telemetry:
        """Snapshot the current state as a detached :class:`Telemetry`."""
        return Telemetry(
            spans=[node.copy() for node in self._root.children.values()],
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:
        return (f"<Recorder spans={len(self._root.children)} "
                f"counters={len(self.counters)}>")


__all__ = ["NULL_RECORDER", "NullRecorder", "Recorder"]
