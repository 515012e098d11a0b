"""In-memory spans for the traced run, and the arithmetic over them.

A span is ``(span_id, parent_id, request_id, name, start, end)``.  Spans
nest by dynamic scope per thread: one opened while another is open on
the same thread becomes its child and inherits its request ID.  They
stay in a list until the run ends and are written out once.

*Self time* of a span is its duration minus the part of its interval
that its child spans cover.  *Uncovered* time of a request is the part
of the request span that no layer span covers; container spans (the
session call that wraps every layer) do not count as cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, \
    Sequence, Tuple

REQUEST = "request"


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    request_id: Optional[str]
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans and per-request counters in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: counter name -> summed value, only for work inside a request.
        self.counters: Dict[str, float] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current_request(self) -> Optional[str]:
        """Request ID of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str,
             request_id: Optional[str] = None) -> Iterator[int]:
        """Time the enclosed block as span ``name``; yields its ID."""
        stack = self._stack()
        parent_id, inherited = stack[-1] if stack else (None, None)
        request = request_id if request_id is not None else inherited
        span_id = self._new_id()
        stack.append((span_id, request))
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, parent_id, request, name, start, end))

    def request(self, request_id: str):
        """Root span of one request."""
        return self.span(REQUEST, request_id=request_id)

    def add(self, name: str, start: float, end: float,
            parent_id: Optional[int], request_id: Optional[str]) -> None:
        """Record a span measured elsewhere (for example by the server)."""
        with self._lock:
            self._next_id += 1
            self.spans.append(Span(self._next_id, parent_id, request_id,
                                   name, start, end))

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` when inside a request."""
        if self.current_request() is None:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as out:
            json.dump({"spans": [span._asdict() for span in self.spans],
                       "counters": self.counters}, out)


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name, over spans inside a request."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end))
    out: Dict[str, float] = {}
    for span in spans:
        if span.request_id is None:
            continue
        inner = covered(children.get(span.span_id, ()), span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + \
            (span.end - span.start - inner)
    return out


def calls(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per name, over spans inside a request."""
    out: Dict[str, int] = {}
    for span in spans:
        if span.request_id is not None:
            out[span.name] = out.get(span.name, 0) + 1
    return out


def uncovered(spans: Sequence[Span],
              containers: Iterable[str] = ()) -> Tuple[float, float]:
    """``(uncovered_s, request_wall_s)`` summed over every request.

    A request's uncovered time is the part of its root span that no
    other span of the same request covers, where spans named in
    ``containers`` do not count as cover.
    """
    skip = set(containers) | {REQUEST}
    roots = [span for span in spans if span.name == REQUEST]
    layers: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.name not in skip and span.request_id is not None:
            layers.setdefault(span.request_id, []).append(
                (span.start, span.end))
    wall = sum(root.end - root.start for root in roots)
    gap = sum(root.end - root.start
              - covered(layers.get(root.request_id, ()), root.start, root.end)
              for root in roots)
    return gap, wall
