"""Self time and uncovered time on synthetic nested spans."""

import itertools

import pytest

import spans


def test_self_time_subtracts_covered_children():
    tracer = spans.Tracer()
    tracer.add("request", 0.0, 10.0, None, "r0")
    root = tracer.spans[-1].span_id
    tracer.add("session", 0.5, 9.5, root, "r0")
    session = tracer.spans[-1].span_id
    tracer.add("a", 1.0, 4.0, session, "r0")
    a = tracer.spans[-1].span_id
    tracer.add("b", 2.0, 3.0, a, "r0")
    tracer.add("c", 3.5, 5.0, a, "r0")  # sticks out of its parent
    tracer.add("a", 6.0, 7.0, session, "r0")
    tracer.add("outside", 0.0, 100.0, None, None)
    self_s = spans.self_times(tracer.spans)
    assert self_s["request"] == pytest.approx(1.0)
    assert self_s["session"] == pytest.approx(9.0 - 4.0)
    assert self_s["a"] == pytest.approx((3.0 - 1.5) + 1.0)
    assert self_s["b"] == pytest.approx(1.0)
    assert self_s["c"] == pytest.approx(1.5)
    assert "outside" not in self_s
    assert spans.calls(tracer.spans) == {"request": 1, "session": 1, "a": 2,
                                         "b": 1, "c": 1}
    gap, wall = spans.uncovered(tracer.spans, containers=("session",))
    # Layers cover [1, 5] and [6, 7] of the 10 s request.
    assert (gap, wall) == (pytest.approx(5.0), pytest.approx(10.0))
    gap, _ = spans.uncovered(tracer.spans)
    assert gap == pytest.approx(1.0)


def test_live_spans_nest_and_inherit_the_request():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("setup"):
        pass
    with tracer.request("r7"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("things", 2)
        tracer.count("things")
    tracer.count("ignored")
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["setup"].request_id is None
    assert by_name["inner"].request_id == "r7"
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == by_name["request"].span_id
    assert tracer.counters == {"things": 3}
    assert spans.self_times(tracer.spans)["outer"] == 2.0


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert spans.covered([(3, 2)], 0, 10) == 0
