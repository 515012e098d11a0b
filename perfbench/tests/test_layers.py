"""Span wrappers: present layers are timed, missing ones are absent."""

import types

import layers
import spans


def test_missing_functions_are_recorded_as_absent():
    tracer = spans.Tracer()
    wanted = (
        ("repro.tracer.packed", "PackedTrace.no_such_method", "tracer.pack"),
        ("repro.no_such_module", "anything", "gone"),
        ("repro.tracer.packed", "NoSuchClass.from_tokens", "gone"),
        ("repro.tracer.packed", "PackedTrace.from_tokens", "tracer.pack"),
    )
    installed, _ = layers.install(tracer, layers=wanted)
    try:
        assert installed.absent == [
            "repro.tracer.packed.PackedTrace.no_such_method",
            "repro.no_such_module.anything",
            "repro.tracer.packed.NoSuchClass.from_tokens",
        ]
        absent = layers.absent_spans(installed, layers=wanted)
        assert absent == {"tracer.pack": False, "gone": True}
    finally:
        installed.restore()


def test_wrappers_time_calls_and_restore_the_originals():
    from repro.tracer.packed import PackedTrace
    from repro.workloads import runner

    raw_method = PackedTrace.__dict__["from_tokens"]
    raw_function = runner.execute_traced
    tracer = spans.Tracer()
    installed, _ = layers.install(tracer)
    try:
        assert installed.absent == []
        assert isinstance(PackedTrace.__dict__["from_tokens"], classmethod)
        assert runner.execute_traced is not raw_function
        with tracer.request("r0"):
            PackedTrace.from_tokens([])
        assert [s.name for s in tracer.spans] == ["tracer.pack", "request"]
    finally:
        installed.restore()
    assert PackedTrace.__dict__["from_tokens"] is raw_method
    assert runner.execute_traced is raw_function


def test_a_probe_that_no_longer_fits_loses_only_its_counter():
    tracer = spans.Tracer()
    module = types.ModuleType("fake_layer")
    module.execute = lambda: "not a (traces, machine) pair"
    import sys

    sys.modules["fake_layer"] = module
    try:
        installed, _ = layers.install(
            tracer, layers=(("fake_layer", "execute", "machine.execute"),))
        with tracer.request("r0"):
            assert module.execute() == "not a (traces, machine) pair"
        installed.restore()
    finally:
        del sys.modules["fake_layer"]
    assert tracer.counters == {"probe_errors.machine.execute": 1}
