"""Round-trip tests for trace-file (de)serialization.

The artifact store persists traces through :mod:`repro.tracer.io`, so the
save/load round trip must preserve every analysis-relevant field: token
streams, instruction counts, skip accounting, and (transitively) all
replay metrics.
"""

import hashlib
import io
import json

import pytest

from repro.artifacts import serialize_traces
from repro.core import analyze_traces
from repro.errors import TraceCorruptError
from repro.tracer import load_traces, save_traces
from repro.tracer.packed import SHM_COLUMNS
from repro.workloads import all_workloads, get_workload, trace_instance

WORKLOADS = ["vectoradd", "nn", "dsb_text", "btree", "memcached"]
N_THREADS = 16


def _trace(name):
    instance = get_workload(name).instantiate(N_THREADS)
    traces, _machine = trace_instance(instance)
    return instance, traces


def _round_trip(traces, program=None):
    buffer = io.BytesIO()
    save_traces(traces, buffer)
    buffer.seek(0)
    return load_traces(buffer, program=program)


class TestRoundTripStructure:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_preserves_threads_and_tokens(self, tmp_path, name):
        instance, traces = _trace(name)
        path = str(tmp_path / f"{name}.trace")
        save_traces(traces, path)
        loaded = load_traces(path, program=instance.program)

        assert len(loaded) == len(traces)
        assert loaded.workload == traces.workload
        assert loaded.untraced_skipped == traces.untraced_skipped
        for original, restored in zip(traces.threads, loaded.threads):
            assert restored.index == original.index
            assert restored.cpu_tid == original.cpu_tid
            assert restored.root == original.root
            assert restored.tokens == original.tokens
            assert restored.skipped == original.skipped

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_preserves_instruction_and_skip_accounting(self, name):
        _instance, traces = _trace(name)
        loaded = _round_trip(traces)
        assert loaded.total_instructions == traces.total_instructions
        assert loaded.total_skipped == traces.total_skipped
        assert loaded.skipped_by_reason() == traces.skipped_by_reason()
        assert loaded.traced_fraction() == traces.traced_fraction()


class TestRoundTripReplayMetrics:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_identical_before_and_after(self, name):
        _instance, traces = _trace(name)
        loaded = _round_trip(traces)
        emulate_locks = name == "memcached"
        before = analyze_traces(traces, warp_size=8,
                                emulate_locks=emulate_locks)
        after = analyze_traces(loaded, warp_size=8,
                               emulate_locks=emulate_locks)

        assert after.simt_efficiency == before.simt_efficiency
        assert after.metrics.issues == before.metrics.issues
        assert (after.metrics.thread_instructions
                == before.metrics.thread_instructions)
        assert after.heap_transactions == before.heap_transactions
        assert after.stack_transactions == before.stack_transactions
        assert (after.metrics.divergence_events
                == before.metrics.divergence_events)
        assert (after.metrics.locks.serialized_issues
                == before.metrics.locks.serialized_issues)
        assert (after.metrics.locks.contended_events
                == before.metrics.locks.contended_events)


class TestPackedNativeLoading:
    """Loaded traces stay columnar end to end.

    :func:`load_traces` attaches a :class:`PackedTrace` per thread
    without materializing token tuples; the whole analysis pipeline
    (DCFG scan, warp formation, replay, memo signatures) must run
    without ever materializing a thread's token tuples.
    """

    def test_loaded_traces_are_packed_only(self):
        _instance, traces = _trace("vectoradd")
        loaded = _round_trip(traces)
        for thread in loaded.threads:
            assert thread._tokens is None
            assert thread.n_tokens == len(thread.tokens)

    def test_analysis_never_materializes_tuples(self):
        _instance, traces = _trace("btree")
        loaded = _round_trip(traces)
        analyze_traces(loaded, warp_size=8)
        for thread in loaded.threads:
            assert thread._tokens is None, thread.index

    def test_signatures_survive_the_round_trip(self):
        _instance, traces = _trace("memcached")
        loaded = _round_trip(traces)
        for original, restored in zip(traces.threads, loaded.threads):
            assert restored.signature == original.signature

    def test_packed_native_save_is_byte_identical(self):
        # Saving a loaded trace copies its attached columns verbatim,
        # so artifact checksums do not depend on the representation.
        _instance, traces = _trace("vectoradd")
        loaded = _round_trip(traces)
        assert serialize_traces(loaded) == serialize_traces(traces)
        for thread in loaded.threads:
            assert thread._tokens is None


class TestSerializationDeterminism:
    def test_same_traces_serialize_byte_identically(self):
        _instance, traces = _trace("dsb_text")
        assert serialize_traces(traces) == serialize_traces(traces)

    def test_fresh_runs_serialize_byte_identically(self):
        # The artifact store's content addressing relies on the machine
        # (and therefore the wire format) being fully deterministic.
        _i1, first = _trace("btree")
        _i2, second = _trace("btree")
        assert serialize_traces(first) == serialize_traces(second)

    def test_unknown_format_version_rejected(self):
        _instance, traces = _trace("vectoradd")
        data = bytearray(serialize_traces(traces))
        data[7] = 99
        with pytest.raises(TraceCorruptError, match="version") as excinfo:
            load_traces(io.BytesIO(bytes(data)))
        assert excinfo.value.site == "trace.load"


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_round_trip_is_byte_identical_across_the_catalog(name):
    """serialize(load(serialize(t))) == serialize(t), from tokens or a load."""
    traces, _machine = trace_instance(get_workload(name).instantiate(8))
    data = serialize_traces(traces)
    loaded = load_traces(io.BytesIO(data))
    assert serialize_traces(loaded) == data
    reloaded = load_traces(io.BytesIO(serialize_traces(loaded)))
    assert serialize_traces(reloaded) == data


def _layout(data):
    """``(header, column base, per-thread spans)`` of a valid stream."""
    length = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + length])
    base = (16 + length + 7) & ~7
    return header, base, [t["spans"] for t in header["threads"]]


def _column_byte(data, column, item=0):
    """Absolute offset of byte 0 of ``item`` in thread 0's ``column``."""
    _header, base, spans = _layout(data)
    index = [attr for attr, _ in SHM_COLUMNS].index(column)
    offset, count = spans[0][index]
    assert item < count, (column, count)
    itemsize = 1 if SHM_COLUMNS[index][1] == "b" else 8
    return base + offset + item * itemsize


def _flip(data, pos):
    mutated = bytearray(data)
    mutated[pos] ^= 0x01
    return bytes(mutated)


#: corruption case -> mutation of a valid vectoradd stream.
CORRUPTIONS = {
    "empty": lambda d: b"",
    "wrong_magic": lambda d: b"XF" + d[2:],
    "json_lines_v2": lambda d: b'{"version": 2, "workload": "x"}\n',
    "unknown_version": lambda d: d[:7] + bytes((99,)) + d[8:],
    "truncated_in_magic": lambda d: d[:5],
    "truncated_in_header": lambda d: d[:_layout(d)[1] - 4],
    "truncated_in_columns": lambda d: d[:_column_byte(d, "maddr")],
    "truncated_in_digest": lambda d: d[:-5],
    "flip_in_header": lambda d: _flip(d, 20),
    "flip_in_header_length": lambda d: _flip(d, 8),
    "flip_in_pristine_column": lambda d: _flip(d, _column_byte(d, "nins")),
    "flip_in_derived_column": lambda d: _flip(d, _column_byte(d, "cumn", 1)),
    "flip_in_digest": lambda d: _flip(d, len(d) - 1),
}


class TestCorruptionDetection:
    """The checksummed binary stream refuses truncated/garbled input."""

    def _data(self, name="vectoradd"):
        _instance, traces = _trace(name)
        return serialize_traces(traces), traces

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_raises_typed_error(self, case):
        data, _traces = self._data()
        mutated = CORRUPTIONS[case](data)
        assert mutated != data
        with pytest.raises(TraceCorruptError) as excinfo:
            load_traces(io.BytesIO(mutated))
        assert excinfo.value.site == "trace.load"
        assert excinfo.value.hint

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceCorruptError, match="empty"):
            load_traces(io.BytesIO(b""))

    def test_truncated_mid_body_rejected(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError):
            load_traces(io.BytesIO(data[: len(data) // 2]))

    def test_missing_last_record_rejected(self):
        # Cut the stream just before the last thread's columns: every
        # earlier thread is intact, only the checksum can catch it.
        data, traces = self._data()
        _header, base, spans = _layout(data)
        cut = base + spans[-1][0][0]
        with pytest.raises(TraceCorruptError, match="checksum"):
            load_traces(io.BytesIO(data[:cut]))
        assert len(traces) > 1

    def test_garbled_header_rejected(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError, match="checksum"):
            load_traces(io.BytesIO(_flip(data, 30)))

    def test_flipped_body_character_rejected(self):
        data, _traces = self._data()
        pos = _column_byte(data, "maddr")
        with pytest.raises(TraceCorruptError, match="checksum"):
            load_traces(io.BytesIO(_flip(data, pos)))

    def test_error_carries_site_and_hint(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError) as excinfo:
            load_traces(io.BytesIO(data[:-30]))
        assert excinfo.value.site == "trace.load"
        assert "re-trace" in excinfo.value.hint \
            or "regenerated" in excinfo.value.hint

    @pytest.mark.parametrize("edit", ["span_past_end", "lengths",
                                      "thread_order", "not_json"])
    def test_resealed_malformed_header_rejected(self, edit):
        # A header that is malformed but carries a valid checksum (a
        # writer bug, not disk rot) still never attaches bad columns.
        data, _traces = self._data()
        header, base, _spans = _layout(data)
        threads = header["threads"]
        if edit == "span_past_end":
            threads[0]["spans"][7][1] = 10 ** 9
        elif edit == "lengths":
            threads[0]["spans"][3][1] -= 1
        elif edit == "thread_order":
            threads[0]["index"] = 5
        raw = b"{" if edit == "not_json" else json.dumps(header).encode()
        padding = bytes(-(16 + len(raw)) % 8)
        body = (data[:8] + len(raw).to_bytes(8, "little") + raw + padding
                + data[base:-32])
        resealed = body + hashlib.sha256(body).digest()
        with pytest.raises(TraceCorruptError, match="malformed"):
            load_traces(io.BytesIO(resealed))
