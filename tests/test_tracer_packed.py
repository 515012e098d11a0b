"""Unit and property tests for the columnar packed trace representation.

:class:`~repro.tracer.packed.PackedTrace` is the analyzer's hot data
structure: the packed columns must round-trip token streams exactly,
the content signature must be stable under re-packing and sensitive to
any content change, the derived columns (``cumn``, ``runs``, ``msegf``/
``msegl``) must agree with first-principles recomputation, and any
post-pack corruption must surface as a typed
:class:`~repro.errors.TraceCorruptError` -- never as silently wrong
replay inputs or memo keys.
"""

import io

import pytest

from repro.errors import TraceCorruptError
from repro.tracer import load_traces, save_traces
from repro.tracer.events import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_LOCK,
    TOK_RET,
    TOK_UNLOCK,
    ThreadTrace,
    TraceSet,
)
from repro.tracer.packed import TRANSACTION_SHIFT, PackedTrace
from repro.workloads import get_workload, trace_instance

#: A hand-written stream exercising every token kind, nested calls,
#: repeated callees, and multi-record memory blocks.
SAMPLE_TOKENS = [
    (TOK_BLOCK, 0x100, 3, ()),
    (TOK_BLOCK, 0x108, 5, ((1, False, 0x7000_0040, 8),
                           (3, True, 0x2000, 4))),
    (TOK_CALL, "helper"),
    (TOK_BLOCK, 0x200, 2, ()),
    (TOK_CALL, "leaf"),
    (TOK_BLOCK, 0x300, 1, ((0, False, 0x2010, 8),)),
    (TOK_RET,),
    (TOK_BLOCK, 0x208, 4, ()),
    (TOK_RET,),
    (TOK_LOCK, 0x3000),
    (TOK_BLOCK, 0x110, 2, ((0, True, 0x3000, 8),)),
    (TOK_UNLOCK, 0x3000),
    (TOK_CALL, "helper"),
    (TOK_BLOCK, 0x200, 2, ()),
    (TOK_RET,),
    (TOK_BLOCK, 0x118, 1, ()),
    (TOK_RET,),
]


class TestRoundTrip:
    def test_tokens_round_trip_exactly(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        assert packed.to_tokens() == SAMPLE_TOKENS

    def test_round_trip_preserves_bool_store_flags(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        mems = packed.to_tokens()[1][3]
        assert mems == ((1, False, 0x7000_0040, 8), (3, True, 0x2000, 4))
        assert all(isinstance(m[1], bool) for m in mems)

    def test_single_token_reconstruction(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        for i, token in enumerate(SAMPLE_TOKENS):
            assert packed.token(i) == token

    def test_callee_names_interned_once(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        assert packed.names == ("helper", "leaf")

    def test_records_round_trip_through_wire_format(self):
        traces = TraceSet("sample")
        traces.new_thread(0, "worker").tokens = list(SAMPLE_TOKENS)
        buffer = io.BytesIO()
        save_traces(traces, buffer)
        buffer.seek(0)
        again = load_traces(buffer).threads[0].packed()
        assert again.to_tokens() == SAMPLE_TOKENS
        assert again.signature == traces.threads[0].signature
        again.ensure_verified()

    @pytest.mark.parametrize("name", ["vectoradd", "memcached", "pigz"])
    def test_real_workload_streams_round_trip(self, name):
        traces, _ = trace_instance(get_workload(name).instantiate(8))
        for trace in traces:
            packed = PackedTrace.from_tokens(trace.tokens)
            assert tuple(packed.to_tokens()) == trace.tokens


class TestDerivedColumns:
    def test_prefix_sums_match_token_counts(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        total = 0
        for i, token in enumerate(SAMPLE_TOKENS):
            assert packed.cumn[i] == total
            if token[0] == TOK_BLOCK:
                total += token[2]
        assert packed.cumn[-1] == total
        assert packed.total_instructions == total

    def test_runs_are_maximal_memless_block_runs(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        for i, token in enumerate(SAMPLE_TOKENS):
            expected = 0
            if token[0] == TOK_BLOCK and not token[3]:
                j = i
                while (j < len(SAMPLE_TOKENS)
                       and SAMPLE_TOKENS[j][0] == TOK_BLOCK
                       and not SAMPLE_TOKENS[j][3]):
                    expected += 1
                    j += 1
            assert packed.runs[i] == expected, i

    def test_mcnt_is_the_per_token_record_count(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        for i, token in enumerate(SAMPLE_TOKENS):
            expected = len(token[3]) if token[0] == TOK_BLOCK else 0
            assert packed.mcnt[i] == expected, i

    def test_bext_is_maximal_block_runs_memory_allowed(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        for i, token in enumerate(SAMPLE_TOKENS):
            expected = 0
            if token[0] == TOK_BLOCK:
                j = i
                while (j < len(SAMPLE_TOKENS)
                       and SAMPLE_TOKENS[j][0] == TOK_BLOCK):
                    expected += 1
                    j += 1
            assert packed.bext[i] == expected, i

    def test_segment_bounds_match_transaction_arithmetic(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        records = [m for token in SAMPLE_TOKENS if token[0] == TOK_BLOCK
                   for m in token[3]]
        assert len(packed.msegf) == len(records)
        for j, (_slot, _st, addr, size) in enumerate(records):
            assert packed.msegf[j] == addr >> TRANSACTION_SHIFT
            assert packed.msegl[j] == (addr + size - 1) >> TRANSACTION_SHIFT


class TestSignature:
    def test_signature_is_stable_across_packs(self):
        first = PackedTrace.from_tokens(SAMPLE_TOKENS)
        second = PackedTrace.from_tokens(list(SAMPLE_TOKENS))
        assert first.signature == second.signature

    def test_signature_differs_on_any_content_change(self):
        base = PackedTrace.from_tokens(SAMPLE_TOKENS).signature
        variants = [
            SAMPLE_TOKENS[:-1],                           # truncated
            SAMPLE_TOKENS + [(TOK_RET,)],                 # extended
            [(TOK_BLOCK, 0x101, 3, ())] + SAMPLE_TOKENS[1:],   # address
            [(TOK_BLOCK, 0x100, 4, ())] + SAMPLE_TOKENS[1:],   # count
            [(TOK_BLOCK, 0x100, 3,
              ((0, False, 0x2000, 8),))] + SAMPLE_TOKENS[1:],  # mems
        ]
        signatures = {PackedTrace.from_tokens(v).signature
                      for v in variants}
        assert base not in signatures
        assert len(signatures) == len(variants)

    def test_verification_passes_on_pristine_buffers(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        packed.ensure_verified()
        assert packed._verified

    @pytest.mark.parametrize("column,delta", [
        ("arg", 1), ("nins", 1), ("maddr", 8), ("mstore", 1),
    ])
    def test_tampered_column_fails_verification(self, column, delta):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        getattr(packed, column)[0] += delta
        with pytest.raises(TraceCorruptError) as excinfo:
            packed.ensure_verified()
        assert excinfo.value.site == "trace.pack"

    def test_verification_runs_once(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        packed.ensure_verified()
        # Post-verification tampering is the replayer's problem, not the
        # signature's: ensure_verified is documented as once-per-instance.
        packed.arg[0] += 1
        packed.ensure_verified()


class TestThreadTraceCaching:
    def _trace(self):
        trace = ThreadTrace(0, 100, "worker")
        trace.tokens = list(SAMPLE_TOKENS)
        return trace

    def test_n_instructions_matches_tokens(self):
        trace = self._trace()
        expected = sum(t[2] for t in SAMPLE_TOKENS if t[0] == TOK_BLOCK)
        assert trace.n_instructions == expected

    def test_n_instructions_is_cached(self):
        # The total is the packed prefix sum: no tuples are built for it.
        trace = self._trace()
        assert trace.n_instructions == trace.packed().total_instructions
        assert trace._tokens is None

    def test_in_place_append_is_rejected(self):
        # The token view is a tuple: an in-place edit cannot silently
        # diverge from the stored columns.
        trace = self._trace()
        before = trace.n_instructions
        with pytest.raises(AttributeError):
            trace.tokens.append((TOK_BLOCK, 0x900, 7, ()))
        assert trace.tokens == tuple(SAMPLE_TOKENS)
        assert trace.n_instructions == before

    def test_assignment_resets_every_cache(self):
        trace = self._trace()
        first = trace.packed()
        assert trace.packed() is first
        assert trace.tokens == tuple(SAMPLE_TOKENS)
        trace.tokens = [(TOK_BLOCK, 0x10, 2, ())]
        assert trace.packed() is not first
        assert trace.tokens == ((TOK_BLOCK, 0x10, 2, ()),)
        assert trace.n_tokens == 1
        assert trace.n_instructions == 2

    def test_packed_cache_keyed_on_token_count(self):
        # The pack is built once per token sequence; growing the sequence
        # (by assignment, since the view is read-only) yields a new pack.
        trace = self._trace()
        first = trace.packed()
        assert trace.packed() is first
        trace.tokens = trace.tokens + ((TOK_RET,),)
        second = trace.packed()
        assert second is not first
        assert second.n_tokens == first.n_tokens + 1
        assert trace.packed() is second
        assert second.to_tokens()[:-1] == first.to_tokens()

    def test_packed_native_trace_stays_columnar(self):
        packed = PackedTrace.from_tokens(SAMPLE_TOKENS)
        trace = ThreadTrace(0, 100, "worker")
        trace.attach_packed(packed)
        assert trace.packed() is packed
        assert trace.n_tokens == packed.n_tokens
        assert trace.n_instructions == packed.total_instructions
        assert trace._tokens is None
        # Tuples materialize only on demand, and the columns stay.
        assert trace.tokens == tuple(SAMPLE_TOKENS)
        assert trace.packed() is packed


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_mem_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),          # slot
        st.booleans(),                                   # is_store
        st.integers(min_value=0, max_value=2**40),       # addr
        st.integers(min_value=1, max_value=64),          # size
    ),
    max_size=4,
).map(tuple)

_tokens = st.lists(
    st.one_of(
        st.tuples(st.just(TOK_BLOCK),
                  st.integers(min_value=0, max_value=2**40),
                  st.integers(min_value=0, max_value=1000),
                  _mem_records),
        st.tuples(st.just(TOK_CALL),
                  st.sampled_from(["f", "g", "worker_fn"])),
        st.tuples(st.just(TOK_RET)),
        st.tuples(st.just(TOK_LOCK),
                  st.integers(min_value=0, max_value=2**40)),
        st.tuples(st.just(TOK_UNLOCK),
                  st.integers(min_value=0, max_value=2**40)),
    ),
    max_size=40,
)


class TestPackedProperties:
    @settings(max_examples=60, deadline=None)
    @given(tokens=_tokens)
    def test_round_trip_identity(self, tokens):
        packed = PackedTrace.from_tokens(tokens)
        assert packed.to_tokens() == tokens
        assert packed.n_tokens == len(tokens)

    @settings(max_examples=60, deadline=None)
    @given(tokens=_tokens)
    def test_signature_canonical_over_representations(self, tokens):
        direct = PackedTrace.from_tokens(tokens)
        buf = bytearray(direct.shm_nbytes())
        descriptor, end = direct.to_shm(buf, 0)
        assert end == len(buf)
        attached = PackedTrace.from_shm(descriptor, buf)
        assert attached._digest() == direct.signature
        assert attached.to_tokens() == tokens

    @settings(max_examples=60, deadline=None)
    @given(tokens=_tokens)
    def test_total_instructions_matches_tuples(self, tokens):
        packed = PackedTrace.from_tokens(tokens)
        assert packed.total_instructions == sum(
            t[2] for t in tokens if t[0] == TOK_BLOCK)

    @settings(max_examples=40, deadline=None)
    @given(tokens=_tokens, pos=st.integers(min_value=0, max_value=10**9),
           delta=st.integers(min_value=1, max_value=255))
    def test_any_column_mutation_is_caught(self, tokens, pos, delta):
        packed = PackedTrace.from_tokens(tokens)
        mutable = [c for c in (packed.arg, packed.nins, packed.mslot,
                               packed.maddr, packed.msize) if len(c)]
        if not mutable:
            return
        column = mutable[pos % len(mutable)]
        column[pos % len(column)] += delta
        with pytest.raises(TraceCorruptError):
            packed.ensure_verified()
