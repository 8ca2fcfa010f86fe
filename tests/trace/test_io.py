"""Round-trip and robustness tests for trace serialization."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import (
    EventKind,
    Trace,
    load_file,
    make_access,
    make_marker,
    save_file,
)
from repro.trace.io import dump, event_from_record, event_to_record, load


def roundtrip(trace):
    stream = io.StringIO()
    dump(trace, stream)
    stream.seek(0)
    return load(stream)


class TestRoundTrip:
    def test_events_and_meta_survive(self):
        trace = Trace(meta={"design": "cwl", "threads": 4})
        trace.append(make_marker(0, 0, EventKind.THREAD_BEGIN))
        trace.append(
            make_access(1, 0, EventKind.STORE, 0x8000_0000, 8, 123, True)
        )
        trace.append(make_marker(2, 0, EventKind.MARK, "insert:end"))
        loaded = roundtrip(trace)
        assert loaded.meta == trace.meta
        assert list(loaded) == list(trace)

    def test_file_roundtrip(self, tmp_path, cwl_1t):
        path = tmp_path / "trace.jsonl"
        save_file(cwl_1t.trace, path)
        loaded = load_file(path)
        assert len(loaded) == len(cwl_1t.trace)
        assert list(loaded) == list(cwl_1t.trace)
        assert loaded.meta == cwl_1t.trace.meta

    def test_defaults_omitted_from_records(self):
        event = make_marker(0, 0, EventKind.PERSIST_BARRIER)
        record = event_to_record(event)
        assert set(record) == {"seq", "thread", "kind"}

    def test_record_roundtrip_preserves_info(self):
        event = make_marker(7, 3, EventKind.MARK, "hello world")
        assert event_from_record(event_to_record(event)) == event


class TestMalformedInput:
    def test_empty_stream(self):
        with pytest.raises(TraceError):
            load(io.StringIO(""))

    def test_missing_meta_header(self):
        with pytest.raises(TraceError):
            load(io.StringIO('{"seq": 0}\n'))

    def test_non_dict_header(self):
        for header in ('[1, 2, 3]\n', '"meta"\n', "42\n", "null\n"):
            with pytest.raises(TraceError):
                load(io.StringIO(header))

    def test_non_dict_meta_value(self):
        with pytest.raises(TraceError):
            load(io.StringIO('{"meta": [1, 2]}\n'))

    def test_non_dict_event_line(self):
        with pytest.raises(TraceError):
            load(io.StringIO('{"meta": {}}\n[0, 1, "load"]\n'))

    def test_truncated_event_line(self):
        stream = io.StringIO('{"meta": {}}\n{"seq": 0, "thr')
        with pytest.raises(TraceError):
            load(stream)

    def test_garbage_line(self):
        stream = io.StringIO('{"meta": {}}\nnot json\n')
        with pytest.raises(TraceError):
            load(stream)

    def test_unknown_kind(self):
        stream = io.StringIO(
            '{"meta": {}}\n{"seq": 0, "thread": 0, "kind": "teleport"}\n'
        )
        with pytest.raises(TraceError):
            load(stream)

    def test_blank_lines_skipped(self):
        stream = io.StringIO(
            '{"meta": {}}\n\n{"seq": 0, "thread": 0, "kind": "mark"}\n\n'
        )
        assert len(load(stream)) == 1

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "store", "size": 8, "value": -1},
            {"kind": "load", "size": 1, "value": 256},
            {"kind": "rmw", "size": 4, "value": 1 << 32},
            {"kind": "persist_barrier", "value": 5},
            {"kind": "mark", "thread": 1 << 32},
        ],
        ids=["negative", "over-wide", "over-wide-rmw", "non-access", "thread"],
    )
    def test_field_outside_columnar_range(self, record):
        """Fields must fit the columnar encoding every analysis uses."""
        record = {"seq": 0, "thread": 0, **record}
        if "size" in record:
            record["addr"] = 0x8000_0000
        with pytest.raises(TraceError, match="malformed event record"):
            event_from_record(record)

    def test_field_range_boundaries_accepted(self):
        store = event_from_record(
            {"seq": 0, "thread": (1 << 32) - 1, "kind": "store",
             "addr": 0x8000_0000, "size": 2, "value": 0xFFFF}
        )
        assert (store.thread, store.value) == ((1 << 32) - 1, 0xFFFF)


_event_strategy = st.builds(
    lambda seq, thread, kind, addr_words, value, persistent: (
        make_access(
            seq, thread, kind, 0x1000 + 8 * addr_words, 8, value, persistent
        )
        if kind in (EventKind.LOAD, EventKind.STORE, EventKind.RMW)
        else make_marker(seq, thread, kind)
    ),
    seq=st.just(0),
    thread=st.integers(0, 7),
    kind=st.sampled_from(
        [
            EventKind.LOAD,
            EventKind.STORE,
            EventKind.RMW,
            EventKind.PERSIST_BARRIER,
            EventKind.NEW_STRAND,
            EventKind.MARK,
        ]
    ),
    addr_words=st.integers(0, 1000),
    value=st.integers(0, (1 << 64) - 1),
    persistent=st.booleans(),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_event_strategy, max_size=40))
def test_arbitrary_traces_roundtrip(events):
    trace = Trace(meta={"n": len(events)})
    for index, event in enumerate(events):
        trace.append(
            make_access(
                index, event.thread, event.kind, event.addr, event.size,
                event.value, event.persistent,
            )
            if event.is_access
            else make_marker(index, event.thread, event.kind, event.info)
        )
    assert list(roundtrip(trace)) == list(trace)
