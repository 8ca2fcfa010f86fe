"""Columnar trace chunks: event round trips and chunked streaming."""

import io

import pytest

from repro.errors import TraceError
from repro.trace import (
    ColumnarChunk,
    KIND_CODES,
    EventKind,
    MemoryEvent,
    Trace,
    TraceReader,
    TraceWriter,
    chunks_from_events,
)
from repro.trace.io import dump


def sample_events(count=10):
    events = []
    for seq in range(count):
        kind = (
            EventKind.PERSIST_BARRIER
            if seq % 5 == 4
            else (EventKind.LOAD if seq % 3 == 2 else EventKind.STORE)
        )
        if kind is EventKind.PERSIST_BARRIER:
            events.append(
                MemoryEvent(seq=seq, thread=seq % 2, kind=kind)
            )
        else:
            events.append(
                MemoryEvent(
                    seq=seq,
                    thread=seq % 2,
                    kind=kind,
                    addr=0x8000_0000 + 8 * (seq % 4),
                    size=8,
                    value=seq + 1,
                    persistent=seq % 2 == 0,
                    sync=seq % 7 == 0,
                    info="m" if seq % 6 == 5 else "",
                )
            )
    return events


def sample_trace(count=10):
    trace = Trace(meta={"source": "test"})
    trace.extend(sample_events(count))
    return trace


class TestColumnarChunk:
    def test_round_trips_every_field(self):
        chunk = ColumnarChunk(0)
        for event in sample_events():
            chunk.append_event(event)
        assert list(chunk) == sample_events()

    def test_event_validates_on_materialisation(self):
        chunk = ColumnarChunk(0)
        chunk.append_raw(KIND_CODES[EventKind.STORE], 0)  # size 0: invalid
        with pytest.raises(Exception):
            chunk.event(0)


class TestChunksFromEvents:
    def test_chunk_sizes_and_coverage(self):
        events = sample_events(11)
        chunks = list(chunks_from_events(iter(events), 4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 3]
        flattened = [event for chunk in chunks for event in chunk]
        assert flattened == events

    def test_rejects_non_dense_seq(self):
        """Chunk sequence numbers are implicit, so a gap must fail loudly
        instead of silently renumbering the events after it."""
        events = sample_events(3)
        events[1] = MemoryEvent(seq=7, thread=0, kind=EventKind.PERSIST_BARRIER)
        with pytest.raises(TraceError, match="seq 7 out of order; expected 1"):
            list(chunks_from_events(events, 2))

    def test_base_seq_offsets_the_expected_seq(self):
        events = sample_events(6)[3:]
        chunks = list(chunks_from_events(events, 2, base_seq=3))
        assert [event for chunk in chunks for event in chunk] == events
        with pytest.raises(TraceError, match="expected 0"):
            list(chunks_from_events(events, 2))

    @pytest.mark.parametrize(
        "fields",
        [{"value": -1}, {"thread": 1 << 32}, {"value": 1.5}],
        ids=["negative-value", "wide-thread", "float-value"],
    )
    def test_unencodable_field_names_the_event(self, fields):
        """A field its typed column cannot hold is a TraceError naming the
        event, not a raw OverflowError/TypeError from :mod:`array`."""
        events = sample_events(3)
        spec = {
            "seq": 2,
            "thread": 0,
            "kind": EventKind.STORE,
            "addr": 0x8000_0000,
            "size": 8,
            "value": 1,
            "persistent": True,
            **fields,
        }
        events[2] = MemoryEvent(**spec)
        with pytest.raises(TraceError, match="event seq 2 does not fit"):
            list(chunks_from_events(events, 2))

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(TraceError):
            list(chunks_from_events([], 0))


class TestColumnarTrace:
    """A stored trace read back as a stream of columnar chunks."""

    def test_chunk_rollover_preserves_base_seqs(self):
        buffer = io.StringIO()
        dump(sample_trace(10), buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            chunks = list(reader.chunks(chunk_events=4))
        assert [chunk.base_seq for chunk in chunks] == [0, 4, 8]
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]

    def test_bad_chunk_size_rejected(self):
        buffer = io.StringIO()
        dump(sample_trace(3), buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            with pytest.raises(TraceError):
                list(reader.chunks(chunk_events=-1))


class TestStreamingIo:
    def test_reader_events_match_batch_load(self):
        trace = sample_trace(12)
        buffer = io.StringIO()
        dump(trace, buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            assert reader.meta == trace.meta
            assert list(reader.events()) == list(trace)

    def test_reader_chunks_match_events(self):
        trace = sample_trace(12)
        buffer = io.StringIO()
        dump(trace, buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            chunks = list(reader.chunks(chunk_events=5))
        assert [event for chunk in chunks for event in chunk] == list(trace)

    def test_writer_round_trips_through_reader(self, tmp_path):
        trace = sample_trace(9)
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, meta=trace.meta) as writer:
            for event in trace:
                writer.write(event)
        assert writer.events_written == 9
        with TraceReader(path) as reader:
            assert reader.meta == trace.meta
            assert list(reader.events()) == list(trace)

    def test_closed_reader_rejects_iteration(self):
        buffer = io.StringIO()
        dump(sample_trace(2), buffer)
        buffer.seek(0)
        reader = TraceReader(buffer)
        with pytest.raises(TraceError):
            reader.events()

