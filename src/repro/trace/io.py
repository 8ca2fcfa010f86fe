"""Trace serialization: JSON-lines with a meta header record.

The format is line-oriented so traces can be streamed and diffed.  The
first line is ``{"meta": {...}}``; every following line is one event with
defaulted fields omitted.

Two access styles share the format:

* batch — :func:`load`/:func:`dump` and the ``*_file`` wrappers build or
  walk a full in-memory :class:`Trace`;
* streaming — :class:`TraceReader`/:class:`TraceWriter` move one event
  (or one columnar chunk) at a time, so million-event traces can be
  written and re-analyzed without ever materializing the event list.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path
from typing import IO, Iterator, Optional, Union

from repro.errors import TraceError
from repro.trace.columnar import (
    DEFAULT_CHUNK_EVENTS,
    ColumnarChunk,
    chunks_from_events,
)
from repro.trace.events import OPTIONAL_FIELDS, EventKind, MemoryEvent
from repro.trace.trace import Trace

_PathLike = Union[str, Path]

#: Thread ids must fit the columnar ``threads`` column (``array('I')``).
_THREAD_LIMIT = 1 << 32


def _record(seq: int, thread: int, kind: EventKind, *optional) -> dict:
    """The JSON dict of one event's fields, defaults left out."""
    record: dict = {"seq": seq, "thread": thread, "kind": kind.value}
    for (name, default), value in zip(OPTIONAL_FIELDS, optional):
        if value != default:
            record[name] = value
    return record


def event_to_record(event: MemoryEvent) -> dict:
    """Convert an event to a compact JSON-serializable dict."""
    return _record(*astuple(event))


def event_from_record(record: dict) -> MemoryEvent:
    """Rebuild an event from its JSON dict.

    Besides the :class:`MemoryEvent` checks, the fields must fit the
    columnar encoding every analysis runs on: an access's ``value`` lies
    in ``0 <= value < 2**(8*size)``, a non-access carries no value, and
    ``thread`` is below ``2**32``.
    """
    try:
        kind = EventKind(record["kind"])
        fields = {name: record.get(name, default) for name, default in OPTIONAL_FIELDS}
        event = MemoryEvent(
            seq=record["seq"], thread=record["thread"], kind=kind, **fields
        )
        if event.thread >= _THREAD_LIMIT:
            raise ValueError(f"thread id {event.thread} is not below 2**32")
        if event.is_access:
            if not 0 <= event.value < 1 << (8 * event.size):
                raise ValueError(
                    f"value {event.value} does not fit {event.size} bytes"
                )
        elif event.value:
            raise ValueError(f"{kind.value} event must not carry a value")
        return event
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed event record {record!r}: {exc}") from exc


def dump(trace: Trace, stream: IO[str]) -> None:
    """Write a trace to an open text stream."""
    with TraceWriter(stream, meta=trace.meta) as writer:
        for chunk in trace.chunks:
            writer.write_chunk(chunk)


def read_meta(stream: IO[str]) -> dict:
    """Consume and validate the ``{"meta": ...}`` header line."""
    header = stream.readline()
    if not header:
        raise TraceError("empty trace stream")
    try:
        header_record = json.loads(header)
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed trace header: {exc}") from exc
    if not isinstance(header_record, dict) or "meta" not in header_record:
        raise TraceError(
            f"malformed trace header: expected a {{'meta': ...}} object, "
            f"got {header_record!r}"
        )
    meta = header_record["meta"]
    if not isinstance(meta, dict):
        raise TraceError(
            f"malformed trace header: 'meta' must be an object, got {meta!r}"
        )
    return meta


def iter_events(stream: IO[str]) -> Iterator[MemoryEvent]:
    """Yield events from a stream positioned just past the header."""
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"malformed trace line: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceError(
                f"malformed trace line: expected an event object, got {record!r}"
            )
        yield event_from_record(record)


def load(stream: IO[str]) -> Trace:
    """Read a trace from an open text stream."""
    trace = Trace(meta=read_meta(stream))
    for event in iter_events(stream):
        trace.append(event)
    return trace


class TraceReader:
    """Stream a serialized trace without materializing the event list.

    Context manager over a path (or an already-open text stream); the
    ``meta`` header is parsed on entry, after which exactly one of
    :meth:`events` or :meth:`chunks` may walk the remaining lines.

    ::

        with TraceReader(path) as reader:
            analyzer = StreamingAnalyzer(model, config)
            for chunk in reader.chunks():
                analyzer.feed(chunk)
        result = analyzer.finish()
    """

    def __init__(self, source: Union[_PathLike, IO[str]]) -> None:
        self._owns_stream = isinstance(source, (str, Path))
        self._source = source
        self._stream: Optional[IO[str]] = None
        self.meta: dict = {}

    def __enter__(self) -> "TraceReader":
        if self._owns_stream:
            self._stream = open(self._source, "r", encoding="utf-8")
        else:
            self._stream = self._source
        try:
            self.meta = read_meta(self._stream)
        except Exception:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    def events(self) -> Iterator[MemoryEvent]:
        """Iterate the remaining events one at a time."""
        if self._stream is None:
            raise TraceError("TraceReader is not open")
        return iter_events(self._stream)

    def chunks(self, chunk_events: Optional[int] = None):
        """Iterate the remaining events as :class:`ColumnarChunk` batches."""
        return chunks_from_events(
            self.events(), chunk_events or DEFAULT_CHUNK_EVENTS
        )


class TraceWriter:
    """Stream events out to the JSONL format, one line at a time.

    The header is written on entry; events are appended as they arrive,
    so the writer's memory use is O(1) in trace length.
    """

    def __init__(
        self,
        target: Union[_PathLike, IO[str]],
        meta: Optional[dict] = None,
    ) -> None:
        self._owns_stream = isinstance(target, (str, Path))
        self._target = target
        self._stream: Optional[IO[str]] = None
        self.meta = dict(meta or {})
        self.events_written = 0

    def __enter__(self) -> "TraceWriter":
        if self._owns_stream:
            self._stream = open(self._target, "w", encoding="utf-8")
        else:
            self._stream = self._target
        self._stream.write(json.dumps({"meta": self.meta}) + "\n")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying stream if this writer opened it."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    def write(self, event: MemoryEvent) -> None:
        """Append one event line."""
        if self._stream is None:
            raise TraceError("TraceWriter is not open")
        self._stream.write(json.dumps(event_to_record(event)) + "\n")
        self.events_written += 1

    def write_chunk(self, chunk: ColumnarChunk) -> None:
        """Append one line per event of a columnar chunk."""
        if self._stream is None:
            raise TraceError("TraceWriter is not open")
        for row in chunk.rows():
            self._stream.write(json.dumps(_record(*row)) + "\n")
        self.events_written += len(chunk)


def save_file(trace: Trace, path: _PathLike) -> None:
    """Write a trace to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        dump(trace, stream)


def load_file(path: _PathLike) -> Trace:
    """Read a trace from ``path``."""
    with open(path, "r", encoding="utf-8") as stream:
        return load(stream)
