"""Trace container and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import TraceError
from repro.trace.columnar import (
    DEFAULT_CHUNK_EVENTS,
    ColumnarChunk,
    chunks_from_events,
)
from repro.trace.events import EventKind, MemoryEvent


@dataclass
class TraceStats:
    """Aggregate statistics over a trace."""

    events: int
    accesses: int
    loads: int
    stores: int
    rmws: int
    persists: int
    persist_barriers: int
    new_strands: int
    threads: int
    marks: Dict[str, int]

    @property
    def volatile_accesses(self) -> int:
        """Accesses that are not persists (loads plus volatile stores)."""
        return self.accesses - self.persists


class Trace:
    """An append-only sequence of memory events in SC order.

    The events live in :attr:`chunks` of
    :data:`~repro.trace.columnar.DEFAULT_CHUNK_EVENTS` each (all full
    but the last).  The machine appends raw fields (:meth:`append_raw`);
    a validated :class:`MemoryEvent` is built only on indexing or
    iteration.

    Also carries free-form ``meta`` describing how the trace was produced
    (program, thread count, scheduler seed, ...), which the harness uses
    to label results.
    """

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        #: The columnar chunks, in order (treat as read-only).
        self.chunks: List[ColumnarChunk] = [ColumnarChunk(0)]
        self.meta: Dict[str, object] = dict(meta or {})

    def __len__(self) -> int:
        return self.chunks[-1].end_seq

    def __iter__(self) -> Iterator[MemoryEvent]:
        for chunk in self.chunks:
            yield from chunk

    def rows(self) -> Iterator[tuple]:
        """:meth:`ColumnarChunk.row` of every event, in order."""
        for chunk in self.chunks:
            yield from chunk.rows()

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[MemoryEvent, List[MemoryEvent]]:
        seqs = range(len(self))[index]  # IndexError when out of range
        if isinstance(index, slice):
            return [self[seq] for seq in seqs]
        chunk, local = divmod(seqs, DEFAULT_CHUNK_EVENTS)
        return self.chunks[chunk].event(local)

    def append_raw(self, *fields) -> None:
        """Append the next event from :meth:`ColumnarChunk.append_raw`
        column values (``code, thread, addr, size, value, flags, info``)
        the caller already checked."""
        chunk = self.chunks[-1]
        if len(chunk.kinds) == DEFAULT_CHUNK_EVENTS:
            chunk = ColumnarChunk(chunk.end_seq)
            self.chunks.append(chunk)
        chunk.append_raw(*fields)

    def append(self, event: MemoryEvent) -> None:
        """Append an event, enforcing dense ascending sequence numbers;
        all or nothing, like :meth:`ColumnarChunk.append_event`."""
        tail = self.chunks[-1]
        if event.seq != tail.end_seq:
            raise TraceError(
                f"event seq {event.seq} out of order; expected {tail.end_seq}"
            )
        if len(tail.kinds) == DEFAULT_CHUNK_EVENTS:
            tail = ColumnarChunk(event.seq)
            tail.append_event(event)
            self.chunks.append(tail)
        else:
            tail.append_event(event)

    def extend(self, events: Iterable[MemoryEvent]) -> None:
        """Append many events in order."""
        for event in events:
            self.append(event)

    def truncate(self, length: int) -> None:
        """Discard every event at sequence ``length`` and beyond.

        Used by snapshot/restore replay: rewinding a machine to an
        earlier step must also rewind its trace so re-executed steps
        append with the correct (dense, ascending) sequence numbers.
        """
        if length < 0 or length > len(self):
            raise TraceError(
                f"cannot truncate to {length}; trace has {len(self)} events"
            )
        del self.chunks[max(1, -(-length // DEFAULT_CHUNK_EVENTS)):]
        last = self.chunks[-1]
        last.truncate(length - last.base_seq)

    def chunks_from(self, start: int) -> Iterator[ColumnarChunk]:
        """The events from sequence ``start`` on, as chunks: the chunk
        holding ``start`` is copied from there, later ones are shared."""
        for chunk in self.chunks[start // DEFAULT_CHUNK_EVENTS:]:
            if chunk.base_seq < start:
                chunk = chunk.suffix(start - chunk.base_seq)
            yield chunk

    def thread_ids(self) -> List[int]:
        """Sorted list of thread ids appearing in the trace."""
        return sorted(set().union(*(chunk.threads for chunk in self.chunks)))

    def events_for_thread(self, thread: int) -> List[MemoryEvent]:
        """All events issued by one thread, in program order."""
        return [MemoryEvent(*row) for row in self.rows() if row[1] == thread]

    def count_marks(self, info: str) -> int:
        """Number of MARK events carrying exactly ``info``."""
        if not info:
            return self.stats().marks.get("", 0)
        return sum(
            text == info for chunk in self.chunks for _, text in chunk.marks()
        )

    def stats(self) -> TraceStats:
        """Compute aggregate statistics in one pass over the rows."""
        kinds = dict.fromkeys(EventKind, 0)
        persists = 0
        marks: Dict[str, int] = {}
        threads = set()
        for _, thread, kind, _, _, _, persistent, _, info in self.rows():
            threads.add(thread)
            kinds[kind] += 1
            if kind is EventKind.MARK:
                marks[info] = marks.get(info, 0) + 1
            elif persistent and kind in (EventKind.STORE, EventKind.RMW):
                persists += 1
        loads = kinds[EventKind.LOAD]
        stores = kinds[EventKind.STORE]
        rmws = kinds[EventKind.RMW]
        return TraceStats(
            events=len(self),
            accesses=loads + stores + rmws,
            loads=loads,
            stores=stores,
            rmws=rmws,
            persists=persists,
            persist_barriers=kinds[EventKind.PERSIST_BARRIER],
            new_strands=kinds[EventKind.NEW_STRAND],
            threads=len(threads),
            marks=marks,
        )


def as_chunks(source, base_seq: int = 0) -> Iterable[ColumnarChunk]:
    """The chunks of a chunk, a :class:`Trace` (whose seqs start at 0)
    or an event iterable (encoded lazily), continuing the stream at
    ``base_seq``; a source that does not raises :class:`TraceError`."""
    if isinstance(source, ColumnarChunk):
        return (source,)
    if isinstance(source, Trace):
        if base_seq and len(source):
            raise TraceError(f"event seq 0 out of order; expected {base_seq}")
        return source.chunks
    return chunks_from_events(source, DEFAULT_CHUNK_EVENTS, base_seq)
