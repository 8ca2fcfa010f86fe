"""Columnar (struct-of-arrays) trace buffers for streaming analysis.

A :class:`~repro.trace.events.MemoryEvent` dataclass costs hundreds of
bytes and a attribute lookup per field; at the million-event scale the
GPU-lanes workloads produce, a list of them is both too big to hold and
too slow to walk.  This module stores the same trace as chunks of typed
arrays (:mod:`array`), one column per field:

* ``kinds`` — one byte per event, the :data:`KIND_CODES` code of its
  :class:`~repro.trace.events.EventKind` (the analyzer compares small
  ints, not enum members);
* ``threads``/``addrs``/``sizes``/``values`` — unsigned integers
  (``size`` never exceeds the 8-byte machine word, so ``values`` fits
  ``array('Q')``);
* ``flags`` — bit-packed ``persistent``/``sync``;
* ``infos`` — a *sparse* ``{local_index: str}`` mapping (almost every
  event carries an empty ``info``, so a dense string column would waste
  the memory the columns save).

Sequence numbers are implicit: chunk ``base_seq`` plus local index.
A :class:`~repro.trace.trace.Trace` is a list of these chunks, which
the simulated machine appends to directly: :meth:`ColumnarChunk.
append_raw` takes the column values themselves (kind code, packed
flags), the one append every writer of a chunk goes through.

When numpy is importable (:data:`HAVE_NUMPY`), :meth:`ColumnarChunk.
columns` exposes zero-copy ``ndarray`` views over the same buffers so
the streaming analyzer can vectorise run detection; everything else is
stdlib-only and behaves identically without it.

:func:`chunks_from_events` encodes a stream of event objects (a
:class:`~repro.trace.io.TraceReader`'s, or any iterable) into chunks
lazily.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, Tuple

from repro.errors import TraceError
from repro.trace.events import EventKind, MemoryEvent

try:  # pragma: no cover - exercised implicitly on numpy-equipped hosts
    import numpy as _np
except ImportError:  # pragma: no cover - stdlib-only environments
    _np = None

#: True when the optional numpy acceleration is available.
HAVE_NUMPY = _np is not None

#: Stable event-kind codes, in :class:`EventKind` declaration order.
#: The codes are part of the chunk contract: the analysis loop, which
#: every trace runs through, dispatches on them with an if-chain over
#: the ``CODE_*`` constants below.
KIND_CODES: Dict[EventKind, int] = {
    kind: code for code, kind in enumerate(EventKind)
}

#: Inverse mapping: code -> :class:`EventKind`.
KINDS_BY_CODE: Tuple[EventKind, ...] = tuple(EventKind)

# Hot-path code constants (module-level ints are cheaper to close over
# than dict lookups in the analyzer's inner loop).
CODE_LOAD = KIND_CODES[EventKind.LOAD]
CODE_STORE = KIND_CODES[EventKind.STORE]
CODE_RMW = KIND_CODES[EventKind.RMW]
CODE_PERSIST_BARRIER = KIND_CODES[EventKind.PERSIST_BARRIER]
CODE_NEW_STRAND = KIND_CODES[EventKind.NEW_STRAND]
CODE_FENCE = KIND_CODES[EventKind.FENCE]
CODE_SFENCE = KIND_CODES[EventKind.SFENCE]
CODE_CLFLUSH = KIND_CODES[EventKind.CLFLUSH]
CODE_CLFLUSH_OPT = KIND_CODES[EventKind.CLFLUSH_OPT]
CODE_CLWB = KIND_CODES[EventKind.CLWB]
CODE_MARK = KIND_CODES[EventKind.MARK]

#: ``flags`` column bits.
FLAG_PERSISTENT = 1
FLAG_SYNC = 2


def pack_flags(persistent: bool, sync: bool) -> int:
    """The ``flags`` column value of an event."""
    return (FLAG_PERSISTENT if persistent else 0) | (FLAG_SYNC if sync else 0)


#: The typed-array columns of a chunk, one per field.
_COLUMNS = ("kinds", "threads", "addrs", "sizes", "values", "flags")

#: Default events per chunk: big enough to amortise per-chunk overhead,
#: small enough that a chunk and the per-column lists the analyzer
#: builds from it (a few hundred KB) stay cache-friendly and add little
#: to peak memory.  Traces and event-fed analyses chunk at this size.
DEFAULT_CHUNK_EVENTS = 1 << 12


class ColumnarChunk:
    """One contiguous run of trace events in struct-of-arrays form."""

    __slots__ = (
        "base_seq",
        "kinds",
        "threads",
        "addrs",
        "sizes",
        "values",
        "flags",
        "infos",
    )

    def __init__(self, base_seq: int = 0) -> None:
        self.base_seq = base_seq
        self.kinds = array("B")
        self.threads = array("I")
        self.addrs = array("Q")
        self.sizes = array("B")
        self.values = array("Q")
        self.flags = array("B")
        #: Sparse local-index -> info string (empty infos are omitted).
        self.infos: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def end_seq(self) -> int:
        """Sequence number one past this chunk's last event."""
        return self.base_seq + len(self.kinds)

    def append_raw(
        self,
        code: int,
        thread: int,
        addr: int = 0,
        size: int = 0,
        value: int = 0,
        flags: int = 0,
        info: str = "",
    ) -> None:
        """Append one event from its column values: the :data:`KIND_CODES`
        ``code`` of its kind and its packed ``flags`` (:func:`pack_flags`).
        No event object is built.

        Callers own the validity of the fields (the simulated machine
        already validated its operations); reconstructing the event via
        :meth:`event` re-runs full :class:`MemoryEvent` validation.
        """
        if info:
            self.infos[len(self.kinds)] = info
        self.kinds.append(code)
        self.threads.append(thread)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.values.append(value)
        self.flags.append(flags)

    def append_event(self, event: MemoryEvent) -> None:
        """Append an already-built event, all or nothing: a field that
        does not fit its column (a negative or over-wide ``value``, a
        ``thread`` of 2**32 or more) raises :class:`TraceError` naming the
        event and leaves the chunk as it was."""
        length = len(self.kinds)
        try:
            self.append_raw(
                KIND_CODES[event.kind], event.thread, event.addr,
                event.size, event.value,
                pack_flags(event.persistent, event.sync), event.info,
            )
        except (OverflowError, TypeError) as exc:
            self.truncate(length)
            raise TraceError(
                f"event seq {event.seq} does not fit a columnar chunk: {exc}"
            ) from exc

    def truncate(self, length: int) -> None:
        """Drop every event at local index ``length`` and beyond (a live
        :meth:`columns` view makes this raise :class:`BufferError`)."""
        for name in _COLUMNS:
            del getattr(self, name)[length:]
        # Infos are keyed in append order, so the dropped ones are last.
        infos = self.infos
        while infos and next(reversed(infos)) >= length:
            infos.popitem()

    def suffix(self, start: int) -> "ColumnarChunk":
        """A copy of the events from local index ``start`` on."""
        chunk = ColumnarChunk(self.base_seq + start)
        for name in _COLUMNS:
            setattr(chunk, name, getattr(self, name)[start:])
        infos = self.infos.items()
        chunk.infos = {i - start: text for i, text in infos if i >= start}
        return chunk

    def marks(self) -> Iterator[Tuple[int, str]]:
        """``(local index, info)`` of each MARK with an info; reads infos."""
        kinds = self.kinds
        for index, info in self.infos.items():
            if kinds[index] == CODE_MARK:
                yield index, info

    def row(self, index: int) -> tuple:
        """The fields of the event at local ``index`` in
        :class:`MemoryEvent` order (``seq, thread, kind, addr, size,
        value, persistent, sync, info``), without building the event."""
        flags = self.flags[index]
        return (
            self.base_seq + index, self.threads[index],
            KINDS_BY_CODE[self.kinds[index]], self.addrs[index],
            self.sizes[index], self.values[index],
            bool(flags & FLAG_PERSISTENT), bool(flags & FLAG_SYNC),
            self.infos.get(index, ""),
        )

    def rows(self) -> Iterator[tuple]:
        """:meth:`row` of every event, in order."""
        return map(self.row, range(len(self.kinds)))

    def event(self, index: int) -> MemoryEvent:
        """Materialise the event at local ``index`` (validated)."""
        return MemoryEvent(*self.row(index))

    def __iter__(self) -> Iterator[MemoryEvent]:
        return map(self.event, range(len(self.kinds)))

    def columns(self):
        """Zero-copy numpy views ``(kinds, threads, addrs, sizes, values,
        flags)`` over the chunk's buffers, or ``None`` without numpy.

        The views alias the live arrays: treat them as read-only and do
        not hold them across a mutation of the chunk.
        """
        if _np is None:
            return None
        return (
            _np.frombuffer(self.kinds, dtype=_np.uint8),
            _np.frombuffer(self.threads, dtype=_np.uint32),
            _np.frombuffer(self.addrs, dtype=_np.uint64),
            _np.frombuffer(self.sizes, dtype=_np.uint8),
            _np.frombuffer(self.values, dtype=_np.uint64),
            _np.frombuffer(self.flags, dtype=_np.uint8),
        )


def chunks_from_events(
    events: Iterable[MemoryEvent],
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    base_seq: int = 0,
) -> Iterator[ColumnarChunk]:
    """Encode an event stream into columnar chunks, lazily.

    Consumes ``events`` incrementally — at most one chunk is held at a
    time, so arbitrarily long streams encode in bounded memory.  Sequence
    numbers are implicit in chunks, so the stream must be dense from
    ``base_seq``; a gap or reordering raises :class:`TraceError`, as
    :meth:`Trace.append <repro.trace.trace.Trace.append>` does, and so
    does a field that does not fit its column (:meth:`append_event
    <ColumnarChunk.append_event>`).
    """
    if chunk_events <= 0:
        raise TraceError(f"chunk_events must be positive, got {chunk_events}")
    chunk = ColumnarChunk(base_seq)
    for event in events:
        if event.seq != chunk.end_seq:
            raise TraceError(
                f"event seq {event.seq} out of order; expected {chunk.end_seq}"
            )
        chunk.append_event(event)
        if len(chunk) >= chunk_events:
            yield chunk
            chunk = ColumnarChunk(chunk.end_seq)
    if len(chunk):
        yield chunk
