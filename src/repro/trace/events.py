"""Trace event records.

A trace is the sequentially consistent total order of memory events
observed while running a simulated program — the analogue of the paper's
PIN-generated memory traces with analysis atomicity (Section 7).  Every
event carries the issuing thread, and stores/RMWs carry the value written
so that recovery can replay persists onto an NVRAM image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.memory import layout


class EventKind(enum.Enum):
    """Kinds of trace events."""

    LOAD = "load"
    STORE = "store"
    #: Atomic read-modify-write (successful CAS, swap, fetch-add).  Acts as
    #: both a load and a store for conflict-ordering purposes.
    RMW = "rmw"
    #: Persist barrier (paper: ``PERSISTBARRIER``); epoch/strand models only.
    PERSIST_BARRIER = "persist_barrier"
    #: Strand barrier (paper: ``NEWSTRAND``); strand model only.
    NEW_STRAND = "new_strand"
    #: Persist sync (paper Section 4.1): execution waits until all of the
    #: thread's prior persists are durable.  Orders persists against
    #: *visible side effects*, not against other persists, so the
    #: ordering analyzers ignore it; the buffered timing models charge
    #: its stall.
    PERSIST_SYNC = "persist_sync"
    #: Memory (consistency) fence: drains the issuing thread's store
    #: buffer on a TSO machine.  Distinct from PERSIST_BARRIER — the
    #: paper's relaxed persistency separates consistency barriers from
    #: persistency barriers.  No-op under SC; an MFENCE also acts as an
    #: SFENCE for the Px86 analyzers (it commits weak flushes).
    FENCE = "fence"
    #: x86 ``clflush``: evict the cache line covering ``addr`` and write
    #: it back to memory.  Strongly ordered against stores and other
    #: clflushes to the same line; the Px86 analyzers treat its persist
    #: effect as taking place at its memory-order point.
    CLFLUSH = "clflush"
    #: x86 ``clflushopt``: weakly ordered flush.  Its persist effect is
    #: deferred until the next SFENCE/MFENCE/RMW on the issuing thread.
    CLFLUSH_OPT = "clflushopt"
    #: x86 ``clwb``: write back without evicting.  Same ordering as
    #: ``clflushopt`` for persist analysis (the eviction difference is a
    #: performance distinction, not an ordering one).
    CLWB = "clwb"
    #: x86 ``sfence``: commits the thread's outstanding weak flushes
    #: (clflushopt/clwb) so later persists are ordered after them.  Does
    #: not drain the TSO store buffer — store-to-store order is already
    #: guaranteed under TSO, so SFENCE has no visibility effect here.
    SFENCE = "sfence"
    #: Heap management markers; no ordering effect.
    MALLOC = "malloc"
    FREE = "free"
    #: Thread lifetime markers.
    THREAD_BEGIN = "thread_begin"
    THREAD_END = "thread_end"
    #: Free-form annotation (e.g. ``insert:end``) used by the harness to
    #: attribute events to logical operations.  No ordering effect.
    MARK = "mark"


#: Kinds that read memory.
_LOAD_LIKE = frozenset({EventKind.LOAD, EventKind.RMW})
#: Kinds that write memory.
STORE_KINDS = frozenset({EventKind.STORE, EventKind.RMW})
#: Kinds that reference an address range (the accesses).
ACCESS_KINDS = frozenset({EventKind.LOAD, EventKind.STORE, EventKind.RMW})
#: Cache-line flush kinds (Px86 family).  They carry an address range —
#: the flushed line — but are not accesses: they neither read nor write
#: program-visible data.
FLUSH_KINDS = frozenset(
    {EventKind.CLFLUSH, EventKind.CLFLUSH_OPT, EventKind.CLWB}
)


@dataclass(frozen=True)
class MemoryEvent:
    """One event in the sequentially consistent trace order.

    Attributes:
        seq: position in the global SC total order (dense from zero).
        thread: issuing simulated thread id.
        kind: event kind.
        addr: accessed address (accesses only; 0 otherwise).
        size: access size in bytes (accesses only; 0 otherwise).
        value: value written for store-like events, value observed for
            loads; 0 for non-accesses.
        persistent: True when ``addr`` lies in the persistent address
            space (accesses only).
        sync: True for synchronization accesses (lock words, hand-off
            flags); used by happens-before race detection only.
        info: free-form annotation for MARK/MALLOC/FREE events.
    """

    seq: int
    thread: int
    kind: EventKind
    addr: int = 0
    size: int = 0
    value: int = 0
    persistent: bool = False
    sync: bool = False
    info: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise TraceError(f"negative seq {self.seq}")
        if self.thread < 0:
            raise TraceError(f"negative thread id {self.thread}")
        if self.is_access or self.is_flush:
            layout.validate_access(self.addr, self.size)
        elif self.addr or self.size:
            raise TraceError(
                f"{self.kind.value} event must not carry an address range"
            )

    @property
    def is_access(self) -> bool:
        """True for events that reference memory (load/store/RMW)."""
        return self.kind in ACCESS_KINDS

    @property
    def is_flush(self) -> bool:
        """True for cache-line flush events (clflush/clflushopt/clwb)."""
        return self.kind in FLUSH_KINDS

    @property
    def is_load_like(self) -> bool:
        """True for events that read memory (load/RMW)."""
        return self.kind in _LOAD_LIKE

    @property
    def is_store_like(self) -> bool:
        """True for events that write memory (store/RMW)."""
        return self.kind in STORE_KINDS

    @property
    def is_persist(self) -> bool:
        """True for store-like events to the persistent address space.

        These are exactly the events that generate persists (the paper's
        distinction between a *store* and its *persist*).
        """
        return self.is_store_like and self.persistent

    def data_bytes(self) -> bytes:
        """Little-endian bytes written by a store-like event."""
        if not self.is_store_like:
            raise TraceError(f"{self.kind.value} event writes no data")
        return self.value.to_bytes(self.size, "little")


def make_access(
    seq: int,
    thread: int,
    kind: EventKind,
    addr: int,
    size: int,
    value: int,
    persistent: bool,
    sync: bool = False,
) -> MemoryEvent:
    """Convenience constructor for access events."""
    return MemoryEvent(
        seq=seq,
        thread=thread,
        kind=kind,
        addr=addr,
        size=size,
        value=value,
        persistent=persistent,
        sync=sync,
    )


def make_marker(
    seq: int, thread: int, kind: EventKind, info: str = ""
) -> MemoryEvent:
    """Convenience constructor for non-access events."""
    if kind in ACCESS_KINDS:
        raise TraceError(f"{kind.value} is an access kind")
    return MemoryEvent(seq=seq, thread=thread, kind=kind, info=info)


#: Optional event fields and defaults used by trace serialization.
OPTIONAL_FIELDS = (
    ("addr", 0),
    ("size", 0),
    ("value", 0),
    ("persistent", False),
    ("sync", False),
    ("info", ""),
)
