"""Shared helpers for building hand-written traces in core tests."""

from repro.trace import FLUSH_KINDS, EventKind, MemoryEvent, Trace

#: Persistent and volatile scratch bases (match the machine's layout).
P = 0x8000_0000
V = 0x1000_0000

S = EventKind.STORE
L = EventKind.LOAD
R = EventKind.RMW
B = EventKind.PERSIST_BARRIER
NS = EventKind.NEW_STRAND


def build(events):
    """Build a trace from a compact spec list.

    Each element is ``(thread, kind)`` for annotations,
    ``(thread, kind, addr)`` for cache-line flushes, or
    ``(thread, kind, addr, value[, sync[, info]])`` for 8-byte accesses;
    the persistent flag of an access derives from the address.
    """
    trace = Trace()
    for seq, spec in enumerate(events):
        thread, kind = spec[0], spec[1]
        if kind in (S, L, R):
            addr, value = spec[2], spec[3]
            sync = spec[4] if len(spec) > 4 else False
            info = spec[5] if len(spec) > 5 else ""
            trace.append(
                MemoryEvent(
                    seq=seq,
                    thread=thread,
                    kind=kind,
                    addr=addr,
                    size=8,
                    value=value,
                    persistent=addr >= P,
                    sync=sync,
                    info=info,
                )
            )
        elif kind in FLUSH_KINDS:
            trace.append(
                MemoryEvent(
                    seq=seq, thread=thread, kind=kind, addr=spec[2], size=8
                )
            )
        else:
            trace.append(MemoryEvent(seq=seq, thread=thread, kind=kind))
    return trace
