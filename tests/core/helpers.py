"""Shared helpers for building hand-written traces in core tests."""

import hashlib
from itertools import combinations

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


#: Largest DAG the subset oracles below enumerate (2**12 subsets).
ORACLE_MAX_PERSISTS = 12


def all_subsets(graph):
    """Every subset of the graph's persist ids, as frozensets."""
    count = len(graph.nodes)
    assert count <= ORACLE_MAX_PERSISTS, count
    for size in range(count + 1):
        for members in combinations(range(count), size):
            yield frozenset(members)


def consistent_cuts_by_definition(graph):
    """The consistent cuts of a small DAG, straight from the definition.

    A cut is a set of persists holding every member's dependencies
    (``node.deps``).  Testing every subset shares no enumeration order,
    closure or mask with :mod:`repro.core.recovery`.
    """
    nodes = graph.nodes
    return {
        cut
        for cut in all_subsets(graph)
        if all(nodes[pid].deps <= cut for pid in cut)
    }


def overlay_by_definition(graph, cut):
    """``{address: byte}`` after applying ``cut``'s writes in pid order."""
    overlay = {}
    for pid in sorted(cut):
        for addr, data in graph.nodes[pid].writes:
            for offset, byte in enumerate(data):
                overlay[addr + offset] = byte
    return overlay


def content_key_by_definition(graph, cut):
    """sha256 over (8-byte address, byte) pairs of the overlay, by address."""
    overlay = overlay_by_definition(graph, cut)
    digest = hashlib.sha256()
    for addr in sorted(overlay):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(bytes((overlay[addr],)))
    return digest.hexdigest()
