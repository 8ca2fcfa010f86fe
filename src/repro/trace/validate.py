"""Trace validation.

The paper's tracer guarantees the recorded order is a legal SC execution
("our trace observes SC", Section 7).  :func:`validate_sc_values` checks
the analogous property here: replaying stores in trace order, every load
must observe exactly the bytes most recently stored to its location.
:func:`validate_structure` checks bookkeeping invariants (thread lifetime
markers, annotation shapes).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import TraceError
from repro.trace.events import EventKind
from repro.trace.trace import Trace


def validate_sc_values(trace: Trace) -> None:
    """Check load values against a byte-level replay of stores.

    Bytes never stored in the trace are unconstrained (their initial
    values are not recorded), so loads touching them are not checked on
    those bytes.

    Raises:
        TraceError: on the first load that observes a stale or impossible
            value.
    """
    shadow: Dict[int, int] = {}
    for seq, _, kind, addr, size, value, _, _, info in trace.rows():
        # RMW events record the value *written*; their observed value is
        # not in the trace, so only pure loads are checked against replay.
        # TSO store-buffer forwards ("sb-forward": every byte from the
        # issuing thread's buffer; "sb-mixed": some bytes forwarded, the
        # rest from memory) observe not-yet-visible stores and
        # legitimately disagree with the memory-order replay.
        if kind is EventKind.LOAD and not info.startswith("sb-"):
            expected = 0
            known_all = True
            for offset in range(size):
                byte = shadow.get(addr + offset)
                if byte is None:
                    known_all = False
                    break
                expected |= byte << (8 * offset)
            if known_all and value != expected:
                raise TraceError(
                    f"event {seq}: load at {addr:#x} observed "
                    f"{value:#x}, expected {expected:#x} from replay"
                )
        if kind is EventKind.STORE or kind is EventKind.RMW:
            for offset, byte in enumerate(value.to_bytes(size, "little")):
                shadow[addr + offset] = byte


def validate_structure(trace: Trace) -> None:
    """Check thread lifetime markers and per-thread event placement.

    Raises:
        TraceError: if a thread issues events before its THREAD_BEGIN or
            after its THREAD_END, or begins/ends more than once.
    """
    begun: Set[int] = set()
    ended: Set[int] = set()
    for seq, thread, kind, *_ in trace.rows():
        if kind is EventKind.THREAD_BEGIN:
            if thread in begun:
                raise TraceError(f"event {seq}: thread {thread} began twice")
            begun.add(thread)
        elif kind is EventKind.THREAD_END:
            if thread not in begun:
                raise TraceError(
                    f"event {seq}: thread {thread} ended without beginning"
                )
            if thread in ended:
                raise TraceError(f"event {seq}: thread {thread} ended twice")
            ended.add(thread)
        else:
            if begun and thread not in begun:
                raise TraceError(
                    f"event {seq}: thread {thread} issued {kind.value} "
                    f"before THREAD_BEGIN"
                )
            if thread in ended:
                raise TraceError(
                    f"event {seq}: thread {thread} issued {kind.value} "
                    f"after THREAD_END"
                )


def validate(trace: Trace) -> None:
    """Run all validators."""
    validate_structure(trace)
    validate_sc_values(trace)
