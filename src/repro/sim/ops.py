"""Operation requests yielded by simulated threads to the machine.

Simulated thread bodies are Python generators.  Each memory operation is
requested by yielding one of these records (via the
:class:`~repro.sim.context.ThreadContext` helpers); the machine executes
the request atomically, appends the corresponding trace event, and sends
the result back into the generator.  One yielded request = one step of
the sequentially consistent interleaving, which reproduces the paper's
analysis atomicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.memory import layout


@dataclass(frozen=True)
class Load:
    """Read ``size`` bytes at ``addr``; result is the observed value.

    ``sync`` marks the access as a synchronization operation (e.g. a lock
    word) for happens-before race detection; it has no effect on
    execution or persist ordering.
    """

    addr: int
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class Store:
    """Write ``value`` (``size`` bytes) at ``addr``; result is None."""

    addr: int
    value: int
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class CompareAndSwap:
    """Atomic CAS; result is ``(succeeded, observed_value)``.

    A failed CAS performs only the load (and is traced as a LOAD); a
    successful CAS is traced as an RMW.
    """

    addr: int
    expected: int
    new: int
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class Swap:
    """Atomic exchange; result is the previous value.  Traced as RMW."""

    addr: int
    new: int
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class FetchAdd:
    """Atomic fetch-and-add (wrapping at ``size`` bytes); result is the
    previous value.  Traced as RMW."""

    addr: int
    delta: int
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class WaitUntil:
    """Block until ``predicate(value_at_addr)`` holds; result is the value.

    The machine traces the initial failed check and the final successful
    check as LOAD events (test-then-block, like a futex wait); the thread
    consumes no scheduling steps while blocked.  This keeps traces free of
    unbounded spin loops while still emitting the conflicting load that
    orders the waiter after the releasing store.  ``predicate`` must be
    pure: the machine re-evaluates a blocked wait only when a store
    writes its word.
    """

    addr: int
    predicate: Callable[[int], bool]
    size: int = layout.WORD_SIZE
    sync: bool = False


@dataclass(frozen=True)
class PersistBarrier:
    """The paper's ``PERSISTBARRIER`` annotation; result is None."""


@dataclass(frozen=True)
class NewStrand:
    """The paper's ``NEWSTRAND`` annotation; result is None."""


@dataclass(frozen=True)
class PersistSync:
    """The paper's persist sync (Section 4.1); result is None.

    Semantically: execution does not proceed (and so no later visible
    side effect happens) until the thread's prior persists are durable.
    The simulated machine records it as an annotation; timing models
    charge the stall.
    """


@dataclass(frozen=True)
class Fence:
    """Memory (consistency) fence; result is None.

    On a TSO machine, drains the issuing thread's store buffer before
    execution continues.  A no-op under SC.  Note this is a *store
    visibility* fence, not a persist barrier — the paper's relaxed
    persistency keeps the two separate.
    """


@dataclass(frozen=True)
class ClFlush:
    """x86 ``clflush``: write the cache line(s) covering ``[addr,
    addr+size)`` back to memory; result is None.

    Strongly ordered: on a TSO machine it travels through the store
    buffer behind earlier stores, and later stores stay behind it.  The
    Px86 analyzers treat its persist effect as synchronous — it takes
    place where the flush appears in memory order.
    """

    addr: int
    size: int = layout.WORD_SIZE


@dataclass(frozen=True)
class ClFlushOpt:
    """x86 ``clflushopt``: weakly ordered cache-line write-back; result
    is None.

    Same buffering behaviour as :class:`ClFlush` on the simulated
    machine, but the Px86 analyzer defers its persist-ordering effect
    until the thread's next SFENCE/MFENCE/RMW (the DPOx86 simplification
    ignores the deferral and treats it like ``clflush``).
    """

    addr: int
    size: int = layout.WORD_SIZE


@dataclass(frozen=True)
class Clwb:
    """x86 ``clwb``: write back without evicting; result is None.

    Ordering-equivalent to :class:`ClFlushOpt` for persist analysis.
    """

    addr: int
    size: int = layout.WORD_SIZE


@dataclass(frozen=True)
class SFence:
    """x86 ``sfence``; result is None.

    Commits the thread's outstanding weak flushes (clflushopt/clwb) so
    later persists are ordered after them.  Does *not* drain the TSO
    store buffer: under TSO store-to-store order already holds, so
    sfence has no store-visibility effect — use :class:`Fence` (mfence)
    to forbid store-buffering outcomes.
    """


@dataclass(frozen=True)
class Mark:
    """Free-form trace annotation (e.g. ``insert:end``); result is None."""

    info: str


@dataclass(frozen=True)
class Malloc:
    """Allocate from the persistent or volatile heap; result is the address."""

    size: int
    persistent: bool


@dataclass(frozen=True)
class Free:
    """Release a heap allocation; result is None."""

    addr: int
    persistent: bool
