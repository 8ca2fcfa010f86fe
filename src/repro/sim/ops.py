"""Operation requests yielded by simulated threads to the machine.

Simulated thread bodies are Python generators.  Each memory operation is
requested by yielding one of these records (via the
:class:`~repro.sim.context.ThreadContext` helpers); the machine executes
the request atomically, appends the corresponding trace event, and sends
the result back into the generator.  One yielded request = one step of
the sequentially consistent interleaving, which reproduces the paper's
analysis atomicity.

The records are plain slotted classes, one built per simulated access,
so their constructors are as cheap as Python allows.  They compare,
hash and print by their fields in declaration order, like frozen
dataclasses; fields are never reassigned after construction (nothing
enforces it).  A field-less record is one shared instance
(:data:`PERSIST_BARRIER`, :data:`NEW_STRAND`, ...).
"""

from __future__ import annotations

from typing import Callable

from repro.memory import layout


class _Op:
    """Equality, hashing and repr by the ``__slots__`` fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"


class Load(_Op):
    """Read ``size`` bytes at ``addr``; result is the observed value.

    ``sync`` marks the access as a synchronization operation (e.g. a lock
    word) for happens-before race detection; it has no effect on
    execution or persist ordering.
    """

    __slots__ = ("addr", "size", "sync")

    def __init__(
        self, addr: int, size: int = layout.WORD_SIZE, sync: bool = False
    ) -> None:
        self.addr = addr
        self.size = size
        self.sync = sync


class Store(_Op):
    """Write ``value`` (``size`` bytes) at ``addr``; result is None."""

    __slots__ = ("addr", "value", "size", "sync")

    def __init__(
        self,
        addr: int,
        value: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> None:
        self.addr = addr
        self.value = value
        self.size = size
        self.sync = sync


class CompareAndSwap(_Op):
    """Atomic CAS; result is ``(succeeded, observed_value)``.

    A failed CAS performs only the load (and is traced as a LOAD); a
    successful CAS is traced as an RMW.
    """

    __slots__ = ("addr", "expected", "new", "size", "sync")

    def __init__(
        self,
        addr: int,
        expected: int,
        new: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> None:
        self.addr = addr
        self.expected = expected
        self.new = new
        self.size = size
        self.sync = sync


class Swap(_Op):
    """Atomic exchange; result is the previous value.  Traced as RMW."""

    __slots__ = ("addr", "new", "size", "sync")

    def __init__(
        self,
        addr: int,
        new: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> None:
        self.addr = addr
        self.new = new
        self.size = size
        self.sync = sync


class FetchAdd(_Op):
    """Atomic fetch-and-add (wrapping at ``size`` bytes); result is the
    previous value.  Traced as RMW."""

    __slots__ = ("addr", "delta", "size", "sync")

    def __init__(
        self,
        addr: int,
        delta: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> None:
        self.addr = addr
        self.delta = delta
        self.size = size
        self.sync = sync


class WaitUntil(_Op):
    """Block until ``predicate(value_at_addr)`` holds; result is the value.

    The machine traces the initial failed check and the final successful
    check as LOAD events (test-then-block, like a futex wait); the thread
    consumes no scheduling steps while blocked.  This keeps traces free of
    unbounded spin loops while still emitting the conflicting load that
    orders the waiter after the releasing store.  ``predicate`` must be
    pure: the machine re-evaluates a blocked wait only when a store
    writes its word.
    """

    __slots__ = ("addr", "predicate", "size", "sync")

    def __init__(
        self,
        addr: int,
        predicate: Callable[[int], bool],
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> None:
        self.addr = addr
        self.predicate = predicate
        self.size = size
        self.sync = sync


class PersistBarrier(_Op):
    """The paper's ``PERSISTBARRIER`` annotation; result is None."""

    __slots__ = ()


class NewStrand(_Op):
    """The paper's ``NEWSTRAND`` annotation; result is None."""

    __slots__ = ()


class PersistSync(_Op):
    """The paper's persist sync (Section 4.1); result is None.

    Semantically: execution does not proceed (and so no later visible
    side effect happens) until the thread's prior persists are durable.
    The simulated machine records it as an annotation; timing models
    charge the stall.
    """

    __slots__ = ()


class Fence(_Op):
    """Memory (consistency) fence; result is None.

    On a TSO machine, drains the issuing thread's store buffer before
    execution continues.  A no-op under SC.  Note this is a *store
    visibility* fence, not a persist barrier — the paper's relaxed
    persistency keeps the two separate.
    """

    __slots__ = ()


class ClFlush(_Op):
    """x86 ``clflush``: write the cache line(s) covering ``[addr,
    addr+size)`` back to memory; result is None.

    Strongly ordered: on a TSO machine it travels through the store
    buffer behind earlier stores, and later stores stay behind it.  The
    Px86 analyzers treat its persist effect as synchronous — it takes
    place where the flush appears in memory order.
    """

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int = layout.WORD_SIZE) -> None:
        self.addr = addr
        self.size = size


class ClFlushOpt(_Op):
    """x86 ``clflushopt``: weakly ordered cache-line write-back; result
    is None.

    Same buffering behaviour as :class:`ClFlush` on the simulated
    machine, but the Px86 analyzer defers its persist-ordering effect
    until the thread's next SFENCE/MFENCE/RMW (the DPOx86 simplification
    ignores the deferral and treats it like ``clflush``).
    """

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int = layout.WORD_SIZE) -> None:
        self.addr = addr
        self.size = size


class Clwb(_Op):
    """x86 ``clwb``: write back without evicting; result is None.

    Ordering-equivalent to :class:`ClFlushOpt` for persist analysis.
    """

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int = layout.WORD_SIZE) -> None:
        self.addr = addr
        self.size = size


class SFence(_Op):
    """x86 ``sfence``; result is None.

    Commits the thread's outstanding weak flushes (clflushopt/clwb) so
    later persists are ordered after them.  Does *not* drain the TSO
    store buffer: under TSO store-to-store order already holds, so
    sfence has no store-visibility effect — use :class:`Fence` (mfence)
    to forbid store-buffering outcomes.
    """

    __slots__ = ()


class Mark(_Op):
    """Free-form trace annotation (e.g. ``insert:end``); result is None."""

    __slots__ = ("info",)

    def __init__(self, info: str) -> None:
        self.info = info


class Malloc(_Op):
    """Allocate from the persistent or volatile heap; result is the address."""

    __slots__ = ("size", "persistent")

    def __init__(self, size: int, persistent: bool) -> None:
        self.size = size
        self.persistent = persistent


class Free(_Op):
    """Release a heap allocation; result is None."""

    __slots__ = ("addr", "persistent")

    def __init__(self, addr: int, persistent: bool) -> None:
        self.addr = addr
        self.persistent = persistent


#: The shared instance of each field-less record.
PERSIST_BARRIER = PersistBarrier()
NEW_STRAND = NewStrand()
PERSIST_SYNC = PersistSync()
FENCE = Fence()
SFENCE = SFence()
