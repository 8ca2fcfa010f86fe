"""Per-thread programming interface for simulated programs.

Thread bodies are generator functions taking a :class:`ThreadContext`
first argument and using ``yield from`` on its methods::

    def body(ctx, counter_addr):
        value = yield from ctx.load(counter_addr)
        yield from ctx.store(counter_addr, value + 1)

Every helper yields exactly one operation request per memory event (bulk
helpers yield one per word), so the scheduler interleaves threads at
single-access granularity.  A helper whose op has a result (a load, an
atomic, a wait, an allocation) is a generator that returns that result;
one whose op has none returns its request in a one-element tuple, which
``yield from`` walks like a generator but without a generator frame to
build and resume on every store.  The machine sends ``None`` for such
an op, which ``yield from`` passes to the tuple as a plain ``next``.
"""

from __future__ import annotations

from typing import Callable, Generator, Tuple

from repro.memory import layout
from repro.sim import ops

#: Type of the generators returned by context helpers.
OpGen = Generator[object, object, object]

#: What the helper of an op without a result returns: its one request.
OneOp = Tuple[object]

_PERSIST_BARRIER = (ops.PERSIST_BARRIER,)
_NEW_STRAND = (ops.NEW_STRAND,)
_PERSIST_SYNC = (ops.PERSIST_SYNC,)
_FENCE = (ops.FENCE,)
_SFENCE = (ops.SFENCE,)


class ThreadContext:
    """Handle through which a simulated thread touches the machine."""

    def __init__(self, thread_id: int) -> None:
        self._thread_id = thread_id

    @property
    def thread_id(self) -> int:
        """This thread's id (dense from zero in spawn order)."""
        return self._thread_id

    # -- scalar accesses ---------------------------------------------------
    #
    # ``sync=True`` marks an access as a synchronization operation (lock
    # word, hand-off flag) for happens-before race detection; it changes
    # nothing about execution or persist ordering.

    def load(
        self, addr: int, size: int = layout.WORD_SIZE, sync: bool = False
    ) -> OpGen:
        """Load an unsigned value; returns it."""
        value = yield ops.Load(addr, size, sync)
        return value

    def store(
        self,
        addr: int,
        value: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OneOp:
        """Store an unsigned value."""
        return (ops.Store(addr, value, size, sync),)

    def cas(
        self,
        addr: int,
        expected: int,
        new: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OpGen:
        """Compare-and-swap; returns ``(succeeded, observed_value)``."""
        result = yield ops.CompareAndSwap(addr, expected, new, size, sync)
        return result

    def swap(
        self,
        addr: int,
        new: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OpGen:
        """Atomic exchange; returns the previous value."""
        old = yield ops.Swap(addr, new, size, sync)
        return old

    def fetch_add(
        self,
        addr: int,
        delta: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OpGen:
        """Atomic fetch-and-add; returns the previous value."""
        old = yield ops.FetchAdd(addr, delta, size, sync)
        return old

    def wait_until(
        self,
        addr: int,
        predicate: Callable[[int], bool],
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OpGen:
        """Block until ``predicate(value)``; returns the satisfying value.

        ``predicate`` must be a pure function of the value: a blocked
        thread is re-checked only when its word is written.
        """
        value = yield ops.WaitUntil(addr, predicate, size, sync)
        return value

    def wait_equals(
        self,
        addr: int,
        expected: int,
        size: int = layout.WORD_SIZE,
        sync: bool = False,
    ) -> OpGen:
        """Block until the location holds ``expected``."""
        value = yield from self.wait_until(
            addr, lambda v: v == expected, size, sync
        )
        return value

    # -- bulk accesses -----------------------------------------------------

    def store_bytes(self, addr: int, data: bytes) -> OpGen:
        """Store a byte string as a sequence of within-word stores.

        Mirrors the paper's ``COPY``: a 100-byte entry copy becomes ~13
        eight-byte stores, each an independent trace event (and an
        independent persist when the target is persistent).
        """
        for piece_addr, piece_size in layout.words_covering(addr, len(data)):
            offset = piece_addr - addr
            value = int.from_bytes(data[offset : offset + piece_size], "little")
            yield ops.Store(piece_addr, value, piece_size)

    def load_bytes(self, addr: int, size: int) -> OpGen:
        """Load a byte string as a sequence of within-word loads."""
        chunks = []
        for piece_addr, piece_size in layout.words_covering(addr, size):
            value = yield ops.Load(piece_addr, piece_size)
            chunks.append(value.to_bytes(piece_size, "little"))
        return b"".join(chunks)

    # -- persistency annotations --------------------------------------------

    def persist_barrier(self) -> OneOp:
        """Emit a persist barrier (epoch and strand models)."""
        return _PERSIST_BARRIER

    def new_strand(self) -> OneOp:
        """Emit a strand barrier (strand model only)."""
        return _NEW_STRAND

    def persist_sync(self) -> OneOp:
        """Emit a persist sync (order persists before later side effects)."""
        return _PERSIST_SYNC

    def fence(self) -> OneOp:
        """Emit a memory fence (drains the store buffer on TSO machines)."""
        return _FENCE

    # -- x86 flush / fence family (Px86 models) ----------------------------

    def clflush(self, addr: int, size: int = layout.WORD_SIZE) -> OneOp:
        """Flush the line(s) covering the range (strongly ordered)."""
        return (ops.ClFlush(addr, size),)

    def clflushopt(self, addr: int, size: int = layout.WORD_SIZE) -> OneOp:
        """Flush the line(s) covering the range (weakly ordered)."""
        return (ops.ClFlushOpt(addr, size),)

    def clwb(self, addr: int, size: int = layout.WORD_SIZE) -> OneOp:
        """Write the line(s) covering the range back (weakly ordered)."""
        return (ops.Clwb(addr, size),)

    def sfence(self) -> OneOp:
        """Emit an sfence (commits outstanding clflushopt/clwb)."""
        return _SFENCE

    # -- bookkeeping ---------------------------------------------------------

    def mark(self, info: str) -> OneOp:
        """Emit a MARK annotation for the harness."""
        return (ops.Mark(info),)

    def malloc_persistent(self, size: int) -> OpGen:
        """Allocate persistent memory; returns the address."""
        addr = yield ops.Malloc(size, persistent=True)
        return addr

    def malloc_volatile(self, size: int) -> OpGen:
        """Allocate volatile memory; returns the address."""
        addr = yield ops.Malloc(size, persistent=False)
        return addr

    def free_persistent(self, addr: int) -> OneOp:
        """Free a persistent allocation."""
        return (ops.Free(addr, persistent=True),)

    def free_volatile(self, addr: int) -> OneOp:
        """Free a volatile allocation."""
        return (ops.Free(addr, persistent=False),)
