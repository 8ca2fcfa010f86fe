"""Next-operation introspection for exploration engines.

Dynamic partial-order reduction needs to know, at every scheduling
decision, what each agent *would* do next — which memory it would read
or write — without executing anything.  The simulated machine makes that
cheap: a READY thread's next operation sits in ``thread.pending``, a
WAITING thread re-reads its wait location, a NEW thread's first step is
a pure marker, and a TSO drain agent makes the oldest buffered store
visible.  This module turns that state into :class:`Footprint` values —
the read/write ranges (plus global resources such as the heap
allocators) a scheduling step may touch.

Footprints are deliberately conservative over-approximations: a step
may touch *at most* what its footprint claims.  Over-approximating
dependence is safe for partial-order reduction — it only costs extra
interleavings — whereas under-approximation would silently drop
executions, so every effect a step can have on shared machine state must
be covered here.

TSO loads forward byte-wise from the issuing thread's own buffer and
never flush it: a fully-buffered load is thread-local, a partial or
uncovered load reads memory (buffered bytes are private state).  A
draining cache-line flush *reads* its line — its position relative to
other threads' stores to that line decides which persists it orders.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim import ops
from repro.sim.machine import _DRAIN_BASE, Machine, SimThread, ThreadState

#: An access range: (addr, size, persistent?).
Range = Tuple[int, int, bool]


class Footprint:
    """What one scheduling step may touch.

    An immutable value: engines build one per agent at every decision
    point, so it is a plain slotted record (cheaper to build than a
    frozen dataclass) whose fields are never reassigned.  Equality and
    hashing go by the three fields.

    Attributes:
        reads: (addr, size, persistent) ranges the step may read.
        writes: (addr, size, persistent) ranges the step may write.
        resources: global resource tokens the step mutates (e.g. the
            persistent heap allocator); two steps sharing a token are
            always dependent.
    """

    __slots__ = ("reads", "writes", "resources")

    def __init__(
        self,
        reads: Tuple[Range, ...] = (),
        writes: Tuple[Range, ...] = (),
        resources: Tuple[str, ...] = (),
    ) -> None:
        self.reads = reads
        self.writes = writes
        self.resources = resources

    def _fields(self) -> tuple:
        return (self.reads, self.writes, self.resources)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Footprint:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Footprint(reads={self.reads!r}, writes={self.writes!r}, "
            f"resources={self.resources!r})"
        )

    @property
    def is_local(self) -> bool:
        """True when the step touches no shared machine state."""
        return not (self.reads or self.writes or self.resources)


#: Footprint of a purely thread-local step (markers, TSO-buffered stores).
LOCAL_FOOTPRINT = Footprint()


def _range(machine: Machine, addr: int, size: int) -> Range:
    """Build one (addr, size, persistent) range."""
    return (addr, size, machine.memory.region_of(addr, size).persistent)


def _buffered_writes(machine: Machine, thread: SimThread) -> Tuple[Range, ...]:
    """Ranges of every buffered store (what a TSO flush would write)."""
    return tuple(
        _range(machine, entry[1], entry[2])
        for entry in thread.store_buffer
        if entry[0] == "store"
    )


def _buffered_flush_reads(
    machine: Machine, thread: SimThread
) -> Tuple[Range, ...]:
    """Ranges of every buffered clflush/clflushopt/clwb entry.

    Draining the buffer emits these flush events, and an emitted flush
    *reads* its line (its position among other threads' stores there is
    what the Px86 analyzers order persists by), so any step that drains
    the buffer — mfence, an RMW — inherits these reads.
    """
    return tuple(
        _range(machine, entry[1], entry[2])
        for entry in thread.store_buffer
        if entry[0] == "flush"
    )


def _tso_read_footprint(
    machine: Machine, thread: SimThread, addr: int, size: int
) -> Footprint:
    """Footprint of a TSO load/wait-read with byte-wise forwarding."""
    overlay = machine.buffered_bytes(thread, addr, size)
    if overlay and all(byte is not None for byte in overlay):
        # Every byte forwards from the private buffer: no memory touch.
        return LOCAL_FOOTPRINT
    return Footprint(reads=(_range(machine, addr, size),))


def _op_footprint(machine: Machine, thread: SimThread, op: object) -> Footprint:
    """Footprint of executing ``op`` as ``thread``'s next step."""
    tso = machine.consistency == "tso"
    if isinstance(op, ops.Load):
        if tso:
            return _tso_read_footprint(machine, thread, op.addr, op.size)
        return Footprint(reads=(_range(machine, op.addr, op.size),))
    if isinstance(op, ops.Store):
        if tso:
            return LOCAL_FOOTPRINT  # enters the private store buffer
        return Footprint(writes=(_range(machine, op.addr, op.size),))
    if isinstance(op, (ops.CompareAndSwap, ops.Swap, ops.FetchAdd)):
        target = (_range(machine, op.addr, op.size),)
        reads = target
        writes = target
        if tso and thread.store_buffer:
            # The atomic drains the buffer: it writes the buffered
            # stores and emits (reads) the buffered flushes.
            reads = target + _buffered_flush_reads(machine, thread)
            writes = target + _buffered_writes(machine, thread)
        return Footprint(reads=reads, writes=writes)
    if isinstance(op, ops.WaitUntil):
        if tso:
            return _tso_read_footprint(machine, thread, op.addr, op.size)
        return Footprint(reads=(_range(machine, op.addr, op.size),))
    if isinstance(op, ops.Fence):
        if tso and thread.store_buffer:
            # Draining writes the buffered stores and emits (reads) the
            # buffered flushes; a buffer holding only flush entries is
            # still a shared step, not a local one.
            return Footprint(
                reads=_buffered_flush_reads(machine, thread),
                writes=_buffered_writes(machine, thread),
            )
        return LOCAL_FOOTPRINT
    if isinstance(op, (ops.ClFlush, ops.ClFlushOpt, ops.Clwb)):
        if tso and thread.store_buffer:
            return LOCAL_FOOTPRINT  # enqueues behind the buffered stores
        # Emitted at its memory-order point: the flush reads its line
        # (its order against other threads' stores there is observable
        # in the persist DAG).
        return Footprint(reads=(_range(machine, op.addr, op.size),))
    if isinstance(op, (ops.Malloc, ops.Free)):
        heap = "heap:persistent" if op.persistent else "heap:volatile"
        return Footprint(resources=(heap,))
    # PersistBarrier / NewStrand / SFence / PersistSync / Mark:
    # thread-local annotations (on TSO with a non-empty buffer they
    # merely enqueue).
    return LOCAL_FOOTPRINT


def next_footprint(machine: Machine, agent: int) -> Optional[Footprint]:
    """Footprint of ``agent``'s next scheduling step, or None.

    ``agent`` is a scheduler id: a thread id, or a drain-agent id on TSO
    machines.  Returns None when the agent has no next step (a finished
    thread, a drain agent with an empty buffer, a thread whose remaining
    work belongs to its drain agent).
    """
    threads = machine._threads  # hot path: skip the copying property
    if agent >= _DRAIN_BASE:
        thread = threads[agent - _DRAIN_BASE]
        if not thread.store_buffer:
            return None
        entry = thread.store_buffer[0]
        if entry[0] == "store":
            return Footprint(writes=(_range(machine, entry[1], entry[2]),))
        if entry[0] == "flush":
            # Draining a clflush/clflushopt/clwb reads its line: its
            # position among other threads' stores to the line is what
            # the Px86 analyzers order persists by.
            return Footprint(reads=(_range(machine, entry[1], entry[2]),))
        return LOCAL_FOOTPRINT
    thread = threads[agent]
    if thread.state in (ThreadState.FINISHED, ThreadState.DRAINING):
        return None
    if thread.state is ThreadState.NEW:
        return LOCAL_FOOTPRINT  # THREAD_BEGIN marker, then pure advance
    if thread.state is ThreadState.WAITING:
        wait = thread.wait
        if machine.consistency == "tso":
            return _tso_read_footprint(machine, thread, wait.addr, wait.size)
        return Footprint(reads=(_range(machine, wait.addr, wait.size),))
    if thread.pending is None:
        return LOCAL_FOOTPRINT
    return _op_footprint(machine, thread, thread.pending)


def agent_footprints(machine: Machine) -> Dict[int, Footprint]:
    """Next-step footprints of every agent that still has a step.

    Includes agents that are currently *disabled* (a WAITING thread
    whose predicate is false): partial-order reduction must consider
    their pending step when detecting races, because a different
    interleaving could enable them earlier.
    """
    footprints: Dict[int, Footprint] = {}
    for thread in machine._threads:
        footprint = next_footprint(machine, thread.thread_id)
        if footprint is not None:
            footprints[thread.thread_id] = footprint
        if thread.store_buffer:
            drain = next_footprint(machine, _DRAIN_BASE + thread.thread_id)
            if drain is not None:
                footprints[_DRAIN_BASE + thread.thread_id] = drain
    return footprints
