"""The simulated SC machine.

Executes a set of simulated threads one memory operation at a time under
a pluggable interleaving policy, recording every operation into a
:class:`~repro.trace.trace.Trace`.  Because exactly one access executes
at a time and each thread's operations execute in program order, the
recorded total order is a sequentially consistent execution — the same
guarantee the paper's lock-bank PIN tracer provides (Section 7).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.memory import AddressSpace, FreeListAllocator, Region
from repro.memory.layout import WORD_SIZE, validate_value
from repro.sim import ops
from repro.sim.context import ThreadContext
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.trace.columnar import (
    CODE_CLFLUSH,
    CODE_CLFLUSH_OPT,
    CODE_CLWB,
    CODE_FENCE,
    CODE_LOAD,
    CODE_MARK,
    CODE_NEW_STRAND,
    CODE_PERSIST_BARRIER,
    CODE_RMW,
    CODE_SFENCE,
    CODE_STORE,
    DEFAULT_CHUNK_EVENTS,
    FLAG_PERSISTENT,
    FLAG_SYNC,
    KIND_CODES,
)
from repro.trace.events import EventKind
from repro.trace.trace import Trace


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    NEW = "new"
    READY = "ready"
    WAITING = "waiting"
    #: Generator exhausted but the TSO store buffer still holds stores.
    DRAINING = "draining"
    FINISHED = "finished"


#: Scheduler ids at or above this base denote store-buffer drain agents
#: (id = _DRAIN_BASE + thread_id); below it, thread execution steps.
_DRAIN_BASE = 1 << 20

#: Kind codes of the events only the machine emits.
CODE_PERSIST_SYNC = KIND_CODES[EventKind.PERSIST_SYNC]
CODE_MALLOC = KIND_CODES[EventKind.MALLOC]
CODE_FREE = KIND_CODES[EventKind.FREE]
CODE_THREAD_BEGIN = KIND_CODES[EventKind.THREAD_BEGIN]
CODE_THREAD_END = KIND_CODES[EventKind.THREAD_END]

#: Event kind code of each cache-line flush op.
_FLUSH_OPS = {
    ops.ClFlush: CODE_CLFLUSH,
    ops.ClFlushOpt: CODE_CLFLUSH_OPT,
    ops.Clwb: CODE_CLWB,
}

#: The read-modify-write ops, traced as RMW (a failed CAS as a LOAD).
_ATOMIC_OPS = (ops.CompareAndSwap, ops.Swap, ops.FetchAdd)


class SimThread:
    """Bookkeeping for one simulated thread."""

    def __init__(self, thread_id: int, generator, name: str) -> None:
        self.thread_id = thread_id
        self.name = name
        self.generator = generator
        self.state = ThreadState.NEW
        #: Operation awaiting execution (READY state).
        self.pending: Optional[object] = None
        #: Wait request we are blocked on (WAITING state).
        self.wait: Optional[ops.WaitUntil] = None
        #: Value returned by the thread body once FINISHED.
        self.result: object = None
        #: TSO store buffer: FIFO of entries, one of
        #: ``("store", addr, size, value, sync, region)``,
        #: ``("flush", addr, size, kind code, region)``
        #: (clflush/clflushopt/clwb travelling behind earlier stores), or
        #: ``("marker", kind code)`` (persist barrier / strand / sfence).
        #: Store and flush entries were validated when buffered and keep
        #: the region they map to.
        self.store_buffer: list = []
        #: Rebuild recipe (generator function, args, context) — set by
        #: :meth:`Machine.spawn` so restore can re-create the generator.
        self.body: Optional[Callable] = None
        self.args: tuple = ()
        self.ctx: Optional[ThreadContext] = None
        #: Word a WAITING thread is registered under in the machine's
        #: watch index (see :meth:`Machine._relist`).
        self.watch_word: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"SimThread(id={self.thread_id}, name={self.name!r}, "
            f"state={self.state.value})"
        )


class MachineSnapshot:
    """One between-steps capture of a machine (see ``Machine.snapshot``).

    Holds only O(threads) bookkeeping plus a high-water mark into the
    machine's write-undo journal — no copies of memory regions or the
    trace — so taking one per scheduling decision is cheap.
    """

    __slots__ = (
        "journal_mark",
        "log_mark",
        "trace_len",
        "steps",
        "threads",
        "volatile_heap",
        "persistent_heap",
    )

    def __init__(
        self,
        journal_mark: int,
        log_mark: int,
        trace_len: int,
        steps: int,
        threads: list,
        volatile_heap,
        persistent_heap,
    ) -> None:
        self.journal_mark = journal_mark
        self.log_mark = log_mark
        self.trace_len = trace_len
        self.steps = steps
        self.threads = threads
        self.volatile_heap = volatile_heap
        self.persistent_heap = persistent_heap


class Machine:
    """Simulated machine: memory, heaps, threads, scheduler, and trace."""

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        volatile_size: Optional[int] = None,
        persistent_size: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
        consistency: str = "sc",
    ) -> None:
        """``consistency`` selects the memory model:

        * ``"sc"`` (default) — every store is immediately visible; the
          trace is a sequentially consistent execution, the paper's
          baseline.
        * ``"tso"`` — stores enter a per-thread FIFO buffer and become
          visible when a *drain agent* (a scheduler-visible pseudo-thread
          per buffer) writes them to memory.  Loads forward byte-wise
          from the own buffer (``info="sb-forward"`` when every byte is
          buffered, ``"sb-mixed"`` when buffered bytes overlay a memory
          read); RMWs and mfences drain first, x86-style; clflush-family
          ops and sfence travel through the buffer.  Stores and flushes
          are validated when they enter the buffer, in program order,
          so a bad one fails at the same step as on SC.  The trace records
          *memory order*, so analyzing it yields persistency-under-TSO
          semantics directly.
        """
        sizes = {}
        if volatile_size is not None:
            sizes["volatile_size"] = volatile_size
        if persistent_size is not None:
            sizes["persistent_size"] = persistent_size
        self.memory = AddressSpace.with_default_layout(**sizes)
        volatile = self.memory.region("volatile")
        persistent = self.memory.region("persistent")
        self.volatile_heap = FreeListAllocator(volatile.base, volatile.size)
        self.persistent_heap = FreeListAllocator(persistent.base, persistent.size)
        if consistency not in ("sc", "tso"):
            raise SimulationError(
                f"unknown consistency model {consistency!r}; expected "
                f"'sc' or 'tso'"
            )
        self.consistency = consistency
        self._tso = consistency == "tso"
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        # Let introspecting schedulers (ReplayableScheduler) see machine
        # state at each decision point without threading it through pick().
        bind = getattr(self.scheduler, "bind_machine", None)
        if bind is not None:
            bind(self)
        self.trace = Trace(meta=meta)
        #: Appends one event's column values to the trace, starting a new
        #: chunk when the last is full; the machine validated them when it
        #: executed the operation.
        self._emit = self.trace.append_raw
        self._threads: List[SimThread] = []
        self._steps = 0
        #: Write-undo journal: (addr, previous bytes) per memory write,
        #: in execution order.  None until :meth:`enable_snapshots`.
        self._journal: Optional[list] = None
        #: With snapshots enabled: every ``(thread, value)`` sent into a
        #: generator, in global execution order.  Replaying a prefix
        #: through fresh generators fast-forwards every thread body — and
        #: every Python-side library mutation the bodies perform — in the
        #: original interleaving (generators cannot be copied).
        self._send_log: list = []
        #: Registered external (Python-side) state: (capture, restore)
        #: pairs; see :meth:`register_state`.
        self._ext_state: List[Tuple[Callable, Callable]] = []
        self._ext_initial: Optional[list] = None
        #: Runnable agents in scheduling order — thread ``t``, then its
        #: drain agent ``_DRAIN_BASE + t``, by thread id — with the
        #: parallel sort keys ``2t`` / ``2t + 1``.  Kept up to date step
        #: by step (:meth:`_relist`), rebuilt on entry to :meth:`run`.
        self._runnable: List[int] = []
        self._runnable_keys: List[int] = []
        #: The keys in ``_runnable_keys``, for a membership test that
        #: lets an unchanged entry skip the bisection.
        self._listed: Set[int] = set()
        #: Watch index: word number -> ids of WAITING threads whose wait
        #: reads that word; a store to the word moves them to ``_woken``.
        self._watchers: Dict[int, Set[int]] = {}
        self._woken: Set[int] = set()

    # -- setup ----------------------------------------------------------------

    @property
    def threads(self) -> List[SimThread]:
        """Spawned threads in id order (copy)."""
        return list(self._threads)

    def spawn(self, body: Callable, *args, name: str = "") -> SimThread:
        """Create a simulated thread from a generator function.

        ``body`` is called as ``body(ctx, *args)`` and must return a
        generator (i.e., contain ``yield`` / ``yield from``).
        """
        thread_id = len(self._threads)
        ctx = ThreadContext(thread_id)
        generator = body(ctx, *args)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"thread body {body!r} is not a generator function"
            )
        thread = SimThread(thread_id, generator, name or f"t{thread_id}")
        thread.body = body
        thread.args = args
        thread.ctx = ctx
        self._threads.append(thread)
        return thread

    # -- execution --------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> Trace:
        """Run until every thread finishes; returns the trace.

        This loop is the machine's one step path, for SC, TSO and
        snapshot-enabled machines alike.  A step of a READY thread
        executes its pending op — stores, loads, persist barriers, waits
        and atomics right here, rarer ops in :meth:`_execute` — writes
        memory, appends the event to the trace's last chunk, sends the
        result into the thread's generator and relists the thread.  A
        NEW thread begins, a woken WAITING thread re-reads its word, and
        a drain agent makes its thread's oldest buffered entry visible
        (:meth:`_drain_scheduled`).

        Raises:
            DeadlockError: when all unfinished threads are blocked.
            SimulationError: when ``max_steps`` is exhausted first.
        """
        self._rebuild_runnable()
        runnable = self._runnable
        threads = self._threads
        woken = self._woken
        watchers = self._watchers
        journal = self._journal
        send_log = self._send_log
        tso = self._tso
        pick = self.scheduler.pick
        checked_region = self.memory.checked_region
        chunks = self.trace.chunks
        emit = self._emit
        relist = self._relist
        ready = ThreadState.READY
        while True:
            if not runnable:
                unfinished = [
                    t for t in self._threads if t.state is not ThreadState.FINISHED
                ]
                if not unfinished:
                    return self.trace
                waiting = ", ".join(
                    f"{t.name} on {t.wait.addr:#x}" for t in unfinished if t.wait
                )
                raise DeadlockError(
                    f"{len(unfinished)} thread(s) blocked with no runnable "
                    f"peers: {waiting or unfinished}"
                )
            if max_steps is not None and self._steps >= max_steps:
                raise SimulationError(
                    f"exceeded max_steps={max_steps} with threads still running"
                )
            agent = pick(runnable)
            if agent >= _DRAIN_BASE:
                thread = self._drain_scheduled(agent)
                state = None
            else:
                thread = threads[agent]
                state = thread.state
                # What the step does, set below: the event to append
                # (``code`` -1 for none), whether it writes ``value`` to
                # memory first, and what to send into the generator.
                code = -1
                write = False
                send = True
                result = None
                if state is ready:
                    op = thread.pending
                    op_type = type(op)
                    if op_type is ops.Store:
                        addr, size, value = op.addr, op.size, op.value
                        region = checked_region(addr, size, value)
                        if tso:
                            thread.store_buffer.append(
                                ("store", addr, size, value, op.sync, region)
                            )
                        else:
                            code = CODE_STORE
                            write = True
                            persistent, sync = region.persistent, op.sync
                            info = ""
                    elif op_type is ops.Load or op_type is ops.WaitUntil:
                        addr, size = op.addr, op.size
                        if thread.store_buffer:  # TSO: may forward
                            value, info, region = self._read(
                                thread, addr, size
                            )
                        else:
                            region = checked_region(addr, size)
                            offset = addr - region.base
                            value = int.from_bytes(
                                region.data[offset:offset + size], "little"
                            )
                            info = ""
                        code = CODE_LOAD
                        persistent, sync = region.persistent, op.sync
                        result = value
                        if op_type is not ops.Load and not op.predicate(value):
                            thread.pending = None
                            thread.wait = op
                            thread.state = ThreadState.WAITING
                            send = False
                    elif op_type is ops.PersistBarrier:
                        # On TSO the barrier travels through the store
                        # buffer with the stores it separates (epoch
                        # hardware tags epochs at the core, in program
                        # order); emitting it at execute time would let
                        # later-draining stores float in front of it in
                        # memory order and dissolve the epoch boundary.
                        if tso and thread.store_buffer:
                            thread.store_buffer.append(
                                ("marker", CODE_PERSIST_BARRIER)
                            )
                        else:
                            code = CODE_PERSIST_BARRIER
                            addr = size = value = 0
                            persistent = sync = False
                            info = ""
                    elif op_type in _ATOMIC_OPS:
                        if tso:
                            # Atomics are fences on TSO (x86 semantics).
                            self._flush_buffer(thread)
                        addr, size = op.addr, op.size
                        region = checked_region(addr, size)
                        offset = addr - region.base
                        old = int.from_bytes(
                            region.data[offset:offset + size], "little"
                        )
                        persistent, sync = region.persistent, op.sync
                        info = ""
                        if (
                            op_type is ops.CompareAndSwap
                            and old != op.expected
                        ):
                            # A failed CAS is traced as a LOAD, but the
                            # lock prefix still fenced (the buffer was
                            # flushed above); "rmw-fail" lets the Px86
                            # analyzers keep its flush-committing effect.
                            code = CODE_LOAD
                            value = old
                            info = "rmw-fail"
                            result = False, old
                        else:
                            if op_type is ops.FetchAdd:
                                value = (old + op.delta) % (1 << (8 * size))
                            else:
                                value = op.new
                            validate_value(value, size)
                            code = CODE_RMW
                            write = True
                            if op_type is ops.CompareAndSwap:
                                result = True, old
                            else:
                                result = old
                    else:
                        result = self._execute(thread, op)
                elif state is ThreadState.NEW:
                    code = CODE_THREAD_BEGIN
                    addr = size = value = 0
                    persistent = sync = False
                    info = ""
                    thread.state = ready
                elif state is ThreadState.WAITING:
                    wait = thread.wait
                    addr, size = wait.addr, wait.size
                    value, info, region = self._read(thread, addr, size)
                    code = CODE_LOAD
                    persistent, sync = region.persistent, wait.sync
                    result = value
                    thread.wait = None
                    thread.state = ready
                else:
                    raise SimulationError(f"cannot step {thread!r}")
                if write:
                    # Journal the overwritten bytes (snapshots), write,
                    # and wake the waiters watching the word.
                    data = region.data
                    offset = addr - region.base
                    end = offset + size
                    if journal is not None:
                        journal.append((addr, bytes(data[offset:end])))
                    data[offset:end] = value.to_bytes(size, "little")
                    watching = watchers.get(addr // WORD_SIZE)
                    if watching:
                        woken.update(watching)
                if code >= 0:
                    flags = (FLAG_PERSISTENT if persistent else 0) | (
                        FLAG_SYNC if sync else 0
                    )
                    chunk = chunks[-1]
                    if len(chunk.kinds) < DEFAULT_CHUNK_EVENTS:
                        chunk.append_raw(
                            code, agent, addr, size, value, flags, info
                        )
                    else:  # the trace starts its next chunk
                        emit(code, agent, addr, size, value, flags, info)
                if send:
                    if journal is not None:
                        send_log.append((thread, result))
                    try:
                        thread.pending = thread.generator.send(result)
                    except StopIteration as stop:
                        thread.pending = None
                        thread.result = stop.value
                        if thread.store_buffer:
                            # TSO: the thread's stores are not yet
                            # visible; drain agents finish the job, then
                            # THREAD_END is emitted.
                            thread.state = ThreadState.DRAINING
                        else:
                            thread.state = ThreadState.FINISHED
                            emit(CODE_THREAD_END, agent)
            self._steps += 1
            # A step changes only its own thread's state and buffer, plus
            # memory; of the other threads, only WAITING ones whose word
            # was written can change runnability (wait predicates are
            # pure).  An SC thread READY before and after its step keeps
            # both entries as they were.
            if tso or state is not ready or thread.state is not ready:
                relist(thread)
            if woken:
                for thread_id in woken:
                    relist(threads[thread_id])
                woken.clear()

    def _rebuild_runnable(self) -> None:
        """Recompute the runnable set and watch index from scratch.

        Covers every change made outside :meth:`run` — setup-time
        memory writes, :meth:`spawn`, :meth:`restore`.
        """
        self._runnable.clear()
        self._runnable_keys.clear()
        self._listed.clear()
        self._watchers.clear()
        self._woken.clear()
        for thread in self._threads:
            thread.watch_word = None
            self._relist(thread)

    def _relist(self, thread: SimThread) -> None:
        """Bring ``thread``'s two runnable-set entries up to date.

        The thread is listed when NEW or READY, or when WAITING and its
        predicate holds on the value it would observe now; its drain
        agent is listed while the store buffer is non-empty.  A WAITING
        thread is registered in the watch index so that a write to its
        word re-checks it.
        """
        thread_id = thread.thread_id
        state = thread.state
        if state is ThreadState.WAITING:
            wait = thread.wait
            if thread.watch_word is None:
                thread.watch_word = wait.addr // WORD_SIZE
                self._watchers.setdefault(thread.watch_word, set()).add(
                    thread_id
                )
            listed = bool(
                wait.predicate(
                    self._visible_value(thread, wait.addr, wait.size)
                )
            )
        else:
            if thread.watch_word is not None:
                watchers = self._watchers[thread.watch_word]
                watchers.discard(thread_id)
                if not watchers:
                    del self._watchers[thread.watch_word]
                thread.watch_word = None
            listed = state is ThreadState.NEW or state is ThreadState.READY
        key = 2 * thread_id
        if listed != (key in self._listed):
            self._list(key, thread_id, listed)
        draining = bool(thread.store_buffer)
        if draining != (key + 1 in self._listed):
            self._list(key + 1, _DRAIN_BASE + thread_id, draining)

    def _list(self, key: int, agent: int, listed: bool) -> None:
        """Insert or remove ``agent`` at sort ``key``; the caller has
        checked that its presence differs from ``listed``."""
        keys = self._runnable_keys
        index = bisect_left(keys, key)
        if listed:
            keys.insert(index, key)
            self._runnable.insert(index, agent)
            self._listed.add(key)
        else:
            del keys[index]
            del self._runnable[index]
            self._listed.discard(key)

    def _drain_scheduled(self, agent: int) -> SimThread:
        """The step of drain agent ``agent``: drain one entry of its
        thread's buffer; returns the thread."""
        index = agent - _DRAIN_BASE
        if not 0 <= index < len(self._threads):
            raise SimulationError(
                f"scheduler picked drain agent {agent} for "
                f"nonexistent thread {index}"
            )
        thread = self._threads[index]
        if not thread.store_buffer:
            # Drain agents are runnable exactly while the buffer is
            # non-empty; reaching here means the scheduler returned an id
            # that was not in the runnable set it was given (e.g. a stale
            # replay recording).
            raise SimulationError(
                f"drain scheduled for {thread.name} with an empty "
                f"buffer: scheduler violated the runnable-set contract"
            )
        self._drain_one(thread)
        return thread

    def register_state(
        self, capture: Callable[[], object], restore: Callable[[object], None]
    ) -> None:
        """Register Python-side library state for snapshot replay.

        Structures that keep *volatile Python state* read by thread
        bodies (an MCS lock's qnode cache, a transaction manager's
        cursors, a filesystem's free lists) must register it here, or
        :meth:`restore` cannot rewind it.  ``capture()`` returns a copy
        of the state; ``restore(state)`` reinstates such a copy (and must
        itself copy, since the same capture may be restored many times).
        Restore resets every registered state to its value at
        :meth:`enable_snapshots` time and then replays the send log,
        which re-applies the bodies' mutations in original order.
        """
        self._ext_state.append((capture, restore))
        if self._ext_initial is not None:
            if self._steps:
                raise SimulationError(
                    "register_state after the snapshot-enabled machine ran"
                )
            self._ext_initial.append(capture())

    # -- snapshot / restore -------------------------------------------------

    def enable_snapshots(self) -> None:
        """Turn on the write-undo journal and the global send log.

        Must be called before the machine takes its first step: restore
        rebuilds generators by replaying the send log from the
        beginning, so the log must cover the whole execution.  The
        initial values of all registered external states (see
        :meth:`register_state`) are captured here as the replay origin.
        """
        if self._journal is not None:
            return
        if self._steps or any(
            t.state is not ThreadState.NEW for t in self._threads
        ):
            raise SimulationError(
                "enable_snapshots must be called before the machine runs"
            )
        self._journal = []
        self._ext_initial = [capture() for capture, _ in self._ext_state]

    def snapshot(self) -> "MachineSnapshot":
        """Capture the machine state between steps (cheap: O(threads)).

        Generators are not captured — they cannot be copied; restore
        re-creates them from their spawn recipes and fast-forwards them
        by replaying the recorded send log, which re-runs only the
        thread bodies' own Python code (no machine steps, no trace
        events, no memory operations).
        """
        if self._journal is None:
            raise SimulationError("snapshots are not enabled on this machine")
        return MachineSnapshot(
            journal_mark=len(self._journal),
            log_mark=len(self._send_log),
            trace_len=len(self.trace),
            steps=self._steps,
            threads=[
                (t.state, t.result, list(t.store_buffer))
                for t in self._threads
            ],
            volatile_heap=self.volatile_heap.snapshot(),
            persistent_heap=self.persistent_heap.snapshot(),
        )

    def restore(self, snap: "MachineSnapshot") -> None:
        """Rewind the machine to a :meth:`snapshot` taken on it.

        Memory is rewound by undoing the write journal in reverse; the
        trace is truncated; heaps, thread bookkeeping, and registered
        external states are reset; then fresh generators for *all*
        threads are fast-forwarded by replaying the send-log prefix in
        its original global interleaving.  Replaying every thread — not
        just live ones — matters because bodies mutate shared Python
        state (lock caches, allocator free lists, transaction cursors):
        those mutations must be re-applied in the order they originally
        happened, starting from the registered initial states.
        """
        journal = self._journal
        if journal is None:
            raise SimulationError("snapshots are not enabled on this machine")
        if len(snap.threads) != len(self._threads):
            raise SimulationError(
                "snapshot does not match this machine's thread set"
            )
        for addr, old in reversed(journal[snap.journal_mark:]):
            self.memory.write_bytes(addr, old)
        del journal[snap.journal_mark:]
        self.trace.truncate(snap.trace_len)
        self._steps = snap.steps
        self.volatile_heap.restore(snap.volatile_heap)
        self.persistent_heap.restore(snap.persistent_heap)
        for (_, restore_state), initial in zip(
            self._ext_state, self._ext_initial
        ):
            restore_state(initial)
        del self._send_log[snap.log_mark:]
        generators = []
        last_yield = []
        for thread in self._threads:
            generators.append(thread.body(thread.ctx, *thread.args))
            last_yield.append(None)
        for thread, value in self._send_log:
            index = thread.thread_id
            try:
                last_yield[index] = generators[index].send(value)
            except StopIteration:
                # The body's final send: only replayed for its Python
                # side effects; the thread's result is in the snapshot.
                last_yield[index] = None
        for thread, (state, result, buffer) in zip(
            self._threads, snap.threads
        ):
            thread.state = state
            thread.result = result
            thread.store_buffer = list(buffer)
            thread.pending = None
            thread.wait = None
            if state in (ThreadState.NEW, ThreadState.READY, ThreadState.WAITING):
                thread.generator = generators[thread.thread_id]
                if state is ThreadState.READY:
                    thread.pending = last_yield[thread.thread_id]
                elif state is ThreadState.WAITING:
                    thread.wait = last_yield[thread.thread_id]
            else:
                # DRAINING/FINISHED bodies are exhausted and never
                # resumed; keep no generator for them.
                thread.generator = None

    # -- TSO store buffer ---------------------------------------------------

    def _drain_one(self, thread: SimThread) -> None:
        """Make the oldest buffered entry visible (store/flush/marker).

        The DRAINING → FINISHED transition lives here — the only place a
        buffer empties entry by entry — so an exhausted thread can never
        outlive its buffer.  A buffered store writes memory here, as a
        store of an SC thread does in :meth:`run`.
        """
        entry = thread.store_buffer.pop(0)
        tag = entry[0]
        if tag == "store":
            _, addr, size, value, sync, region = entry
            data = region.data
            offset = addr - region.base
            if self._journal is not None:
                self._journal.append((addr, bytes(data[offset:offset + size])))
            data[offset:offset + size] = value.to_bytes(size, "little")
            watching = self._watchers.get(addr // WORD_SIZE)
            if watching:
                self._woken.update(watching)
            self._emit(
                CODE_STORE, thread.thread_id, addr, size, value,
                (FLAG_PERSISTENT if region.persistent else 0)
                | (FLAG_SYNC if sync else 0),
            )
        elif tag == "flush":
            _, addr, size, code, region = entry
            self._emit(
                code, thread.thread_id, addr, size, 0,
                FLAG_PERSISTENT if region.persistent else 0,
            )
        else:
            self._emit(entry[1], thread.thread_id)
        if thread.state is ThreadState.DRAINING and not thread.store_buffer:
            thread.state = ThreadState.FINISHED
            self._emit(CODE_THREAD_END, thread.thread_id)

    def _flush_buffer(self, thread: SimThread) -> None:
        """Drain the thread's entire store buffer (RMW/mfence semantics)."""
        while thread.store_buffer:
            self._drain_one(thread)

    def buffered_bytes(
        self, thread: SimThread, addr: int, size: int
    ) -> List[Optional[int]]:
        """Per-byte overlay of the thread's buffered stores over
        ``[addr, addr+size)``; newest store wins per byte, ``None`` for
        bytes no buffered store covers.  Pure (no side effects); also
        used by footprint introspection.
        """
        overlay: List[Optional[int]] = [None] * size
        end = addr + size
        for entry in thread.store_buffer:  # oldest first: later wins
            if entry[0] != "store":
                continue
            _, entry_addr, entry_size, value = entry[:4]
            lo = max(addr, entry_addr)
            hi = min(end, entry_addr + entry_size)
            if lo >= hi:
                continue
            data = value.to_bytes(entry_size, "little")
            for at in range(lo, hi):
                overlay[at - addr] = data[at - entry_addr]
        return overlay

    def _read(
        self, thread: SimThread, addr: int, size: int
    ) -> Tuple[int, str, Region]:
        """What a load of ``[addr, addr+size)`` by ``thread`` observes
        now; returns ``(value, trace info, region)``.  No side effects.

        The access is validated and mapped first, whatever the store
        buffer holds.  On TSO the load then forwards byte-wise from the
        thread's own buffer over memory: ``info`` is ``"sb-forward"``
        when every byte came from the buffer (the load never touched
        memory), ``"sb-mixed"`` when buffered bytes were overlaid on a
        memory read, ``""`` for a pure memory read.  Partial overlap
        does not flush the buffer, which would strengthen memory order
        mid-schedule.  SC machines never buffer, so they always read
        memory.
        """
        region = self.memory.checked_region(addr, size)
        if thread.store_buffer:
            overlay = self.buffered_bytes(thread, addr, size)
            if None not in overlay:
                value = int.from_bytes(bytes(overlay), "little")
                return value, "sb-forward", region
            if any(byte is not None for byte in overlay):
                data = bytearray(region.read_bytes(addr, size))
                for offset, byte in enumerate(overlay):
                    if byte is not None:
                        data[offset] = byte
                return int.from_bytes(data, "little"), "sb-mixed", region
        value = int.from_bytes(region.read_bytes(addr, size), "little")
        return value, "", region

    def _visible_value(self, thread: SimThread, addr: int, size: int) -> int:
        """The value a load by ``thread`` at this point would observe (no
        side effects).  Used by wait-predicate evaluation; shares
        :meth:`_read` with the actual wait read so the wake decision and
        the observed value can never disagree."""
        return self._read(thread, addr, size)[0]

    # -- operation execution -------------------------------------------------

    def _execute(self, thread: SimThread, op: object) -> object:
        """Execute one of the rarer ops :meth:`run` does not execute
        itself; returns its result.

        Dispatches on the op's exact type.  A flush is validated and
        mapped once, when it executes (on TSO when it enters the store
        buffer), and the region found then gives the event's
        ``persistent`` flag.
        """
        op_type = type(op)
        thread_id = thread.thread_id
        if op_type is ops.NewStrand:
            self._buffered_marker(thread, CODE_NEW_STRAND)
            return None
        if op_type is ops.Mark:
            self._emit(CODE_MARK, thread_id, 0, 0, 0, 0, op.info)
            return None
        if op_type is ops.Malloc:
            heap = self.persistent_heap if op.persistent else self.volatile_heap
            addr = heap.malloc(op.size)
            self._emit(
                CODE_MALLOC, thread_id, 0, 0, 0, 0, f"{addr:#x}+{op.size}"
            )
            return addr
        if op_type is ops.Free:
            heap = self.persistent_heap if op.persistent else self.volatile_heap
            heap.free(op.addr)
            self._emit(CODE_FREE, thread_id, 0, 0, 0, 0, f"{op.addr:#x}")
            return None
        code = _FLUSH_OPS.get(op_type)
        if code is not None:
            # Flushes are ordered behind earlier stores (they write the
            # line those stores dirtied), and later stores stay behind
            # them in the FIFO — so on TSO they travel through the store
            # buffer.  Loads may still overtake them, matching x86's
            # weak flush/load ordering.
            region = self.memory.checked_region(op.addr, op.size)
            if self._tso and thread.store_buffer:
                thread.store_buffer.append(
                    ("flush", op.addr, op.size, code, region)
                )
                return None
            self._emit(
                code, thread_id, op.addr, op.size, 0,
                FLAG_PERSISTENT if region.persistent else 0,
            )
            return None
        if op_type is ops.SFence:
            # No store-visibility effect (TSO already orders stores):
            # sfence only marks where outstanding weak flushes commit,
            # so like the persist barrier it travels through the buffer
            # to keep its memory-order position faithful.
            self._buffered_marker(thread, CODE_SFENCE)
            return None
        if op_type is ops.Fence:
            if self._tso:
                self._flush_buffer(thread)
            self._emit(CODE_FENCE, thread_id)
            return None
        if op_type is ops.PersistSync:
            self._emit(CODE_PERSIST_SYNC, thread_id)
            return None
        raise SimulationError(
            f"thread {thread.name} yielded unknown operation {op!r}"
        )

    def _buffered_marker(self, thread: SimThread, code: int) -> None:
        """Emit a strand / sfence marker, or on TSO queue it behind the
        thread's buffered entries (:meth:`run` does the same for the
        persist barrier)."""
        if self._tso and thread.store_buffer:
            thread.store_buffer.append(("marker", code))
        else:
            self._emit(code, thread.thread_id)
