"""Buffered epoch-persistency hardware timing model (extension).

The paper separates persistency *semantics* from *implementation* and
describes BPFS-style hardware in prose: epochs buffer in the cache
hierarchy and drain in order; each cache line records the last thread and
epoch to persist it, and "the next thread to access that line will
detect the conflict" and wait for the conflicting epoch to drain
(Section 5.2).  This module times exactly that design:

* Execution advances like the volatile makespan model (per-thread
  clocks; conflicting accesses serialise).
* Each thread buffers persists into its open epoch; a persist barrier
  closes the epoch into a bounded per-thread drain queue.  Queued epochs
  drain in order; an epoch's drain occupies ``waves`` persist latencies,
  where waves is its longest same-block persist chain (infinite banks,
  so unrelated persists within the epoch are concurrent).
* A cross-thread access to a block whose last persister's epoch has not
  drained **stalls the accessor** until the owner thread's queue drains
  through that epoch (the conflict-flush of naive BPFS; the epoch is
  force-closed if still open, splitting it as hardware would).
* Closing an epoch into a full queue stalls until the oldest drains
  (back-pressure).

The gap between this design's ``total_time`` and the semantic lower
bound (constraint critical path x latency) is the price of epoch-granular
hardware versus the paper's idealised persist-granular ordering; the
benchmarks sweep buffer depth to measure it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AnalysisError
from repro.harness.instr import DEFAULT_COST_MODEL, InstructionCostModel
from repro.trace.events import ACCESS_KINDS, EventKind
from repro.trace.trace import Trace


@dataclass(frozen=True)
class EpochHardwareConfig:
    """Parameters of the buffered epoch-persistency hardware."""

    persist_latency: float = 500e-9
    #: Closed-but-undrained epochs a thread may buffer before stalling.
    buffer_epochs: int = 8
    cost_model: InstructionCostModel = DEFAULT_COST_MODEL

    def validate(self) -> None:
        """Raise AnalysisError on unusable parameters."""
        if self.persist_latency <= 0:
            raise AnalysisError("persist_latency must be positive")
        if self.buffer_epochs <= 0:
            raise AnalysisError("buffer_epochs must be positive")


@dataclass
class _Epoch:
    """One buffered hardware epoch."""

    thread: int
    identity: int
    #: Per-block same-address persist chain depth; max is the wave count.
    block_depth: Dict[int, int] = field(default_factory=dict)
    waves: int = 0
    closed_at: float = 0.0
    drained_at: float = -1.0  # < 0 while undrained

    def add_persist(self, block: int) -> None:
        depth = self.block_depth.get(block, 0) + 1
        self.block_depth[block] = depth
        if depth > self.waves:
            self.waves = depth

    @property
    def drained(self) -> bool:
        return self.drained_at >= 0.0


@dataclass
class EpochHardwareResult:
    """Timing outcome of one simulation."""

    total_time: float
    execution_time: float
    conflict_stall_time: float
    buffer_stall_time: float
    epochs_drained: int
    persists: int
    constraint_bound: float = 0.0

    @property
    def stall_time(self) -> float:
        """All execution stalls."""
        return self.conflict_stall_time + self.buffer_stall_time

    @property
    def overhead_vs_execution(self) -> float:
        """total_time relative to pure volatile execution."""
        if self.execution_time <= 0:
            return 1.0
        return self.total_time / self.execution_time


class _ThreadDrainState:
    """Per-thread epoch buffer and drain clock."""

    def __init__(self, latency: float, capacity: int) -> None:
        self._latency = latency
        self._capacity = capacity
        self.queue: List[_Epoch] = []
        #: Time the thread's drain engine frees up.
        self.drain_free = 0.0

    def enqueue(self, epoch: _Epoch) -> Optional[float]:
        """Queue a closed epoch; returns the stall-until time when the
        buffer was full (the caller charges the stall), else None."""
        stall_until = None
        if len(self.queue) >= self._capacity:
            stall_until = self.drain_through(self.queue[0])
        self.queue.append(epoch)
        return stall_until

    def drain_through(self, epoch: _Epoch) -> float:
        """Drain queued epochs up to and including ``epoch``; returns its
        completion time.  Idempotent for already-drained epochs."""
        if epoch.drained:
            return epoch.drained_at
        while self.queue:
            head = self.queue.pop(0)
            start = max(self.drain_free, head.closed_at)
            head.drained_at = start + head.waves * self._latency
            self.drain_free = head.drained_at
            if head is epoch:
                return head.drained_at
        raise AnalysisError("epoch missing from its thread's drain queue")

    def drain_all(self) -> float:
        """Drain everything; returns the final completion time."""
        if self.queue:
            return self.drain_through(self.queue[-1])
        return self.drain_free


def simulate_epoch_hardware(
    trace: Trace,
    config: Optional[EpochHardwareConfig] = None,
    constraint_bound: float = 0.0,
) -> EpochHardwareResult:
    """Simulate BPFS-style buffered epoch hardware over a trace."""
    config = config or EpochHardwareConfig()
    config.validate()
    step = config.cost_model.seconds_per_event
    thread_clock: Dict[int, float] = {}
    last_write_time: Dict[int, float] = {}
    last_access_time: Dict[int, float] = {}

    drains: Dict[int, _ThreadDrainState] = {}
    open_epoch: Dict[int, _Epoch] = {}
    #: Last epoch to persist each block (conflict-detection tags).
    block_owner: Dict[int, _Epoch] = {}

    conflict_stall = 0.0
    buffer_stall = 0.0
    epochs_drained = 0
    persists = 0
    epoch_counter = 0

    def drain_state(thread: int) -> _ThreadDrainState:
        state = drains.get(thread)
        if state is None:
            state = _ThreadDrainState(
                config.persist_latency, config.buffer_epochs
            )
            drains[thread] = state
        return state

    def close_epoch(thread: int, now: float) -> float:
        """Close the open epoch (if it persisted); returns the clock after
        any back-pressure stall."""
        nonlocal buffer_stall, epoch_counter
        epoch = open_epoch.pop(thread, None)
        if epoch is None or epoch.waves == 0:
            return now
        epoch.closed_at = now
        stall_until = drain_state(thread).enqueue(epoch)
        if stall_until is not None and stall_until > now:
            buffer_stall += stall_until - now
            return stall_until
        return now

    def flush_owner(owner: _Epoch, now: float) -> float:
        """Conflict detected: wait for the owner's epoch to drain."""
        nonlocal conflict_stall
        if owner.drained:
            done = owner.drained_at
        else:
            if owner is open_epoch.get(owner.thread):
                # Force-close the still-open epoch (hardware splits it).
                open_epoch.pop(owner.thread)
                owner.closed_at = now
                drain_state(owner.thread).enqueue(owner)
            done = drain_state(owner.thread).drain_through(owner)
        if done > now:
            conflict_stall += done - now
            return done
        return now

    for _, thread, kind, addr, _, _, persistent, _, _ in trace.rows():
        clock = thread_clock.get(thread, 0.0)
        if kind is EventKind.PERSIST_BARRIER or kind is EventKind.THREAD_END:
            clock = close_epoch(thread, clock)
            thread_clock[thread] = clock + step
            continue
        if kind not in ACCESS_KINDS:
            thread_clock[thread] = clock + step
            continue

        store_like = kind is not EventKind.LOAD
        block = addr // 8
        # Conflict-flush: accessing a block whose last persister is a
        # different thread's undrained epoch stalls until it drains.
        owner = block_owner.get(block)
        if owner is not None and owner.thread != thread and not owner.drained:
            clock = flush_owner(owner, clock)

        # Volatile conflict serialisation (makespan model).
        if store_like:
            conflict = last_access_time.get(block)
        else:
            conflict = last_write_time.get(block)
        if conflict is not None and conflict > clock:
            clock = conflict
        finish = clock + step

        if store_like and persistent:
            persists += 1
            epoch = open_epoch.get(thread)
            if epoch is None:
                epoch = _Epoch(thread=thread, identity=epoch_counter)
                epoch_counter += 1
                open_epoch[thread] = epoch
            epoch.add_persist(block)
            block_owner[block] = epoch

        if store_like:
            last_write_time[block] = finish
            last_access_time[block] = finish
        elif finish > last_access_time.get(block, 0.0):
            last_access_time[block] = finish
        thread_clock[thread] = finish

    total = 0.0
    for thread, clock in thread_clock.items():
        clock = close_epoch(thread, clock)
        done = drain_state(thread).drain_all()
        final = max(clock, done)
        if final > total:
            total = final
    # Every created epoch has drained by the end.
    epochs_drained = epoch_counter

    return EpochHardwareResult(
        total_time=total,
        execution_time=config.cost_model.makespan(trace.chunks),
        conflict_stall_time=conflict_stall,
        buffer_stall_time=buffer_stall,
        epochs_drained=epochs_drained,
        persists=persists,
        constraint_bound=constraint_bound,
    )
