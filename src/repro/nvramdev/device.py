"""Finite NVRAM device timing model (extension beyond the paper).

The paper's evaluation assumes "a memory system with infinite bandwidth
and memory banks (so bank conflicts never occur), but with finite persist
latency" and notes that real systems must also delay for bank conflicts
and bandwidth (Section 7).  This module supplies that missing lower
layer: an event-driven drain simulation of the persist DAG over a device
with a finite number of banks and bounded per-bank queueing, so the gap
between the constraint-critical-path bound and a concrete device can be
measured (the ablation benchmarks sweep bank count).

It also models *buffered strict persistency* (Section 4.1): persists
drain serially from a bounded FIFO while execution runs ahead, stalling
only when the buffer fills or a persist sync empties it.

Finally, :func:`sub_persists` exposes the device's *real* write unit:
an atomic persist of the model is, at device level, a sequence of
smaller writes, and a failure mid-sequence leaves a torn persist.  The
fault-injection engine (:mod:`repro.inject.engine`) splits persists
with this function so torn-write faults follow device semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.lattice import GraphDomain
from repro.errors import AnalysisError


def sub_persists(
    addr: int, data: bytes, granularity: int
) -> List[Tuple[int, bytes]]:
    """Split one atomic persist into device-level sub-writes.

    Returns the (addr, bytes) fragments, in address order, that a device
    with a ``granularity``-byte write unit would issue for this persist.
    A failure after the first ``k`` fragments landed is a torn persist.

    Raises:
        AnalysisError: when ``granularity`` is not a positive power of
            two or ``data`` is empty.
    """
    if granularity <= 0 or granularity & (granularity - 1):
        raise AnalysisError(
            f"device write granularity must be a power of two, got "
            f"{granularity}"
        )
    if not data:
        raise AnalysisError("cannot split an empty persist")
    return [
        (addr + start, data[start : start + granularity])
        for start in range(0, len(data), granularity)
    ]


@dataclass(frozen=True)
class DeviceConfig:
    """Parameters of the simulated NVRAM device.

    Attributes:
        persist_latency: seconds per persist once issued to a bank.
        banks: independent banks; persists to the same bank serialise.
        bank_bits_ignored: low address bits ignored when hashing a
            persist to a bank (default 6: 64-byte interleave).
    """

    persist_latency: float = 500e-9
    banks: int = 8
    bank_bits_ignored: int = 6

    def validate(self) -> None:
        """Raise AnalysisError on unusable parameters."""
        if self.persist_latency <= 0:
            raise AnalysisError("persist_latency must be positive")
        if self.banks <= 0:
            raise AnalysisError("banks must be positive")
        if self.bank_bits_ignored < 0:
            raise AnalysisError("bank_bits_ignored must be non-negative")

    def bank_of(self, addr: int) -> int:
        """Bank servicing ``addr``."""
        return (addr >> self.bank_bits_ignored) % self.banks


@dataclass
class DrainResult:
    """Outcome of draining a persist DAG through a device."""

    total_time: float
    persists: int
    #: Lower bound: critical path length x persist latency.
    constraint_bound: float
    #: Lower bound: ceil(persists / banks) x persist latency.
    bandwidth_bound: float

    @property
    def efficiency(self) -> float:
        """How close the device came to the larger lower bound (<= 1)."""
        bound = max(self.constraint_bound, self.bandwidth_bound)
        if self.total_time <= 0:
            return 1.0
        return bound / self.total_time


def drain_time(graph: GraphDomain, config: Optional[DeviceConfig] = None) -> DrainResult:
    """Event-driven drain of the persist DAG through a finite device.

    Each persist issues as soon as (a) all of its dependences completed
    and (b) its bank is free; banks service one persist at a time.  With
    ``banks`` large this converges to the paper's constraint-critical-
    path bound, which the tests assert.
    """
    config = config or DeviceConfig()
    config.validate()
    nodes = graph.nodes
    if not nodes:
        return DrainResult(0.0, 0, 0.0, 0.0)

    remaining = {node.pid: len(node.deps) for node in nodes}
    dependents: Dict[int, List[int]] = {node.pid: [] for node in nodes}
    for node in nodes:
        for dep in node.deps:
            dependents[dep].append(node.pid)

    bank_free = [0.0] * config.banks
    ready_time = {node.pid: 0.0 for node in nodes if not node.deps}
    # Min-heap of (ready_time, pid) for dependency-ready persists.
    heap: List[tuple] = [(0.0, pid) for pid in sorted(ready_time)]
    finished = 0
    total_time = 0.0
    while heap:
        ready_at, pid = heappop(heap)
        bank = config.bank_of(nodes[pid].addr)
        start = max(ready_at, bank_free[bank])
        finish = start + config.persist_latency
        bank_free[bank] = finish
        finished += 1
        if finish > total_time:
            total_time = finish
        for successor in dependents[pid]:
            remaining[successor] -= 1
            current = ready_time.get(successor, 0.0)
            if finish > current:
                ready_time[successor] = finish
            if remaining[successor] == 0:
                heappush(heap, (ready_time[successor], successor))
    if finished != len(nodes):
        raise AnalysisError(
            f"persist DAG has a cycle: drained {finished} of {len(nodes)}"
        )
    levels = graph.levels()
    critical = max(levels, default=0)
    bandwidth_units = -(-len(nodes) // config.banks)
    return DrainResult(
        total_time=total_time,
        persists=len(nodes),
        constraint_bound=critical * config.persist_latency,
        bandwidth_bound=bandwidth_units * config.persist_latency,
    )


@dataclass
class PersistSchedule:
    """Execution-relative persist/sync arrival series derived from a trace.

    ``persist_times[i]`` is the volatile-model completion time of the
    i-th persist (in arrival order on the serialising bus);
    ``sync_times`` are the completion times of ``PERSIST_SYNC``
    annotations.  Feed both to :func:`buffered_strict_time`.
    """

    persist_times: List[float]
    sync_times: List[float]
    execution_time: float


def schedule_from_trace(trace, cost_model=None) -> PersistSchedule:
    """Extract the persist arrival schedule from a trace.

    Uses the volatile parallel-execution event times; arrivals are
    sorted by time (the order a serialising bus would observe them).
    The single-FIFO buffered-strict model is exact for single-thread
    traces and a bus-serialised approximation for multithreaded ones.
    """
    from repro.harness.instr import DEFAULT_COST_MODEL
    from repro.trace.events import STORE_KINDS, EventKind

    cost_model = cost_model or DEFAULT_COST_MODEL
    times = cost_model.event_times(trace.chunks)
    persist_times: List[float] = []
    sync_times: List[float] = []
    for row, finish in zip(trace.rows(), times):
        _, _, kind, _, _, _, persistent, _, _ = row
        if persistent and kind in STORE_KINDS:
            persist_times.append(finish)
        elif kind is EventKind.PERSIST_SYNC:
            sync_times.append(finish)
    persist_times.sort()
    sync_times.sort()
    return PersistSchedule(
        persist_times=persist_times,
        sync_times=sync_times,
        execution_time=max(times, default=0.0),
    )


@dataclass(frozen=True)
class BufferedStrictConfig:
    """Parameters for buffered strict persistency (paper Section 4.1).

    Persists enter a single totally-ordered FIFO (e.g., serialised by the
    bus) and drain one per ``persist_latency``; execution proceeds ahead
    of persistent state, stalling when the queue holds ``depth`` entries
    or when a persist sync requires it to empty.
    """

    persist_latency: float = 500e-9
    depth: int = 64

    def validate(self) -> None:
        """Raise AnalysisError on unusable parameters."""
        if self.persist_latency <= 0:
            raise AnalysisError("persist_latency must be positive")
        if self.depth <= 0:
            raise AnalysisError("depth must be positive")


@dataclass
class BufferedStrictResult:
    """Outcome of the buffered-strict drain simulation."""

    total_time: float
    execution_time: float
    stall_time: float
    persists: int
    syncs: int

    @property
    def slowdown(self) -> float:
        """Total time relative to unstalled execution time."""
        if self.execution_time <= 0:
            return 1.0
        return self.total_time / self.execution_time


def buffered_strict_time(
    persist_times: List[float],
    execution_time: float,
    config: Optional[BufferedStrictConfig] = None,
    sync_times: Optional[List[float]] = None,
) -> BufferedStrictResult:
    """Simulate buffered strict persistency over a persist arrival series.

    Args:
        persist_times: execution-relative instants at which each persist
            is generated (monotone non-decreasing).
        execution_time: unstalled volatile execution time of the run.
        config: buffer depth and drain latency.
        sync_times: execution-relative instants of persist sync
            operations; execution stalls at each until the queue drains
            (ordering persists before visible side effects).
    """
    config = config or BufferedStrictConfig()
    config.validate()
    syncs = sorted(sync_times or [])
    sync_index = 0
    delay = 0.0  # accumulated stall so far
    drain_free = 0.0  # wall-clock time the FIFO head frees up
    queue: List[float] = []  # wall-clock completion times of queued persists

    def advance_queue(now: float) -> None:
        while queue and queue[0] <= now:
            queue.pop(0)

    for generated in persist_times:
        # Any syncs before this persist stall execution until drained.
        while sync_index < len(syncs) and syncs[sync_index] <= generated:
            wall = syncs[sync_index] + delay
            advance_queue(wall)
            if queue:
                stall = queue[-1] - wall
                if stall > 0:
                    delay += stall
                queue.clear()
            sync_index += 1
        wall = generated + delay
        advance_queue(wall)
        if len(queue) >= config.depth:
            stall = queue[0] - wall
            if stall > 0:
                delay += stall
                wall = queue[0]
            advance_queue(wall)
            while len(queue) >= config.depth:
                queue.pop(0)
        start = max(wall, drain_free)
        finish = start + config.persist_latency
        drain_free = finish
        queue.append(finish)

    end_of_execution = execution_time + delay
    # Remaining syncs stall at end as well.
    while sync_index < len(syncs):
        wall = syncs[sync_index] + delay
        advance_queue(wall)
        if queue:
            stall = queue[-1] - wall
            if stall > 0:
                delay += stall
            queue.clear()
        sync_index += 1
        end_of_execution = execution_time + delay
    total = max(end_of_execution, drain_free)
    return BufferedStrictResult(
        total_time=total,
        execution_time=execution_time,
        stall_time=delay,
        persists=len(persist_times),
        syncs=len(syncs),
    )
