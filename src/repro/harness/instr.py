"""Instruction execution rate model.

The paper measures instruction execution rate natively on a Xeon E5645
(2.4 GHz) and treats it as the throughput ceiling: either the system runs
at the instruction rate, or it is persist-bound (Section 8).  We cannot
measure native x86 execution of the simulated program, so we model it two
ways, both derived from the trace:

1. A per-event cycle cost.  ``cycles_per_event`` is calibrated so that a
   single-threaded 100-byte CWL insert (~28 traced events) costs ≈250 ns
   — the ~4M inserts/s the paper's 30x strict-persistency slowdown at
   500 ns persists implies for its native single-thread run.

2. A *volatile execution makespan* for multithreaded runs: threads
   execute in parallel except where the SC execution order forces them
   not to — each event starts no earlier than its thread's previous
   event and no earlier than the last conflicting access to its address
   block (which is exactly how lock hand-offs serialise real threads).
   This reproduces the paper's observation that instruction rates "vary
   between log version and number of threads": CWL's in-lock copy keeps
   its aggregate rate near the single-thread rate, while 2LC's unlocked
   copies scale.

Persists cost nothing here — this is the volatile instruction rate of a
non-recoverable run, the paper's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.trace.columnar import CODE_LOAD, CODE_RMW, CODE_STORE, ColumnarChunk

#: Conflict granularity for the makespan model (a cache word).
_MAKESPAN_BLOCK = 8


@dataclass(frozen=True)
class InstructionCostModel:
    """Calibrated volatile-execution cost model.

    Attributes:
        cycles_per_event: cycles charged per traced memory event,
            absorbing the untraced ALU/control work around it.
        clock_hz: core clock (paper: Xeon E5645, 2.4 GHz).
    """

    cycles_per_event: float = 21.0
    clock_hz: float = 2.4e9

    @property
    def seconds_per_event(self) -> float:
        """Wall-clock seconds charged per traced event."""
        return self.cycles_per_event / self.clock_hz

    def serial_time(self, events: int) -> float:
        """Execution time of ``events`` on one thread, in seconds."""
        return events * self.seconds_per_event

    def event_times(self, chunks: Iterable[ColumnarChunk]) -> List[float]:
        """Per-event completion times under the parallel volatile model.

        Each event completes one ``cycles_per_event`` after the later of
        (a) its thread's previous event and (b) the last conflicting
        access (same word block, at least one side a store) — the
        standard critical-path schedule of the SC execution.  Index ``i``
        of the result corresponds to trace event ``i``.

        ``chunks`` are a trace's columnar chunks, in order (a
        :class:`~repro.trace.trace.Trace`'s ``chunks``); the walk reads
        only the kind, thread and address columns.
        """
        step = self.seconds_per_event
        thread_clock: Dict[int, float] = {}
        last_write: Dict[int, float] = {}
        last_access: Dict[int, float] = {}
        times: List[float] = []
        append = times.append
        for chunk in chunks:
            for code, thread, addr in zip(
                chunk.kinds, chunk.threads, chunk.addrs
            ):
                start = thread_clock.get(thread, 0.0)
                if code == CODE_LOAD:
                    block = addr // _MAKESPAN_BLOCK
                    conflict = last_write.get(block)
                    if conflict is not None and conflict > start:
                        start = conflict
                    finish = start + step
                    if finish > last_access.get(block, 0.0):
                        last_access[block] = finish
                elif code == CODE_STORE or code == CODE_RMW:
                    block = addr // _MAKESPAN_BLOCK
                    conflict = last_access.get(block)
                    if conflict is not None and conflict > start:
                        start = conflict
                    finish = start + step
                    last_write[block] = finish
                    if finish > last_access.get(block, 0.0):
                        last_access[block] = finish
                else:
                    finish = start + step
                thread_clock[thread] = finish
                append(finish)
        return times

    def makespan(self, chunks: Iterable[ColumnarChunk]) -> float:
        """Parallel volatile-execution time of a trace's chunks (see
        :meth:`event_times`), in seconds."""
        return max(self.event_times(chunks), default=0.0)

    def instruction_rate(
        self, chunks: Iterable[ColumnarChunk], operations: int
    ) -> float:
        """Aggregate operations/second at pure instruction-execution speed."""
        if operations <= 0:
            raise ValueError(f"operations must be positive, got {operations}")
        duration = self.makespan(chunks)
        if duration <= 0:
            raise ValueError("trace has no timed events")
        return operations / duration


#: The calibrated default used by all paper-reproduction harness code.
DEFAULT_COST_MODEL = InstructionCostModel()
