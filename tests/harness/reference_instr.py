"""Per-event reference for the instruction-rate makespan model.

:func:`reference_event_times` is the straightforward walk over
:class:`~repro.trace.events.MemoryEvent` objects, classifying each event
through its ``is_access``/``is_store_like`` properties.  The production
walk (:meth:`repro.harness.instr.InstructionCostModel.event_times`)
reads columnar chunks instead and must return exactly the same times:
it does the same float operations in the same order.
"""

from typing import Dict, Iterable, List

from repro.harness.instr import InstructionCostModel
from repro.trace.events import MemoryEvent

#: Conflict granularity of the makespan model (a cache word).
BLOCK = 8


def reference_event_times(
    events: Iterable[MemoryEvent], model: InstructionCostModel
) -> List[float]:
    """Per-event completion times of ``events`` (in SC order)."""
    step = model.seconds_per_event
    thread_clock: Dict[int, float] = {}
    last_write: Dict[int, float] = {}
    last_access: Dict[int, float] = {}
    times: List[float] = []
    for event in events:
        thread = event.thread
        start = thread_clock.get(thread, 0.0)
        if event.is_access:
            block = event.addr // BLOCK
            if event.is_store_like:
                conflict = last_access.get(block)
            else:
                conflict = last_write.get(block)
            if conflict is not None and conflict > start:
                start = conflict
        finish = start + step
        thread_clock[thread] = finish
        if event.is_access:
            block = event.addr // BLOCK
            if event.is_store_like:
                last_write[block] = finish
            if finish > last_access.get(block, 0.0):
                last_access[block] = finish
        times.append(finish)
    return times
