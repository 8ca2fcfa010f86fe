"""Differential check of the machine's trusted event constructor.

The machine validates and maps each access once, when it executes it,
and then builds the trace event with
:func:`~repro.trace.events.machine_event`, which skips
``MemoryEvent.__post_init__``.  Every event it emits must therefore be
one the validating ``MemoryEvent(**fields)`` accepts and reproduces
exactly — every field, ``info`` included — and a machine-built event
must take no more memory than a validated one (the attribute dict must
stay key-shared).
"""

import dataclasses
import tracemalloc

import pytest

from repro.fuzz.targets import make_target
from repro.gpu.lanes import build_lane_machine
from repro.litmus.corpus import default_corpus
from repro.queue.workload import run_insert_workload
from repro.sim import RandomScheduler
from repro.trace.events import MemoryEvent, machine_event

FIELDS = [field.name for field in dataclasses.fields(MemoryEvent)]


def event_fields(event):
    return {name: getattr(event, name) for name in FIELDS}


def assert_revalidates(trace):
    """Rebuild every event through the validating constructor."""
    assert len(trace) > 0
    for event in trace:
        assert type(event) is MemoryEvent
        rebuilt = MemoryEvent(**event_fields(event))
        assert rebuilt == event
        assert rebuilt.info == event.info
        # Same attributes, set in the same (declaration) order.
        assert list(vars(event).items()) == list(vars(rebuilt).items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gpu_lanes(seed):
    machine, _ = build_lane_machine(256, 8, 8, 32, RandomScheduler(seed))
    assert_revalidates(machine.run())


@pytest.mark.parametrize("lock_kind", ["mcs", "ticket"])
@pytest.mark.parametrize("consistency", ["sc", "tso"])
@pytest.mark.parametrize("design", ["cwl", "2lc"])
def test_queues(design, consistency, lock_kind):
    result = run_insert_workload(
        design=design, threads=3, inserts_per_thread=4, lock_kind=lock_kind,
        consistency=consistency, seed=5,
    )
    assert_revalidates(result.trace)


@pytest.mark.parametrize(
    "target", ["publish-clwb", "publish-clflushopt-nofence"]
)
def test_x86_flush_programs(target):
    for seed in range(3):
        run = make_target(target).build(2, 4, RandomScheduler(seed))
        assert any(event.is_flush for event in run.trace)
        assert_revalidates(run.trace)


@pytest.mark.parametrize("consistency", ["sc", "tso"])
def test_litmus_corpus(consistency):
    for program in default_corpus():
        for seed in range(2):
            machine, _ = program.build(
                RandomScheduler(seed), consistency=consistency
            )
            assert_revalidates(machine.run())


def traced_bytes(build, rows):
    """Bytes still allocated after building one event per field row."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [build(row) for row in rows]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == len(rows)
    return after - before


def test_machine_event_no_larger_than_validated():
    machine, _ = build_lane_machine(64, 4, 8, 8, RandomScheduler(0))
    rows = [event_fields(event) for event in machine.run()]
    trusted = traced_bytes(lambda row: machine_event(**row), rows)
    validated = traced_bytes(lambda row: MemoryEvent(**row), rows)
    # Per event, with one byte of slack for the interpreter's own
    # bookkeeping (a constant ~100 bytes over the whole list).  An
    # attribute dict that is no longer key-shared costs ~175 bytes more
    # per event.
    per_event = (trusted / len(rows), validated / len(rows))
    assert per_event[0] <= per_event[1] + 1, per_event
