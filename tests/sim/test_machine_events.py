"""Differential check of the events the machine writes into its trace.

The machine validates and maps each access once, when it executes it,
and then appends the event's raw fields to the trace's columns.  Every
event materialised from those columns must therefore be one the
validating ``MemoryEvent(**fields)`` accepts and reproduces exactly —
every field, ``info`` included.
"""

import dataclasses

import pytest

from repro.fuzz.targets import make_target
from repro.gpu.lanes import build_lane_machine
from repro.litmus.corpus import default_corpus
from repro.queue.workload import run_insert_workload
from repro.sim import RandomScheduler
from repro.trace.events import MemoryEvent

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
