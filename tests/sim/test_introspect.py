"""Footprint introspection regressions (DPOR soundness contract).

A footprint must cover *every* effect a scheduling step can have on
shared machine state.  On TSO, mfence and the RMWs drain the whole
store buffer — including buffered clflush/clflushopt/clwb entries,
whose emission *reads* the flushed line (its position among other
threads' stores to that line decides which persists it orders).  These
tests pin that the drain-inheriting footprints claim those reads; a
fence whose buffer holds only a flush entry was once classified fully
local, hiding the flush-vs-remote-store race from DPOR.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Machine, ReplayScheduler, ops
from repro.sim.introspect import next_footprint
from repro.sim.machine import _DRAIN_BASE


def run_steps(machine, choices):
    """Run exactly the steps of ``choices`` (agent ids, in order); the
    machine stops between steps when the recording runs out."""
    machine.scheduler = ReplayScheduler(choices)
    with pytest.raises(SimulationError, match="recording exhausted"):
        machine.run()


def flush_fence_machine():
    """One thread at ``store x; clflushopt y; mfence``, stepped until
    the store has drained: the buffer holds only the flush entry and
    the pending op is the fence."""
    machine = Machine(consistency="tso")
    x = machine.persistent_heap.malloc(64)
    y = machine.persistent_heap.malloc(64)

    def body(ctx):
        yield from ctx.store(x, 1)
        yield from ctx.clflushopt(y)
        yield from ctx.fence()

    machine.spawn(body)
    # THREAD_BEGIN (pending = Store x), buffer the store (pending =
    # ClFlushOpt y), buffer the flush (pending = Fence).
    run_steps(machine, [0, 0, 0])
    return machine, x, y


class TestFenceFootprint:
    def test_fence_with_only_buffered_flush_is_not_local(self):
        machine, x, y = flush_fence_machine()
        run_steps(machine, [_DRAIN_BASE])  # drain the store: buffer = [flush y]
        thread = machine._threads[0]
        assert [entry[0] for entry in thread.store_buffer] == ["flush"]
        assert isinstance(thread.pending, ops.Fence)
        footprint = next_footprint(machine, 0)
        # The fence emits the buffered clflushopt: it reads line y, so
        # DPOR must see its race with another thread's store to y.
        assert not footprint.is_local
        assert (y, 8, True) in footprint.reads

    def test_fence_claims_both_buffered_stores_and_flushes(self):
        machine, x, y = flush_fence_machine()
        footprint = next_footprint(machine, 0)
        assert (x, 8, True) in footprint.writes
        assert (y, 8, True) in footprint.reads

    def test_rmw_footprint_includes_buffered_flush_reads(self):
        machine = Machine(consistency="tso")
        x = machine.persistent_heap.malloc(64)
        y = machine.persistent_heap.malloc(64)
        cell = machine.volatile_heap.malloc(8)

        def body(ctx):
            yield from ctx.store(x, 1)
            yield from ctx.clflushopt(y)
            yield from ctx.fetch_add(cell, 1)

        machine.spawn(body)
        # THREAD_BEGIN, buffer the store, buffer the flush.
        run_steps(machine, [0, 0, 0])
        thread = machine._threads[0]
        assert isinstance(thread.pending, ops.FetchAdd)
        footprint = next_footprint(machine, 0)
        # The atomic drains the buffer first (x86 lock prefix): it
        # writes the buffered store and emits (reads) the buffered
        # flush, in addition to its own target.
        assert (y, 8, True) in footprint.reads
        assert (x, 8, True) in footprint.writes
        assert any(addr == cell for addr, _, _ in footprint.writes)
