"""Lockstep differential test for the machine's incremental runnable set.

``Machine.run`` keeps its runnable list up to date step by step: only the
stepped agent's thread and the WAITING threads whose watched word was
written are re-checked.  :func:`reference_runnable` is the full O(threads)
scan it replaced; the wrappers below assert, at every ``pick``, that the
list the scheduler receives equals the scan element for element.
"""

import pytest

from repro.check import CheckConfig, check_target
from repro.gpu.lanes import build_lane_machine
from repro.litmus.corpus import corpus_by_name, default_corpus
from repro.litmus.runner import run_program
from repro.queue.workload import run_insert_workload
from repro.sim import Machine, RandomScheduler, Scheduler
from repro.sim.machine import _DRAIN_BASE, ThreadState
from repro.sim.scheduler import ReplayableScheduler


def reference_runnable(machine):
    """The full scan: thread ``t`` (NEW, READY, or WAITING with its
    predicate true on the value it would observe now), then its drain
    agent while its store buffer is non-empty, in thread-id order."""
    runnable = []
    for thread in machine._threads:
        if thread.state in (ThreadState.NEW, ThreadState.READY):
            runnable.append(thread.thread_id)
        elif thread.state is ThreadState.WAITING:
            value = machine._visible_value(
                thread, thread.wait.addr, thread.wait.size
            )
            if thread.wait.predicate(value):
                runnable.append(thread.thread_id)
        if thread.store_buffer:
            runnable.append(_DRAIN_BASE + thread.thread_id)
    return runnable


class LockstepScheduler(Scheduler):
    """Delegates to ``inner`` after checking ``runnable`` against the
    reference scan of the bound machine."""

    def __init__(self, inner):
        self._inner = inner
        self.machine = None
        self.checked = 0

    def bind_machine(self, machine):
        self.machine = machine

    def pick(self, runnable):
        assert list(runnable) == reference_runnable(self.machine)
        self.checked += 1
        return self._inner.pick(runnable)


@pytest.mark.parametrize("consistency", ["sc", "tso"])
@pytest.mark.parametrize("lock_kind", ["mcs", "ticket"])
@pytest.mark.parametrize("design", ["cwl", "2lc"])
def test_lock_heavy_queues(design, lock_kind, consistency):
    for seed in range(3):
        scheduler = LockstepScheduler(RandomScheduler(seed))
        result = run_insert_workload(
            design=design, threads=4, inserts_per_thread=4,
            lock_kind=lock_kind, consistency=consistency, seed=seed,
            scheduler=scheduler,
        )
        assert scheduler.checked == result.machine._steps


def test_gpu_lanes():
    scheduler = LockstepScheduler(RandomScheduler(0))
    machine, _ = build_lane_machine(64, 4, 8, 8, scheduler)
    machine.run()
    assert scheduler.checked == machine._steps


def test_tso_litmus_corpus():
    """Every corpus program on TSO, including the futex-style
    ``mp-wait`` hand-off whose waiter is woken by a drained store."""
    assert "mp-wait" in corpus_by_name()
    for program in default_corpus():
        for seed in range(4):
            scheduler = LockstepScheduler(RandomScheduler(seed))
            machine, _ = program.build(scheduler, consistency="tso")
            machine.run()
            assert scheduler.checked


def test_restore_then_resume_under_share_replay(monkeypatch):
    """``replay="share"`` restores a snapshot and resumes ``run()`` for
    every schedule after the first; the rebuilt set must match too, on
    SC (a 2LC check subtree) and TSO (the ``mp-wait`` litmus program)."""
    checked = []
    pick = ReplayableScheduler.pick

    def lockstep_pick(self, runnable):
        assert list(runnable) == reference_runnable(self.machine)
        checked.append(len(runnable))
        return pick(self, runnable)

    monkeypatch.setattr(ReplayableScheduler, "pick", lockstep_pick)
    result = check_target(
        "queue-2lc-faithful", 2, 1,
        CheckConfig(replay="share", forced_prefix=(0,) * 16),
    )
    assert result.stats.schedules > 1
    assert checked
    checked.clear()
    run_program(corpus_by_name()["mp-wait"], ["epoch"])
    assert checked


def test_woken_waiter_rejoins_in_thread_order():
    """A blocked waiter leaves the list and, once another thread writes
    its word, re-enters at its thread-id position."""

    def waiter(ctx, flag):
        yield from ctx.wait_equals(flag, 1)

    def setter(ctx, addr):
        yield from ctx.store(addr, 1)

    seen = []

    class LowestFirst(Scheduler):
        def pick(self, runnable):
            seen.append(list(runnable))
            return runnable[0]

    machine = Machine(scheduler=LowestFirst())
    flag = machine.volatile_heap.malloc(8)
    machine.spawn(waiter, flag)
    machine.spawn(setter, flag)
    machine.spawn(setter, machine.volatile_heap.malloc(8))
    machine.run()
    # t0 begins and blocks; t1 begins and sets the flag; t0 is back
    # ahead of t2.
    assert seen == [
        [0, 1, 2], [0, 1, 2], [1, 2], [1, 2], [0, 2], [2], [2],
    ]
