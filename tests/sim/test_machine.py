"""Unit tests for the simulated machine and thread trampoline."""

import pytest

from repro.errors import DeadlockError, MemoryAccessError, SimulationError
from repro.memory import layout
from repro.sim import Machine, RoundRobinScheduler, RandomScheduler
from repro.trace import EventKind, validate

from tests.sim.test_tso import DrainLastScheduler


def make_machine(**kwargs):
    kwargs.setdefault("scheduler", RoundRobinScheduler())
    return Machine(**kwargs)


class TestBasicExecution:
    def test_single_thread_load_store(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)

        def body(ctx):
            yield from ctx.store(cell, 7)
            value = yield from ctx.load(cell)
            return value

        thread = machine.spawn(body)
        machine.run()
        assert thread.result == 7

    def test_trace_records_thread_lifecycle(self):
        machine = make_machine()

        def body(ctx):
            yield from ctx.mark("hello")

        machine.spawn(body)
        trace = machine.run()
        kinds = [event.kind for event in trace]
        assert kinds == [
            EventKind.THREAD_BEGIN,
            EventKind.MARK,
            EventKind.THREAD_END,
        ]

    def test_persistent_flag_set_by_region(self):
        machine = make_machine()
        pcell = machine.persistent_heap.malloc(8)
        vcell = machine.volatile_heap.malloc(8)

        def body(ctx):
            yield from ctx.store(pcell, 1)
            yield from ctx.store(vcell, 1)

        machine.spawn(body)
        trace = machine.run()
        stores = [e for e in trace if e.kind is EventKind.STORE]
        assert [e.persistent for e in stores] == [True, False]

    def test_spawn_rejects_plain_function(self):
        machine = make_machine()

        def not_a_generator(ctx):
            return 42

        with pytest.raises(SimulationError):
            machine.spawn(not_a_generator)

    def test_thread_result_propagates(self):
        machine = make_machine()

        def body(ctx, value):
            yield from ctx.mark("x")
            return value * 2

        threads = [machine.spawn(body, i) for i in range(4)]
        machine.run()
        assert [t.result for t in threads] == [0, 2, 4, 6]

    def test_max_steps_guard(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)

        def spinner(ctx):
            while True:
                yield from ctx.load(cell)

        machine.spawn(spinner)
        with pytest.raises(SimulationError):
            machine.run(max_steps=100)


class TestAtomics:
    def test_cas_success_traced_as_rmw(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)

        def body(ctx):
            ok, observed = yield from ctx.cas(cell, 0, 5)
            return ok, observed

        thread = machine.spawn(body)
        trace = machine.run()
        assert thread.result == (True, 0)
        assert any(e.kind is EventKind.RMW for e in trace)

    def test_cas_failure_traced_as_load(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)
        machine.memory.write(cell, 8, 9)

        def body(ctx):
            ok, observed = yield from ctx.cas(cell, 0, 5)
            return ok, observed

        thread = machine.spawn(body)
        trace = machine.run()
        assert thread.result == (False, 9)
        assert not any(e.kind is EventKind.RMW for e in trace)
        assert machine.memory.read(cell, 8) == 9

    def test_swap_returns_old(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)
        machine.memory.write(cell, 8, 3)

        def body(ctx):
            old = yield from ctx.swap(cell, 10)
            return old

        thread = machine.spawn(body)
        machine.run()
        assert thread.result == 3
        assert machine.memory.read(cell, 8) == 10

    def test_fetch_add_wraps_at_size(self):
        machine = make_machine()
        cell = machine.volatile_heap.malloc(8)
        machine.memory.write(cell, 8, (1 << 64) - 1)

        def body(ctx):
            old = yield from ctx.fetch_add(cell, 1)
            return old

        thread = machine.spawn(body)
        machine.run()
        assert thread.result == (1 << 64) - 1
        assert machine.memory.read(cell, 8) == 0

    def test_concurrent_fetch_add_is_atomic(self):
        machine = Machine(scheduler=RandomScheduler(seed=5))
        cell = machine.volatile_heap.malloc(8)

        def body(ctx, n):
            for _ in range(n):
                yield from ctx.fetch_add(cell, 1)

        for _ in range(4):
            machine.spawn(body, 50)
        machine.run()
        assert machine.memory.read(cell, 8) == 200


class TestWaiting:
    def test_wait_until_blocks_then_resumes(self):
        machine = make_machine()
        flag = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            value = yield from ctx.wait_equals(flag, 1)
            return value

        def setter(ctx):
            for _ in range(5):
                yield from ctx.mark("busy")
            yield from ctx.store(flag, 1)

        wait_thread = machine.spawn(waiter)
        machine.spawn(setter)
        trace = machine.run()
        assert wait_thread.result == 1
        validate(trace)

    def test_wait_emits_failed_then_successful_load(self):
        machine = make_machine()
        flag = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            yield from ctx.wait_equals(flag, 1)

        def setter(ctx):
            yield from ctx.store(flag, 1)

        machine.spawn(waiter)
        machine.spawn(setter)
        trace = machine.run()
        loads = [
            e for e in trace if e.kind is EventKind.LOAD and e.addr == flag
        ]
        assert [e.value for e in loads] == [0, 1]

    def test_deadlock_detected(self):
        machine = make_machine()
        flag = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            yield from ctx.wait_equals(flag, 1)

        machine.spawn(waiter)
        with pytest.raises(DeadlockError):
            machine.run()

    def test_wait_satisfied_immediately(self):
        machine = make_machine()
        flag = machine.volatile_heap.malloc(8)
        machine.memory.write(flag, 8, 1)

        def waiter(ctx):
            value = yield from ctx.wait_equals(flag, 1)
            return value

        thread = machine.spawn(waiter)
        trace = machine.run()
        assert thread.result == 1
        loads = [e for e in trace if e.kind is EventKind.LOAD]
        assert len(loads) == 1


class TestHeapOps:
    def test_malloc_and_free_traced(self):
        machine = make_machine()

        def body(ctx):
            addr = yield from ctx.malloc_persistent(64)
            yield from ctx.store(addr, 1)
            yield from ctx.free_persistent(addr)
            return addr

        thread = machine.spawn(body)
        trace = machine.run()
        assert machine.memory.is_persistent(thread.result)
        kinds = [e.kind for e in trace]
        assert EventKind.MALLOC in kinds and EventKind.FREE in kinds

    def test_bulk_store_load_roundtrip(self):
        machine = make_machine()
        base = machine.volatile_heap.malloc(128)
        payload = bytes(range(100))

        def body(ctx):
            yield from ctx.store_bytes(base + 4, payload)
            data = yield from ctx.load_bytes(base + 4, 100)
            return data

        thread = machine.spawn(body)
        trace = machine.run()
        assert thread.result == payload
        validate(trace)
        # Unaligned 100-byte write: 4 + 12*8 bytes... pieces respect words.
        stores = [e for e in trace if e.kind is EventKind.STORE]
        assert sum(e.size for e in stores) == 100
        for e in stores:
            assert e.size <= layout.WORD_SIZE


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def build():
            machine = Machine(scheduler=RandomScheduler(seed=9))
            cell = machine.volatile_heap.malloc(8)

            def body(ctx, n):
                for _ in range(n):
                    yield from ctx.fetch_add(cell, 1)

            for _ in range(3):
                machine.spawn(body, 10)
            return machine.run()

        first, second = build(), build()
        assert [
            (e.thread, e.kind, e.addr, e.value) for e in first
        ] == [(e.thread, e.kind, e.addr, e.value) for e in second]

    def test_different_seeds_interleave_differently(self):
        def build(seed):
            machine = Machine(scheduler=RandomScheduler(seed=seed))
            cell = machine.volatile_heap.malloc(8)

            def body(ctx, n):
                for _ in range(n):
                    yield from ctx.fetch_add(cell, 1)

            for _ in range(3):
                machine.spawn(body, 10)
            return [e.thread for e in machine.run()]

        assert build(1) != build(2)


def failed_run(consistency, program, persistent_size=None):
    """Run ``program(ctx, P)`` (P: the persistent region's base) as the
    only thread, draining store buffers as late as possible; returns
    ``(completed steps, error text, event kinds traced)`` of the
    MemoryAccessError it must raise."""
    machine = Machine(
        scheduler=DrainLastScheduler(),
        consistency=consistency,
        persistent_size=persistent_size,
    )
    base = machine.memory.region("persistent").base
    machine.spawn(program, base)
    with pytest.raises(MemoryAccessError) as failure:
        machine.run()
    return (
        machine._steps,
        str(failure.value),
        [event.kind for event in machine.trace],
    )


class TestAccessValidation:
    """An access is validated and mapped when it executes, so SC and TSO
    reject the same bad access at the same step with the same text —
    a TSO store when it enters the buffer, not when it drains."""

    BAD_STORES = {
        "word-crossing": (
            lambda p: (p + 4, 1, 8),
            "access at 0x80000004 size 8 crosses an aligned 8-byte word "
            "boundary",
        ),
        "unmapped": (lambda p: (0x10, 1, 8), "unmapped address 0x10"),
        "value-too-large": (
            lambda p: (p, 1 << 70, 8),
            f"value {1 << 70} does not fit in 8 bytes",
        ),
    }

    @pytest.mark.parametrize("name", sorted(BAD_STORES))
    def test_bad_store_fails_at_issue_on_sc_and_tso(self, name):
        where, text = self.BAD_STORES[name]

        def program(ctx, base):
            addr, value, size = where(base)
            yield from ctx.store(addr, value, size)
            yield from ctx.mark("after")

        sc = failed_run("sc", program)
        assert sc == (1, text, [EventKind.THREAD_BEGIN])
        assert failed_run("tso", program) == sc

    def test_bad_store_behind_buffered_store_fails_at_issue(self):
        def program(ctx, base):
            yield from ctx.store(base, 1)
            yield from ctx.store(base + 4, 1, 8)

        sc = failed_run("sc", program)
        assert sc[:2] == (
            2,
            "access at 0x80000004 size 8 crosses an aligned 8-byte word "
            "boundary",
        )
        steps, text, _ = failed_run("tso", program)
        assert (steps, text) == sc[:2]

    def test_forwarded_load_validates_its_own_range(self):
        # On TSO every byte of the word-crossing load is buffered, so
        # the load would forward entirely ("sb-forward") without
        # touching memory; it must still be rejected, as on SC.
        def program(ctx, base):
            yield from ctx.store(base, 1)
            yield from ctx.store(base + 8, 2)
            yield from ctx.load(base + 4, 8)

        sc = failed_run("sc", program)
        assert sc[:2] == (
            3,
            "access at 0x80000004 size 8 crosses an aligned 8-byte word "
            "boundary",
        )
        steps, text, kinds = failed_run("tso", program)
        assert (steps, text) == sc[:2]
        assert EventKind.LOAD not in kinds

    def test_forwarded_load_of_unmapped_range_rejected(self):
        def program(ctx, base):
            yield from ctx.store(base, 1)
            yield from ctx.load(base, 0)

        sc = failed_run("sc", program)
        assert sc[:2] == (2, "access size must be in [1, 8], got 0")
        assert failed_run("tso", program)[:2] == sc[:2]


class TestFlushRange:
    """A flush maps its whole ``[addr, addr+size)`` range, like a load:
    a flush running past the end of a region is rejected."""

    FLUSHES = {
        "clflush": EventKind.CLFLUSH,
        "clflushopt": EventKind.CLFLUSH_OPT,
        "clwb": EventKind.CLWB,
    }

    @pytest.mark.parametrize("behind_store", [False, True])
    @pytest.mark.parametrize("consistency", ["sc", "tso"])
    @pytest.mark.parametrize("flush", sorted(FLUSHES))
    def test_flush_past_region_end_rejected(
        self, flush, consistency, behind_store
    ):
        def program(ctx, base):
            if behind_store:
                yield from ctx.store(base, 1)
            yield from getattr(ctx, flush)(base + 8, 8)
            yield from ctx.mark("after")

        steps, text, kinds = failed_run(
            consistency, program, persistent_size=12
        )
        assert steps == (2 if behind_store else 1)
        assert text == (
            "access at 0x80000008 size 8 runs past region 'persistent'"
        )
        assert self.FLUSHES[flush] not in kinds

    def test_load_past_region_end_rejected_alike(self):
        def program(ctx, base):
            yield from ctx.load(base + 8, 8)

        assert failed_run("sc", program, persistent_size=12) == (
            1,
            "access at 0x80000008 size 8 runs past region 'persistent'",
            [EventKind.THREAD_BEGIN],
        )

    @pytest.mark.parametrize("consistency", ["sc", "tso"])
    @pytest.mark.parametrize("flush", sorted(FLUSHES))
    def test_flush_at_region_end_accepted(self, flush, consistency):
        machine = Machine(
            scheduler=DrainLastScheduler(),
            consistency=consistency,
            persistent_size=12,
        )
        base = machine.memory.region("persistent").base

        def program(ctx):
            yield from ctx.store(base + 8, 1, 4)
            yield from getattr(ctx, flush)(base + 8, 4)

        machine.spawn(program)
        trace = machine.run()
        flushed, = [e for e in trace if e.is_flush]
        assert flushed.kind is self.FLUSHES[flush]
        assert (flushed.addr, flushed.size, flushed.persistent) == (
            base + 8, 4, True,
        )
