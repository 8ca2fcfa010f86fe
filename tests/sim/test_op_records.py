"""The op records keep the behaviour of the frozen dataclasses they
replaced: the same constructors, equality, hashes and reprs, and the
same footprints under introspection.

The pinned reprs and hashes were read off the frozen-dataclass records;
a hash of a record whose fields are all ints and bools is the hash of
its field tuple, which is the same on every run and platform word size
of 64 bits.
"""

import hashlib
import random

import pytest

from repro.sim import Machine, ReplayableScheduler, ops
from repro.sim.introspect import agent_footprints, next_footprint

#: (record, repr, hash) as the frozen dataclasses gave them.
PINNED = [
    (ops.Load(0x1000), "Load(addr=4096, size=8, sync=False)",
     2121352146702841806),
    (ops.Load(0x1001, 1, True), "Load(addr=4097, size=1, sync=True)",
     7765744675715054666),
    (ops.Store(0x2000, 7), "Store(addr=8192, value=7, size=8, sync=False)",
     892011778960997030),
    (ops.Store(0x2004, 0xFFFF, 2, True),
     "Store(addr=8196, value=65535, size=2, sync=True)",
     7399314100988364734),
    (ops.CompareAndSwap(0x3000, 1, 2),
     "CompareAndSwap(addr=12288, expected=1, new=2, size=8, sync=False)",
     -3262476731798113311),
    (ops.CompareAndSwap(8, 0, 5, 4, True),
     "CompareAndSwap(addr=8, expected=0, new=5, size=4, sync=True)",
     5343052965518676312),
    (ops.Swap(0x10, 3), "Swap(addr=16, new=3, size=8, sync=False)",
     -8595017450141266919),
    (ops.Swap(0x18, 4, 1, True), "Swap(addr=24, new=4, size=1, sync=True)",
     -5595076485600254405),
    (ops.FetchAdd(0x20, 1), "FetchAdd(addr=32, delta=1, size=8, sync=False)",
     -1205282133780002656),
    (ops.FetchAdd(0x28, 255, 1, True),
     "FetchAdd(addr=40, delta=255, size=1, sync=True)",
     -2681478147012926470),
    (ops.PersistBarrier(), "PersistBarrier()", 5740354900026072187),
    (ops.NewStrand(), "NewStrand()", 5740354900026072187),
    (ops.PersistSync(), "PersistSync()", 5740354900026072187),
    (ops.Fence(), "Fence()", 5740354900026072187),
    (ops.SFence(), "SFence()", 5740354900026072187),
    (ops.ClFlush(0x40), "ClFlush(addr=64, size=8)", 7217787111475514622),
    (ops.ClFlushOpt(0x80, 4), "ClFlushOpt(addr=128, size=4)",
     2224065941293467941),
    (ops.Clwb(0xC0), "Clwb(addr=192, size=8)", -709745703355738632),
    (ops.Malloc(64, True), "Malloc(size=64, persistent=True)",
     4663160939954346276),
    (ops.Malloc(size=16, persistent=False),
     "Malloc(size=16, persistent=False)", 6141449309508620102),
    (ops.Free(0x8000_0000, True), "Free(addr=2147483648, persistent=True)",
     -7672896915990412178),
    (ops.Free(addr=0x1000_0000, persistent=False),
     "Free(addr=268435456, persistent=False)", -4096122849771058907),
]

IDS = [text for _, text, _ in PINNED]


class TestRecordValues:
    @pytest.mark.parametrize("op, text, hashed", PINNED, ids=IDS)
    def test_repr_and_hash_are_pinned(self, op, text, hashed):
        assert repr(op) == text
        assert hash(op) == hashed

    @pytest.mark.parametrize("op, text, hashed", PINNED, ids=IDS)
    def test_equal_by_fields_and_class(self, op, text, hashed):
        twin = eval(text, vars(ops))
        assert twin == op and not twin != op
        assert hash(twin) == hash(op)
        assert op != object()
        others = [other for other, _, _ in PINNED if type(other) is not type(op)]
        assert all(op != other for other in others)

    def test_field_less_records_of_different_classes_differ(self):
        # Same (empty) fields, different classes: unequal, as dataclasses.
        assert ops.Fence() != ops.SFence()
        assert len({ops.PERSIST_BARRIER, ops.NEW_STRAND, ops.PERSIST_SYNC,
                    ops.FENCE, ops.SFENCE}) == 5

    def test_differs_by_any_field(self):
        assert ops.Store(8, 1) != ops.Store(8, 2)
        assert ops.Store(8, 1) != ops.Store(8, 1, 4)
        assert ops.Store(8, 1) != ops.Store(8, 1, sync=True)
        assert ops.Store(8, 1) != ops.Swap(8, 1)

    def test_mark_and_wait_hash_their_field_tuples(self):
        mark = ops.Mark("insert:end")
        assert repr(mark) == "Mark(info='insert:end')"
        assert hash(mark) == hash(("insert:end",))
        assert mark == ops.Mark("insert:end") != ops.Mark("other")

        def predicate(value):
            return value == 1

        wait = ops.WaitUntil(16, predicate, 4, True)
        assert hash(wait) == hash((16, predicate, 4, True))
        assert wait == ops.WaitUntil(16, predicate, 4, True)
        assert wait != ops.WaitUntil(16, lambda value: value == 1, 4, True)
        assert repr(wait).startswith("WaitUntil(addr=16, predicate=<function")

    def test_helpers_yield_the_shared_field_less_records(self):
        machine = Machine()
        yielded = []

        def body(ctx):
            for helper in (ctx.persist_barrier, ctx.new_strand,
                           ctx.persist_sync, ctx.fence, ctx.sfence):
                yielded.append(next(iter(helper())))
            yield from ()

        machine.spawn(body)
        machine.run()
        assert [op is shared for op, shared in zip(yielded, (
            ops.PERSIST_BARRIER, ops.NEW_STRAND, ops.PERSIST_SYNC,
            ops.FENCE, ops.SFENCE,
        ))] == [True] * 5


def every_op_program(machine):
    """Two workers that issue every op kind, and a waiter."""
    cells = machine.persistent_heap.malloc(64)
    flag = machine.volatile_heap.malloc(8)

    def worker(ctx, me):
        yield from ctx.store(cells + 8 * me, me + 1)
        yield from ctx.persist_barrier()
        yield from ctx.clflushopt(cells + 8 * me)
        yield from ctx.sfence()
        value = yield from ctx.load(cells + 8 * (1 - me))
        yield from ctx.new_strand()
        yield from ctx.cas(cells + 32, 0, me + 1)
        yield from ctx.swap(cells + 40, me)
        yield from ctx.fetch_add(flag, 1, sync=True)
        yield from ctx.clflush(cells + 32)
        yield from ctx.clwb(cells + 40, 4)
        yield from ctx.fence()
        yield from ctx.persist_sync()
        addr = yield from ctx.malloc_persistent(16)
        yield from ctx.store(addr, value, 4)
        yield from ctx.free_persistent(addr)
        yield from ctx.mark("done")

    def waiter(ctx):
        yield from ctx.wait_equals(flag, 2, sync=True)
        yield from ctx.store(cells + 48, 9, 1)
        yield from ctx.persist_barrier()

    machine.spawn(worker, 0)
    machine.spawn(worker, 1)
    machine.spawn(waiter)


def footprint_lines(consistency, seed):
    """At every decision point, every agent's footprint; then the trace."""
    rng = random.Random(seed)
    lines = []

    def choose(machine, runnable):
        lines.append(repr(sorted(agent_footprints(machine).items())))
        for agent in runnable:
            lines.append(repr(next_footprint(machine, agent)))
        return runnable[rng.randrange(len(runnable))]

    machine = Machine(
        scheduler=ReplayableScheduler(choose), consistency=consistency
    )
    every_op_program(machine)
    lines.extend(repr(row) for row in machine.run().rows())
    return lines


def test_footprints_are_pinned():
    """``next_footprint`` and ``agent_footprints`` over every op kind, on
    SC and TSO machines, six schedules each, give the footprints (and
    traces) they gave with the frozen-dataclass records."""
    digest = hashlib.sha256()
    count = 0
    for consistency in ("sc", "tso"):
        for seed in range(6):
            lines = footprint_lines(consistency, seed)
            count += len(lines)
            digest.update("\n".join(lines).encode())
    assert (count, digest.hexdigest()[:16]) == (2390, "eec9c59c5533d1ec")
