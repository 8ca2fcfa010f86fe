"""Unit tests for the trace container and statistics."""

import pytest

from repro.core.analysis import PrefixSharedAnalysis, analyze
from repro.errors import SimulationError, TraceError
from repro.sim import Machine, RandomScheduler
from repro.trace import EventKind, MemoryEvent, Trace, make_access, make_marker
from repro.trace.columnar import DEFAULT_CHUNK_EVENTS, KIND_CODES, pack_flags


def sample_trace():
    trace = Trace(meta={"program": "test"})
    trace.append(make_marker(0, 0, EventKind.THREAD_BEGIN))
    trace.append(make_access(1, 0, EventKind.STORE, 0x8000_0000, 8, 1, True))
    trace.append(make_access(2, 0, EventKind.LOAD, 0x8000_0000, 8, 1, True))
    trace.append(make_marker(3, 0, EventKind.PERSIST_BARRIER))
    trace.append(make_access(4, 1, EventKind.RMW, 0x1000, 8, 2, False))
    trace.append(make_marker(5, 0, EventKind.MARK, "insert:end"))
    trace.append(make_marker(6, 1, EventKind.NEW_STRAND))
    return trace


class TestContainer:
    def test_len_and_iteration(self):
        trace = sample_trace()
        assert len(trace) == 7
        assert [event.seq for event in trace] == list(range(7))

    def test_indexing(self):
        trace = sample_trace()
        assert trace[1].kind is EventKind.STORE

    def test_out_of_order_seq_rejected(self):
        trace = Trace()
        with pytest.raises(TraceError):
            trace.append(make_marker(5, 0, EventKind.MARK))

    def test_meta_preserved(self):
        assert sample_trace().meta == {"program": "test"}

    def test_thread_views(self):
        trace = sample_trace()
        assert trace.thread_ids() == [0, 1]
        thread0 = trace.events_for_thread(0)
        assert all(event.thread == 0 for event in thread0)
        assert len(thread0) == 5

    def test_count_marks(self):
        trace = sample_trace()
        assert trace.count_marks("insert:end") == 1
        assert trace.count_marks("nonexistent") == 0


class TestStats:
    def test_stats_counts(self):
        stats = sample_trace().stats()
        assert stats.events == 7
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.rmws == 1
        assert stats.accesses == 3
        assert stats.persists == 1  # the persistent store; RMW is volatile
        assert stats.persist_barriers == 1
        assert stats.new_strands == 1
        assert stats.threads == 2
        assert stats.marks == {"insert:end": 1}

    def test_volatile_accesses(self):
        stats = sample_trace().stats()
        assert stats.volatile_accesses == stats.accesses - stats.persists

    def test_empty_trace_stats(self):
        stats = Trace().stats()
        assert stats.events == 0
        assert stats.threads == 0


CHUNK = DEFAULT_CHUNK_EVENTS
#: Truncation points: empty, inside an earlier chunk, exactly at a chunk
#: boundary, and the whole trace.
LENGTHS = [0, 100, CHUNK, 2 * CHUNK + 300]


def raw_rows(count, salt=0):
    """``count`` deterministic append_raw rows, some with infos."""
    rows = []
    for seq in range(count):
        thread = (seq + salt) % 3
        if seq % 11 == 5:
            rows.append((KIND_CODES[EventKind.MARK], thread, 0, 0, 0, 0,
                         f"m{seq}-{salt}"))
        elif seq % 7 == 3:
            rows.append((KIND_CODES[EventKind.PERSIST_BARRIER], thread))
        else:
            rows.append((KIND_CODES[EventKind.STORE], thread,
                         0x8000_0000 + 8 * (seq % 64), 8, seq * 31 + salt,
                         pack_flags(True, seq % 5 == 0),
                         "sb-forward" if seq % 13 == 0 else ""))
    return rows


def columns_of(trace):
    """Every column of every chunk, infos included."""
    return [
        (chunk.base_seq, chunk.kinds.tobytes(), chunk.threads.tobytes(),
         chunk.addrs.tobytes(), chunk.sizes.tobytes(),
         chunk.values.tobytes(), chunk.flags.tobytes(), dict(chunk.infos))
        for chunk in trace.chunks
    ]


def events_with_infos(trace):
    return [(event, event.info) for event in trace]


def assert_same_trace(trace, fresh):
    assert len(trace) == len(fresh)
    assert columns_of(trace) == columns_of(fresh)
    assert events_with_infos(trace) == events_with_infos(fresh)


class TestColumnarStorage:
    def test_chunks_hold_default_sized_runs(self):
        trace = Trace()
        for row in raw_rows(2 * CHUNK + 1):
            trace.append_raw(*row)
        assert [len(chunk) for chunk in trace.chunks] == [CHUNK, CHUNK, 1]
        assert [chunk.base_seq for chunk in trace.chunks] == [0, CHUNK, 2 * CHUNK]

    def test_indexing_and_slices_materialise_events(self):
        trace = Trace()
        for row in raw_rows(CHUNK + 10):
            trace.append_raw(*row)
        events = list(trace)
        assert [event.seq for event in events] == list(range(CHUNK + 10))
        assert trace[-1] == events[-1]
        assert trace[CHUNK] == events[CHUNK]
        assert trace[CHUNK - 5:CHUNK + 5] == events[CHUNK - 5:CHUNK + 5]
        assert trace[::1000] == events[::1000]
        assert trace[5].info == events[5].info == "m5-0"
        with pytest.raises(IndexError):
            trace[CHUNK + 10]
        with pytest.raises(IndexError):
            trace[-(CHUNK + 11)]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_truncate_then_append_equals_fresh(self, length):
        original = raw_rows(2 * CHUNK + 300)
        replacement = raw_rows(CHUNK + 77, salt=1)
        trace = Trace()
        for row in original:
            trace.append_raw(*row)
        trace.truncate(length)
        assert len(trace) == length
        for row in replacement:
            trace.append_raw(*row)
        fresh = Trace()
        for row in original[:length] + replacement:
            fresh.append_raw(*row)
        assert_same_trace(trace, fresh)

    def test_truncate_rejects_bad_lengths(self):
        trace = Trace()
        for row in raw_rows(10):
            trace.append_raw(*row)
        for length in (-1, 11):
            with pytest.raises(TraceError):
                trace.truncate(length)

    @pytest.mark.parametrize(
        "fields",
        [{"value": 1 << 64}, {"thread": 1 << 32}],
        ids=["overflowing-value", "wide-thread"],
    )
    @pytest.mark.parametrize("before", [3, CHUNK], ids=["mid-chunk", "boundary"])
    def test_append_is_all_or_nothing(self, fields, before):
        trace = Trace()
        for row in raw_rows(before):
            trace.append_raw(*row)
        expected = columns_of(trace)
        spec = {
            "seq": before,
            "thread": 0,
            "kind": EventKind.STORE,
            "addr": 0x8000_0000,
            "size": 8,
            "value": 1,
            "persistent": True,
            "info": "lost",
            **fields,
        }
        with pytest.raises(TraceError, match=f"event seq {before} does not fit"):
            trace.append(MemoryEvent(**spec))
        assert len(trace) == before
        assert columns_of(trace) == expected
        # The trace is still appendable at the same seq.
        spec.update(thread=1, value=2)
        trace.append(MemoryEvent(**spec))
        assert trace[before] == MemoryEvent(**spec)
        assert trace[before].info == "lost"


def snapshot_machine():
    """One thread of stores and marks: one event per scheduling step."""
    machine = Machine(scheduler=RandomScheduler(0))
    cell = machine.persistent_heap.malloc(64)

    def body(ctx):
        for index in range(2 * CHUNK + 200):
            if index % 9 == 4:
                yield from ctx.mark(f"op{index}")
            else:
                yield from ctx.store(cell + 8 * (index % 8), index)

    machine.spawn(body)
    return machine


class TestMachineRestore:
    def test_restore_to_every_kind_of_length_equals_fresh_run(self):
        fresh = snapshot_machine().run()
        machine = snapshot_machine()
        machine.enable_snapshots()
        snaps = {0: machine.snapshot()}
        steps = 0
        while len(machine.trace) < CHUNK + 1:
            steps += 1
            try:
                machine.run(max_steps=steps)
            except SimulationError:
                pass
            if len(machine.trace) in (100, CHUNK):
                snaps[len(machine.trace)] = machine.snapshot()
        machine.run()
        snaps[len(machine.trace)] = machine.snapshot()
        assert sorted(snaps) == [0, 100, CHUNK, len(fresh)]
        assert len(fresh) > 2 * CHUNK
        for length in sorted(snaps, reverse=True):
            machine.restore(snaps[length])
            assert len(machine.trace) == length
            assert_same_trace(machine.run(), fresh)

    def test_truncate_after_a_numpy_backed_analysis(self):
        machine = snapshot_machine()
        machine.enable_snapshots()
        start = machine.snapshot()
        trace = machine.run()
        assert len(trace.chunks) == 3
        analyze(trace, "epoch")
        analysis = PrefixSharedAnalysis(["epoch"], ["bitset"])
        analysis.advance(trace, 0)
        analysis.advance(trace, CHUNK + 10)
        machine.restore(start)
        assert len(trace) == 0
