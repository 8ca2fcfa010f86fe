"""Tests for the instruction-rate cost model."""

import pytest

from repro.harness import InstructionCostModel
from repro.trace import EventKind, Trace, make_access, make_marker

MODEL = InstructionCostModel(cycles_per_event=10, clock_hz=1e9)
STEP = 10 / 1e9  # seconds per event


def access(seq, thread, addr, kind=EventKind.STORE, value=1):
    return make_access(seq, thread, kind, addr, 8, value, False)


class TestSerialTime:
    def test_serial_time(self):
        assert MODEL.serial_time(100) == pytest.approx(100 * STEP)

    def test_seconds_per_event(self):
        assert MODEL.seconds_per_event == pytest.approx(STEP)


class TestMakespan:
    def test_single_thread_is_serial(self):
        trace = Trace()
        for i in range(10):
            trace.append(access(i, 0, 0x1000 + 8 * i))
        assert MODEL.makespan(trace.chunks) == pytest.approx(10 * STEP)

    def test_independent_threads_overlap(self):
        trace = Trace()
        seq = 0
        for i in range(10):
            for thread in (0, 1):
                trace.append(access(seq, thread, 0x1000 + 8 * (thread * 100 + i)))
                seq += 1
        # Two independent 10-event threads: makespan = one thread's time.
        assert MODEL.makespan(trace.chunks) == pytest.approx(10 * STEP)

    def test_conflicting_stores_serialise(self):
        trace = Trace()
        for i in range(10):
            trace.append(access(i, i % 2, 0x1000))  # same word, all stores
        assert MODEL.makespan(trace.chunks) == pytest.approx(10 * STEP)

    def test_load_after_store_serialises(self):
        trace = Trace()
        trace.append(access(0, 0, 0x1000, EventKind.STORE))
        trace.append(access(1, 1, 0x1000, EventKind.LOAD))
        assert MODEL.makespan(trace.chunks) == pytest.approx(2 * STEP)

    def test_concurrent_loads_do_not_serialise(self):
        trace = Trace()
        trace.append(access(0, 0, 0x1000, EventKind.LOAD, 0))
        trace.append(access(1, 1, 0x1000, EventKind.LOAD, 0))
        assert MODEL.makespan(trace.chunks) == pytest.approx(STEP)

    def test_markers_cost_time_on_their_thread(self):
        trace = Trace()
        trace.append(make_marker(0, 0, EventKind.PERSIST_BARRIER))
        trace.append(make_marker(1, 0, EventKind.MARK, "x"))
        assert MODEL.makespan(trace.chunks) == pytest.approx(2 * STEP)


class TestInstructionRate:
    def test_rate_is_ops_over_makespan(self):
        trace = Trace()
        for i in range(100):
            trace.append(access(i, 0, 0x1000 + 8 * (i % 50)))
        rate = MODEL.instruction_rate(trace.chunks, 10)
        assert rate == pytest.approx(10 / (100 * STEP))

    def test_rejects_zero_operations(self):
        trace = Trace()
        trace.append(access(0, 0, 0x1000))
        with pytest.raises(ValueError):
            MODEL.instruction_rate(trace.chunks, 0)

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            MODEL.instruction_rate(Trace().chunks, 5)


class TestCalibration:
    def test_default_matches_paper_scale(self, cwl_1t):
        """A single-thread 100-byte CWL insert should cost roughly 250 ns
        (the paper's implied ~4M inserts/s native rate), within 2x."""
        from repro.harness import DEFAULT_COST_MODEL

        rate = DEFAULT_COST_MODEL.instruction_rate(
            cwl_1t.trace.chunks, cwl_1t.total_inserts
        )
        assert 2e6 < rate < 8e6

    def test_cwl_does_not_scale_with_threads(self, cwl_1t, cwl_4t):
        """CWL copies inside the lock: aggregate instruction rate should
        stay within ~2x of single-thread, not scale 4x."""
        from repro.harness import DEFAULT_COST_MODEL

        rate_1 = DEFAULT_COST_MODEL.instruction_rate(
            cwl_1t.trace.chunks, cwl_1t.total_inserts
        )
        rate_4 = DEFAULT_COST_MODEL.instruction_rate(
            cwl_4t.trace.chunks, cwl_4t.total_inserts
        )
        assert rate_4 < 2.5 * rate_1

    def test_tlc_scales_better_than_cwl(self, cwl_4t, tlc_4t):
        """2LC copies outside any lock: more of its work overlaps, so its
        serial-time to makespan ratio (parallel speedup) must beat CWL's."""
        from repro.harness import DEFAULT_COST_MODEL

        def speedup(workload):
            serial = DEFAULT_COST_MODEL.serial_time(len(workload.trace))
            return serial / DEFAULT_COST_MODEL.makespan(workload.trace.chunks)

        assert speedup(tlc_4t) > speedup(cwl_4t)
