"""The simulator writes each event once, into its trace's columns, and
every harness consumer reads those columns.

The columnar makespan walk must equal the per-event reference exactly
(same float operations in the same order), and the paper's evaluation
must append each simulated event once and never build an event object
or re-encode a trace.  ``test_parallel.py`` holds the Table 1 and figure
byte-identity checks across serial, parallel and warm-store runs.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import StreamingAnalyzer
from repro.harness import (
    DEFAULT_COST_MODEL,
    ExperimentRunner,
    InstructionCostModel,
    build_table1,
    figure2_dependences,
    figure3_latency_sweep,
    figure4_persist_granularity,
    figure5_tracking_granularity,
)
from repro.nvramdev import schedule_from_trace
from repro.trace import EventKind, MemoryEvent, chunks_from_events
from repro.trace.columnar import ColumnarChunk
from tests.core.helpers import B, L, P, R, S, V, build
from tests.harness.reference_instr import reference_event_times

#: The six program variants Table 1 traces (Figures 3-5 reuse cwl/1).
TABLE1_VARIANTS = [
    (design, threads, racing)
    for design in ("cwl", "2lc")
    for threads in (1, 8)
    for racing in ((False, True) if design == "cwl" else (False,))
]

COST_MODELS = [DEFAULT_COST_MODEL, InstructionCostModel(7.0, 1e9)]


def paper_evaluation(runner):
    """Table 1 and Figures 2-5, as the paper's evaluation builds them."""
    build_table1(runner)
    for design in ("cwl", "2lc"):
        figure2_dependences(runner, design)
    figure3_latency_sweep(runner)
    figure4_persist_granularity(runner)
    figure5_tracking_granularity(runner)


class TestColumnarMakespan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_runner_traces_equal_reference(self, seed):
        runner = ExperimentRunner(inserts_per_thread=60, base_seed=seed)
        for variant in TABLE1_VARIANTS:
            trace = runner.workload(*variant).trace
            chunks = trace.chunks
            for model in COST_MODELS:
                expected = reference_event_times(trace, model)
                assert model.event_times(chunks) == expected, variant
                assert model.makespan(chunks) == max(expected)

    def test_chunk_boundaries_do_not_matter(self, cwl_4t):
        expected = reference_event_times(cwl_4t.trace, DEFAULT_COST_MODEL)
        for size in (1, 7, 64):
            chunks = list(chunks_from_events(cwl_4t.trace, size))
            assert DEFAULT_COST_MODEL.event_times(chunks) == expected

    def test_empty_trace(self):
        assert DEFAULT_COST_MODEL.event_times([]) == []
        assert DEFAULT_COST_MODEL.makespan([]) == 0.0

    _access = st.tuples(
        st.integers(0, 2),  # thread
        st.sampled_from([S, S, L, L, R, "rmw-fail"]),
        st.integers(0, 7),  # word slot
        st.booleans(),  # persistent?
    )
    _other = st.tuples(
        st.integers(0, 2),
        st.sampled_from(
            [
                B,
                EventKind.FENCE,
                EventKind.SFENCE,
                EventKind.CLFLUSH,
                EventKind.CLFLUSH_OPT,
                EventKind.CLWB,
                EventKind.PERSIST_SYNC,
            ]
        ),
        st.integers(0, 7),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        script=st.lists(st.one_of(_access, _other), max_size=60),
        chunk_events=st.integers(1, 9),
    )
    def test_random_programs_equal_reference(self, script, chunk_events):
        specs = []
        for index, spec in enumerate(script):
            thread, kind, slot = spec[:3]
            if len(spec) == 4:
                addr = (P if spec[3] else V) + 8 * slot
                if kind == "rmw-fail":
                    specs.append((thread, L, addr, 0, False, "rmw-fail"))
                else:
                    specs.append((thread, kind, addr, index + 1))
            elif kind in (B, EventKind.FENCE, EventKind.SFENCE,
                          EventKind.PERSIST_SYNC):
                specs.append((thread, kind))
            else:
                specs.append((thread, kind, P + 8 * slot))
        trace = build(specs)
        chunks = list(chunks_from_events(trace, chunk_events))
        for model in COST_MODELS:
            expected = reference_event_times(trace, model)
            assert model.event_times(chunks) == expected
            assert model.event_times(trace.chunks) == expected


class TestEncodeOnce:
    def test_paper_evaluation_encodes_each_event_once(self, monkeypatch):
        """Table 1 and Figures 2-5 at 60 inserts per thread, seed 0: the
        six variant traces (64,190 events) and Figure 2's three distinct
        small traces (834) are each encoded once, while the analyses
        still consume 195,037 events between them."""
        appended = [0]
        fed = [0]
        append_raw = ColumnarChunk.append_raw
        finish = StreamingAnalyzer.finish

        def counting_append(chunk, *args, **kwargs):
            appended[0] += 1
            return append_raw(chunk, *args, **kwargs)

        def counting_finish(analyzer):
            fed[0] += analyzer.events_fed
            return finish(analyzer)

        monkeypatch.setattr(ColumnarChunk, "append_raw", counting_append)
        monkeypatch.setattr(StreamingAnalyzer, "finish", counting_finish)
        runner = ExperimentRunner(inserts_per_thread=60, base_seed=0)
        paper_evaluation(runner)
        assert appended[0] == 65_024
        assert fed[0] == 195_037
        variant_events = sum(
            len(runner.workload(*variant).trace) for variant in TABLE1_VARIANTS
        )
        assert variant_events == 64_190

    def test_every_consumer_reads_one_chunk_list(self, monkeypatch):
        runner = ExperimentRunner(inserts_per_thread=100, base_seed=4)
        trace = runner.workload("cwl", 2, False).trace
        chunks = list(trace.chunks)
        assert len(chunks) > 1
        fed = []
        feed_chunk = StreamingAnalyzer._feed_chunk

        def recording_feed_chunk(analyzer, chunk):
            fed.append(chunk)
            return feed_chunk(analyzer, chunk)

        monkeypatch.setattr(
            StreamingAnalyzer, "_feed_chunk", recording_feed_chunk
        )
        runner.analysis("cwl", 2, False, "epoch")
        assert len(fed) == len(chunks)
        assert all(mine is theirs for mine, theirs in zip(fed, chunks))
        # Neither the analysis nor the makespan walk re-traces or copies:
        # the simulator's chunks are still the trace's.
        runner.instruction_rate("cwl", 2, False)
        assert runner.stats.workload_runs == 1
        assert all(
            mine is theirs for mine, theirs in zip(trace.chunks, chunks)
        )
        # 2LC ignores the racing flag, so both spellings share one trace.
        assert (
            runner.workload("2lc", 2, True).trace
            is runner.workload("2lc", 2, False).trace
        )
        assert [e for chunk in chunks for e in chunk] == list(trace)

    def test_paper_evaluation_builds_no_event_objects(self, monkeypatch):
        """Table 1 and Figures 2-5 read only columns: no MemoryEvent is
        constructed and no trace is re-encoded."""
        built = [0]
        encoded = [0]
        post_init = MemoryEvent.__post_init__

        def counting_post_init(event):
            built[0] += 1
            return post_init(event)

        def counting_encode(*args, **kwargs):
            encoded[0] += 1
            return chunks_from_events(*args, **kwargs)

        monkeypatch.setattr(MemoryEvent, "__post_init__", counting_post_init)
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "chunks_from_events", None)
                is chunks_from_events
            ):
                monkeypatch.setattr(
                    module, "chunks_from_events", counting_encode
                )
        runner = ExperimentRunner(inserts_per_thread=6, base_seed=0)
        paper_evaluation(runner)
        assert runner.stats.analysis_runs > 0
        assert built[0] == 0
        assert encoded[0] == 0
        # The counters do count when the paths they guard are taken.
        events = runner.workload("cwl", 1, False).trace[:2]
        assert built[0] == 2
        StreamingAnalyzer("epoch").feed(iter(events))
        assert encoded[0] == 1

    def test_persist_schedule_reads_columns(self, monkeypatch):
        """``schedule_from_trace`` builds no event object, and its
        arrival times equal a walk over materialised events."""
        trace = ExperimentRunner(inserts_per_thread=6).workload(
            "cwl", 4, False
        ).trace
        times = DEFAULT_COST_MODEL.event_times(trace.chunks)
        events = list(trace)
        built = [0]
        post_init = MemoryEvent.__post_init__

        def counting_post_init(event):
            built[0] += 1
            return post_init(event)

        monkeypatch.setattr(MemoryEvent, "__post_init__", counting_post_init)
        schedule = schedule_from_trace(trace)
        assert built[0] == 0
        assert schedule.persist_times == sorted(
            finish for event, finish in zip(events, times) if event.is_persist
        )
        assert schedule.sync_times == sorted(
            finish
            for event, finish in zip(events, times)
            if event.kind is EventKind.PERSIST_SYNC
        )
        assert schedule.execution_time == max(times)
