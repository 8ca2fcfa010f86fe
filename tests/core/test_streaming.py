"""Analysis-engine parity: the chunk loop must equal the per-event reference.

Every trace is analyzed by one loop over columnar chunks; kind-code
dispatch, batched coalescing runs, touched-block flush joins, the numpy
run-bound precompute, and incremental DAG levels are optimisations that
must be *invisible* in the results.  These tests drive random traces
through :class:`~repro.core.analysis.StreamingAnalyzer` — as chunks of
adversarial sizes and as plain event sources — on both the numpy and
the stdlib branch, and assert every observable result field (and, on
the DAG domains, the persist DAG itself) matches
:func:`~tests.core.reference_analysis.reference_analyze`, across all
models and domains.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, StreamingAnalyzer, analyze
from repro.core.model import MODELS
from repro.errors import AnalysisError, TraceError
from repro.queue.workload import WorkloadConfig, run_insert_workload
from repro.trace import EventKind, MemoryEvent, Trace, chunks_from_events
from repro.trace.columnar import DEFAULT_CHUNK_EVENTS

from tests.core.helpers import B, L, NS, P, R, S, V, build
from tests.core.reference_analysis import RESULT_FIELDS, reference_analyze

DOMAINS = ("level", "graph", "bitset")


def stream(trace, model, config, domain, chunk_events):
    """Analyze ``trace`` through the chunked streaming path."""
    analyzer = StreamingAnalyzer(model, config, domain=domain)
    for chunk in chunks_from_events(trace, chunk_events):
        analyzer.feed(chunk)
    return analyzer.finish()


def assert_results_equal(reference, streamed, context=""):
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(streamed, field), (
            f"{field} diverged {context}"
        )


def assert_dags_equal(reference, streamed, context=""):
    ref = [
        (node.thread, node.first_seq, frozenset(node.deps), tuple(node.writes))
        for node in reference.graph.nodes
    ]
    got = [
        (node.thread, node.first_seq, frozenset(node.deps), tuple(node.writes))
        for node in streamed.graph.nodes
    ]
    assert ref == got, f"persist DAG diverged {context}"


# -- random-trace strategy ---------------------------------------------------
#
# Slots are word-aligned over a few cache lines so the same trace mixes
# same-block coalescing runs, cross-block chains, and volatile traffic;
# occasional infos break run eligibility mid-stream.

_access = st.tuples(
    st.integers(0, 2),                        # thread
    st.sampled_from([S, S, S, S, L, R]),      # bias toward stores
    st.integers(0, 15),                       # word slot (2 lines at 64B)
    st.booleans(),                            # persistent?
    st.booleans(),                            # sync?
)
_annotation = st.tuples(
    st.integers(0, 2),
    st.sampled_from([B, NS, EventKind.SFENCE, EventKind.CLFLUSH]),
    st.integers(0, 15),
)
_script = st.lists(st.one_of(_access, _annotation), max_size=40)


def trace_from_script(script, info_every=0):
    events = []
    for index, spec in enumerate(script):
        if len(spec) == 5:
            thread, kind, slot, persistent, sync = spec
            base = P if persistent else V
            info = "x" if info_every and index % info_every == 0 else ""
            events.append(
                MemoryEvent(
                    seq=len(events),
                    thread=thread,
                    kind=kind,
                    addr=base + 8 * slot,
                    size=8,
                    value=index + 1,
                    persistent=persistent,
                    sync=sync,
                    info=info,
                )
            )
        else:
            thread, kind, slot = spec
            if kind is EventKind.CLFLUSH:
                events.append(
                    MemoryEvent(
                        seq=len(events),
                        thread=thread,
                        kind=kind,
                        addr=P + 8 * slot,
                        size=8,
                    )
                )
            else:
                events.append(
                    MemoryEvent(seq=len(events), thread=thread, kind=kind)
                )
    trace = Trace()
    trace.extend(events)
    return trace


def assert_matches_reference(trace, model, config, domain, chunk_events):
    """Chunked and event-fed engine runs both equal the reference."""
    reference = reference_analyze(trace, model, config, domain=domain)
    for label, result in (
        ("chunked", stream(trace, model, config, domain, chunk_events)),
        ("event-fed", analyze(trace, model, config, domain=domain)),
    ):
        context = f"({label} {model}/{domain}/chunk={chunk_events})"
        assert_results_equal(reference, result, context)
        if domain != "level":
            assert_dags_equal(reference, result, context)


#: The ``numpy_branch`` fixture fixes one branch for the whole test, so
#: sharing it across hypothesis examples is sound.
_branch_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestRandomParity:
    @settings(_branch_settings, max_examples=40)
    @given(
        script=_script,
        chunk_events=st.sampled_from([1, 3, 17, 64]),
        coalescing=st.booleans(),
    )
    def test_all_models_all_domains(
        self, numpy_branch, script, chunk_events, coalescing
    ):
        trace = trace_from_script(script, info_every=7)
        config = AnalysisConfig(coalescing=coalescing)
        for model in MODELS:
            for domain in DOMAINS:
                assert_matches_reference(
                    trace, model, config, domain, chunk_events
                )

    @settings(_branch_settings, max_examples=25)
    @given(
        script=_script,
        persist_granularity=st.sampled_from([8, 64]),
        tracking_granularity=st.sampled_from([8, 64]),
    )
    def test_coarse_granularities(
        self, numpy_branch, script, persist_granularity, tracking_granularity
    ):
        """Coarse blocks maximise run batching; results must not move."""
        trace = trace_from_script(script)
        config = AnalysisConfig(
            persist_granularity=persist_granularity,
            tracking_granularity=tracking_granularity,
        )
        for model in MODELS:
            for domain in DOMAINS:
                assert_matches_reference(trace, model, config, domain, 13)


class TestRunBatching:
    """Deterministic shapes aimed at the batched-run fast path."""

    def _run_trace(self, run_length, threads=1):
        events = []
        for thread in range(threads):
            for index in range(run_length):
                events.append((thread, S, P + 8 * (index % 8), index + 1))
        return build(events)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_long_run_batches_to_one_persist(self, model):
        """64 same-line stores at line granularity: one persist."""
        trace = self._run_trace(64)
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        reference = reference_analyze(trace, model, config)
        for chunk_events in (5, 64, 1000):
            streamed = stream(trace, model, config, "level", chunk_events)
            assert_results_equal(reference, streamed, f"({model})")
        assert reference.persist_count == 1
        assert reference.coalesced == 63

    def test_run_straddling_chunk_boundary(self):
        """A run split across chunks re-joins with identical counters."""
        trace = self._run_trace(40, threads=2)
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        reference = reference_analyze(trace, "epoch", config)
        for chunk_events in (1, 7, 39, 40):
            streamed = stream(trace, "epoch", config, "level", chunk_events)
            assert_results_equal(reference, streamed, f"chunk={chunk_events}")

    def test_thread_switch_breaks_run(self, numpy_branch):
        """A same-block store by another thread is not part of the run:
        that thread's epoch can order it after the pending persist."""
        trace = build(
            [
                (1, S, P + 64, 1),
                (1, B),
                (1, S, P + 128, 2),
                (1, B),
                (0, S, P, 3),
                (1, S, P + 8, 4),
            ]
        )
        config = AnalysisConfig(persist_granularity=64, tracking_granularity=64)
        for model in ("epoch", "strand"):
            reference = reference_analyze(trace, model, config)
            streamed = stream(trace, model, config, "level", 6)
            assert_results_equal(reference, streamed, model)
        assert reference_analyze(trace, "epoch", config).persist_count == 4

    def test_info_breaks_run_eligibility(self):
        """An annotated store mid-run must fall off the fast path."""
        events = [(0, S, P, index + 1) for index in range(10)]
        trace = build(events)
        annotated = Trace()
        for event in trace:
            info = "rmw-fail" if event.seq == 5 else ""
            annotated.append(
                MemoryEvent(
                    seq=event.seq,
                    thread=event.thread,
                    kind=event.kind,
                    addr=event.addr,
                    size=event.size,
                    value=event.value,
                    persistent=event.persistent,
                    info=info,
                )
            )
        config = AnalysisConfig(persist_granularity=64, tracking_granularity=64)
        for model in ("epoch", "bpfs"):
            reference = reference_analyze(annotated, model, config)
            streamed = stream(annotated, model, config, "level", 4)
            assert_results_equal(reference, streamed, model)


class TestChunkLengths:
    def test_short_and_full_chunks_agree(self):
        """One paper-queue trace fed as 1-, 31- and 4,096-event chunks:
        short chunks take the stdlib precompute and full ones numpy
        (when installed); every result and DAG must be identical."""
        trace = run_insert_workload(
            WorkloadConfig(
                design="2lc", threads=2, inserts_per_thread=40, seed=1
            )
        ).trace
        assert len(trace) > DEFAULT_CHUNK_EVENTS
        config = AnalysisConfig()
        for model in MODELS:
            for domain in ("level", "bitset", "graph"):
                full = stream(
                    trace, model, config, domain, DEFAULT_CHUNK_EVENTS
                )
                for chunk_events in (1, 31):
                    context = f"({model}/{domain}/chunk={chunk_events})"
                    short = stream(trace, model, config, domain, chunk_events)
                    assert_results_equal(full, short, context)
                    if domain != "level":
                        assert_dags_equal(full, short, context)


class TestFlushTouchedBlocks:
    def test_wide_flush_range_joins_only_touched_blocks(self):
        """A flush spanning a huge sparse range equals the dense walk."""
        events = [
            (0, S, P, 1),
            (0, S, P + 4096, 2),
            (0, EventKind.SFENCE),
        ]
        trace = build(events)
        flushed = Trace()
        for event in trace:
            flushed.append(event)
        flushed.append(
            MemoryEvent(
                seq=len(trace),
                thread=0,
                kind=EventKind.CLWB,
                addr=P,
                size=8,
            )
        )
        flushed.append(
            MemoryEvent(
                seq=len(trace) + 1, thread=0, kind=EventKind.SFENCE
            )
        )
        for model in ("px86", "dpox86"):
            reference = reference_analyze(flushed, model)
            streamed = stream(flushed, model, None, "level", 2)
            assert_results_equal(reference, streamed, model)


class TestStreamingApi:
    def test_feed_after_finish_rejected(self):
        analyzer = StreamingAnalyzer("epoch")
        analyzer.finish()
        with pytest.raises(AnalysisError):
            analyzer.feed(build([(0, S, P, 1)]))

    def test_events_fed_counts_across_chunks(self):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 64, 2)])
        analyzer = StreamingAnalyzer("epoch")
        for chunk in chunks_from_events(trace, 2):
            analyzer.feed(chunk)
        assert analyzer.events_fed == 3
        assert analyzer.finish().events == 3

    def test_feed_accepts_plain_event_iterables(self):
        trace = build(
            [(0, S, P, 1), (0, S, P + 8, 2), (1, B), (1, S, P + 64, 3)]
        )
        reference = reference_analyze(trace, "strict")
        scalar = StreamingAnalyzer("strict")
        scalar.feed(iter(trace))
        assert_results_equal(reference, scalar.finish())

        # Events fed after chunks continue at events_fed and give the
        # same result as one chunked pass.
        first, _ = chunks_from_events(trace, 2)
        mixed = StreamingAnalyzer("strict")
        mixed.feed(first)
        assert mixed.events_fed == 2
        mixed.feed(event for event in trace if event.seq >= 2)
        assert mixed.events_fed == 4
        assert_results_equal(
            stream(trace, "strict", None, "level", 4), mixed.finish()
        )

        # A whole trace after a chunk restarts at seq 0: rejected.
        restarted = StreamingAnalyzer("strict")
        restarted.feed(first)
        with pytest.raises(TraceError, match="seq 0 out of order; expected 2"):
            restarted.feed(trace)

        # A seq gap inside an event source is rejected too.
        gapped = [trace[0], trace[2]]
        with pytest.raises(TraceError, match="seq 2 out of order; expected 1"):
            StreamingAnalyzer("strict").feed(iter(gapped))
