"""Rewindable analysis: ``StreamingAnalyzer.rewind`` undoes exactly.

A rewindable analyzer journals every change its chunk loop makes, and
``rewind(k)`` must leave it in the state an analyzer fed only the
first ``k`` events has: frontier dicts, the model's thread state,
counters and the persist DAG (nodes, masks, levels, histogram,
canonical key).  Feeding the rest again must then give the from-scratch
result.  These tests rewind to every event index of machine traces
under SC (kv), TSO with flushes (publish-clwb, publish-clflushopt) and
strand annotations (2LC), and of random traces with coalescing on.
"""

import pytest
from hypothesis import given, settings

from repro.check import canonical_dag_key
from repro.core import AnalysisConfig, StreamingAnalyzer, analyze
from repro.core.model import MODELS
from repro.errors import AnalysisError
from repro.fuzz.targets import make_target
from repro.sim.scheduler import RandomScheduler
from repro.trace import Trace

from tests.core.helpers import B, P, S, build
from tests.core.reference_analysis import RESULT_FIELDS
from tests.core.test_streaming import _script, trace_from_script

GRAPH_DOMAINS = ("bitset", "graph")
NO_COALESCING = AnalysisConfig(coalescing=False)


def target_trace(target, threads=2, ops=1, seed=0):
    return make_target(target).build(threads, ops, RandomScheduler(seed)).trace


def prefix(trace, count):
    head = Trace()
    head.extend(trace[:count])
    return head


def fed(trace, model, config, domain, rewindable=False):
    analyzer = StreamingAnalyzer(model, config, domain, rewindable=rewindable)
    return analyzer.feed(trace)


def state(analyzer):
    """Everything a rewind must restore, in comparable form."""
    graph = analyzer.domain
    nodes = [
        (node.pid, node.thread, node.first_seq, node.deps, tuple(node.writes))
        for node in graph.nodes
    ]
    return {
        "events": analyzer.events_fed,
        "counters": (
            analyzer._persist_stores,
            analyzer._coalesced,
            analyzer._barriers,
            analyzer._strands,
        ),
        "write_dep": dict(analyzer._write_dep),
        "read_dep": dict(analyzer._read_dep),
        "pending": dict(analyzer._pending),
        "block_writes": dict(analyzer._block_writes),
        "model": tuple(dict(d) for d in analyzer.model.thread_state()),
        "nodes": nodes,
        "dep_masks": list(graph.dep_masks),
        "ancestors": [graph.ancestors(pid) for pid in range(len(nodes))],
        "levels": graph.levels(),
        "histogram": graph.level_histogram(),
        "critical_path": graph.critical_path(),
        "key": canonical_dag_key(graph),
    }


def assert_rewinds_everywhere(trace, model, config, domain):
    """Rewind one analyzer to every index, checking the state there and
    after feeding the rest again."""
    whole = state(fed(trace, model, config, domain))
    analyzer = fed(trace, model, config, domain, rewindable=True)
    assert state(analyzer) == whole
    for count in range(len(trace), -1, -1):
        analyzer.rewind(count)
        expected = state(fed(prefix(trace, count), model, config, domain))
        assert state(analyzer) == expected, f"{model}/{domain} at {count}"
        analyzer.feed(trace[count:])
        assert state(analyzer) == whole, f"{model}/{domain} from {count}"
    result = analyzer.finish()
    reference = analyze(trace, model, config, domain=domain)
    for field in RESULT_FIELDS:
        assert getattr(result, field) == getattr(reference, field), field


@pytest.mark.parametrize(
    "target, models",
    [
        ("kv", ("strict", "epoch")),
        ("publish-clwb", ("px86", "dpox86")),
        ("publish-clflushopt-nofence", ("px86", "dpox86")),
        ("queue-2lc", ("strand", "epoch")),
    ],
)
@pytest.mark.parametrize("domain", GRAPH_DOMAINS)
def test_rewind_to_every_index_of_machine_traces(target, models, domain):
    trace = target_trace(target)
    for model in models:
        assert_rewinds_everywhere(trace, model, NO_COALESCING, domain)


@settings(deadline=None, max_examples=40)
@given(script=_script)
def test_rewind_random_traces_with_coalescing(script):
    """Coalescing appends writes to existing nodes; rewind trims them."""
    trace = trace_from_script(script, info_every=7)
    for model in MODELS:
        for domain in GRAPH_DOMAINS:
            assert_rewinds_everywhere(trace, model, AnalysisConfig(), domain)


@pytest.mark.parametrize("domain", GRAPH_DOMAINS)
def test_rewind_past_a_coalesce_recomputes_the_key(domain):
    """A key taken after a store coalesced into a node must not survive
    the rewind that takes the write back out."""
    trace = build([(0, S, P, 1), (0, S, P, 2), (0, S, P, 3)])
    analyzer = fed(trace, "strict", AnalysisConfig(), domain, rewindable=True)
    assert len(analyzer.domain.nodes) == 1
    canonical_dag_key(analyzer.domain)
    analyzer.rewind(1)
    expected = fed(prefix(trace, 1), "strict", AnalysisConfig(), domain)
    assert canonical_dag_key(analyzer.domain) == canonical_dag_key(
        expected.domain
    )


def test_rewind_then_diverge_equals_fresh_analysis():
    """A rewound analyzer fed a *different* suffix equals a fresh one."""
    base = [(0, S, P, 1), (0, B), (1, S, P + 64, 2), (1, B)]
    left = build(base + [(0, S, P + 128, 3), (1, S, P, 4)])
    right = build(base + [(1, S, P + 8, 5), (0, B), (0, S, P + 64, 6)])
    analyzer = fed(left, "epoch", NO_COALESCING, "bitset", rewindable=True)
    analyzer.rewind(len(base))
    analyzer.feed(right[len(base):])
    assert state(analyzer) == state(
        fed(right, "epoch", NO_COALESCING, "bitset")
    )


class TestRewindErrors:
    def rewindable(self):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 64, 2)])
        return fed(trace, "epoch", NO_COALESCING, "bitset", rewindable=True)

    def test_past_events_fed(self):
        with pytest.raises(AnalysisError, match="3 fed"):
            self.rewindable().rewind(4)

    def test_below_zero(self):
        with pytest.raises(AnalysisError, match="3 fed"):
            self.rewindable().rewind(-1)

    def test_after_finish(self):
        analyzer = self.rewindable()
        analyzer.finish()
        with pytest.raises(AnalysisError, match="finished"):
            analyzer.rewind(0)

    def test_with_node_sink(self):
        with pytest.raises(AnalysisError, match="node_sink"):
            StreamingAnalyzer(
                "epoch", domain="bitset", node_sink=print, rewindable=True
            ).rewind(0)

    def test_not_rewindable(self):
        analyzer = StreamingAnalyzer("epoch", domain="bitset")
        with pytest.raises(AnalysisError, match="rewindable=True"):
            analyzer.rewind(0)

    def test_level_domain(self):
        with pytest.raises(AnalysisError, match="DAG domain"):
            StreamingAnalyzer("epoch", domain="level", rewindable=True)
