"""BitsetGraphDomain vs. GraphDomain: exact-agreement property tests.

The bitset domain is only admissible as the default because it is
*indistinguishable* from the frozenset reference — same nodes, same
dependence frontiers, same cuts, same canonical keys.  These tests pin
that contract three ways: direct lockstep driving of the two domains,
hypothesis-generated random traces through the full ``analyze``
pipeline, and every registered fuzz target's real trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import canonical_dag_key
from repro.core import BitsetGraphDomain, GraphDomain, analyze_graph
from repro.core.bitgraph import iter_bits, mask_of
from repro.core.recovery import cut_members, enumerate_cut_masks
from repro.errors import RecoveryError
from repro.fuzz import TARGETS, make_target
from repro.sim.scheduler import RandomScheduler
from tests.core.helpers import (
    B,
    NS,
    ORACLE_MAX_PERSISTS,
    P,
    S,
    build,
    consistent_cuts_by_definition,
)

MODELS = ("strict", "epoch", "strand", "bpfs", "px86", "dpox86")


def assert_domains_agree(reference: GraphDomain, bitset: BitsetGraphDomain):
    """The two domains' observable DAGs must be identical."""
    assert bitset.persist_count == reference.persist_count
    assert bitset.critical_path() == reference.critical_path()
    assert bitset.levels() == reference.levels()
    assert bitset.level_histogram() == reference.level_histogram()
    assert bitset.edge_count() == reference.edge_count()
    for ref_node, bit_node in zip(reference.nodes, bitset.nodes):
        assert bit_node.pid == ref_node.pid
        assert bit_node.thread == ref_node.thread
        assert bit_node.deps == ref_node.deps
        assert bit_node.writes == ref_node.writes
    assert bitset.dep_masks == reference.dep_masks
    for pid in range(reference.persist_count):
        assert bitset.ancestors(pid) == reference.ancestors(pid)
        assert bitset.ancestor_mask(pid) == reference.ancestor_mask(pid)
    if reference.persist_count:
        assert canonical_dag_key(bitset) == canonical_dag_key(reference)


def assert_cut_families_agree(
    reference: GraphDomain, bitset: BitsetGraphDomain, limit: int = 5_000
):
    """Both domains enumerate the same cuts in the same order; on small
    DAGs, exactly the cuts the definition admits, each once."""
    try:
        masks = list(enumerate_cut_masks(bitset, limit=limit))
    except RecoveryError:
        return  # too many cuts to compare exhaustively at this size
    assert list(enumerate_cut_masks(reference, limit=limit)) == masks
    if reference.persist_count <= ORACLE_MAX_PERSISTS:
        expected = consistent_cuts_by_definition(reference)
        assert {frozenset(cut_members(mask)) for mask in masks} == expected
        assert len(masks) == len(expected)


def analyzed_pair(trace, model):
    """Analyze one trace under both domains."""
    reference = analyze_graph(trace, model, domain="graph")
    bitset = analyze_graph(trace, model, domain="bitset")
    assert isinstance(bitset.graph, BitsetGraphDomain)
    assert bitset.persist_count == reference.persist_count
    assert bitset.critical_path == reference.critical_path
    assert bitset.mean_concurrency == reference.mean_concurrency
    assert bitset.level_histogram == reference.level_histogram
    return reference.graph, bitset.graph


class TestLockstep:
    """Drive both domains directly through the Domain protocol."""

    def random_dag(self, seed: int, size: int):
        """Build the same random DAG in both domains; compare as we go."""
        import random

        rng = random.Random(seed)
        reference, bitset = GraphDomain(), BitsetGraphDomain()
        for seq in range(size):
            event = build([(rng.randrange(3), S, P + 8 * seq, seq)])[0]
            ref_value, bit_value = reference.bottom, bitset.bottom
            for pid in range(seq):
                if rng.random() < 0.4:
                    ref_value = reference.join(
                        ref_value, reference.value_of(pid)
                    )
                    bit_value = bitset.join(bit_value, bitset.value_of(pid))
            assert reference.persist(ref_value, event) == bitset.persist(
                bit_value, event
            )
        return reference, bitset

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags_agree(self, seed):
        reference, bitset = self.random_dag(seed, size=12)
        assert_domains_agree(reference, bitset)
        assert_cut_families_agree(reference, bitset)

    @pytest.mark.parametrize("seed", range(4))
    def test_leq_agrees_on_every_value_token_pair(self, seed):
        reference, bitset = self.random_dag(seed, size=10)
        for source in range(reference.persist_count):
            for token in range(reference.persist_count):
                assert reference.leq(
                    reference.value_of(source), token
                ) == bitset.leq(bitset.value_of(source), token)

    def test_joined_values_leq_agrees(self):
        reference, bitset = self.random_dag(seed=99, size=10)
        count = reference.persist_count
        for first in range(count):
            for second in range(first + 1, count):
                ref_value = reference.join(
                    reference.value_of(first), reference.value_of(second)
                )
                bit_value = bitset.join(
                    bitset.value_of(first), bitset.value_of(second)
                )
                for token in range(count):
                    assert reference.leq(ref_value, token) == bitset.leq(
                        bit_value, token
                    )


#: Random-trace strategy: accesses to a handful of persistent words from
#: up to three threads, with barriers and strand annotations mixed in.
def trace_specs():
    access = st.tuples(
        st.integers(0, 2),
        st.just(S),
        st.sampled_from([P, P + 8, P + 16, P + 64]),
        st.integers(0, 255),
    )
    annotation = st.tuples(st.integers(0, 2), st.sampled_from([B, NS]))
    return st.lists(st.one_of(access, annotation), min_size=1, max_size=14)


class TestAnalyzePipeline:
    @settings(max_examples=60, deadline=None)
    @given(specs=trace_specs(), model=st.sampled_from(MODELS))
    def test_random_traces_agree(self, specs, model):
        trace = build(list(specs))
        reference, bitset = analyzed_pair(trace, model)
        assert_domains_agree(reference, bitset)
        assert_cut_families_agree(reference, bitset, limit=2_000)

    @pytest.mark.parametrize("name", sorted(TARGETS))
    @pytest.mark.parametrize("model", ("epoch", "strand"))
    def test_fuzz_targets_agree(self, name, model):
        target = make_target(name)
        run = target.build(
            target.thread_range[0],
            target.ops_range[0],
            RandomScheduler(seed=7),
        )
        reference, bitset = analyzed_pair(run.trace, model)
        assert_domains_agree(reference, bitset)


#: Flush-heavy litmus programs: the traces that exercise the new
#: clflush/clflushopt/clwb/sfence event kinds through both domains.
_FLUSH_LITMUS = (
    "mp-clflush",
    "mp-clflushopt",
    "mp-clflushopt-sfence",
    "mp-clwb-sfence",
    "chain-clflushopt-sfence",
    "flush-rmw-commit",
    "flush-casfail-commit",
    "cross-thread-flush",
    "same-line-fifo",
)


class TestFlushTraces:
    """Lockstep agreement on traces containing the x86 flush family."""

    @pytest.mark.parametrize("name", _FLUSH_LITMUS)
    @pytest.mark.parametrize("model", MODELS)
    def test_flush_litmus_agree(self, name, model):
        from repro.litmus import corpus_by_name

        program = corpus_by_name()[name]
        machine, _ = program.build(RandomScheduler(seed=11))
        trace = machine.run()
        reference, bitset = analyzed_pair(trace, model)
        assert_domains_agree(reference, bitset)
        assert_cut_families_agree(reference, bitset, limit=2_000)


class TestBitHelpers:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
        assert list(iter_bits(0)) == []

    def test_mask_roundtrip(self):
        assert mask_of(iter_bits(0xDEADBEEF)) == 0xDEADBEEF
        assert mask_of([]) == 0
