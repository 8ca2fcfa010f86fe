"""Tests for the recovery observer: cuts and failure-state images."""

import random

import pytest

from repro.core import (
    MODELS,
    CutStats,
    cut_bytes,
    cut_members,
    cut_size,
    FailureInjector,
    GraphDomain,
    analyze_graph,
    cut_content_key,
    enumerate_cut_masks,
    enumerate_cuts,
    full_cut,
    image_at_cut,
    is_consistent_cut,
    linear_extension_cut,
    minimal_cut,
    minimal_cut_mask,
    prefix_cut,
    sample_cut,
    unique_cuts,
)
from repro.core.bitgraph import mask_of
from repro.errors import RecoveryError
from repro.memory import NvramImage
from repro.trace import EventKind, make_access

from tests.core.helpers import (
    B,
    L,
    NS,
    P,
    S,
    all_subsets,
    build,
    consistent_cuts_by_definition,
    content_key_by_definition,
    overlay_by_definition,
)


def diamond_graph():
    """a -> {b, c} -> d: the classic four-node diamond."""
    domain = GraphDomain()

    def persist(deps, addr):
        event = make_access(
            len(domain.nodes), 0, EventKind.STORE, addr, 8, addr % 251, True
        )
        return domain.persist(deps, event)

    a = persist(frozenset(), P)
    b = persist(frozenset({a}), P + 8)
    c = persist(frozenset({a}), P + 16)
    d = persist(frozenset({b, c}), P + 24)
    return domain, (a, b, c, d)


class TestCutPredicates:
    def test_downward_closed_cuts_accepted(self):
        graph, (a, b, c, d) = diamond_graph()
        for cut in ([], [a], [a, b], [a, c], [a, b, c], [a, b, c, d]):
            assert is_consistent_cut(graph, cut)

    def test_gapped_cuts_rejected(self):
        graph, (a, b, c, d) = diamond_graph()
        for cut in ([b], [d], [a, d], [a, b, d]):
            assert not is_consistent_cut(graph, cut)

    def test_unknown_pid_rejected(self):
        graph, _ = diamond_graph()
        assert not is_consistent_cut(graph, [99])


class TestNegativeMasks:
    """A negative int names no set of persists; it must fail, not hang."""

    def test_members_and_size_reject(self):
        for function in (cut_members, cut_size):
            with pytest.raises(RecoveryError, match="non-negative"):
                function(-1)

    def test_imaging_and_content_key_reject(self):
        graph, _ = diamond_graph()
        base = NvramImage(P, 4096)
        with pytest.raises(RecoveryError, match="non-negative"):
            image_at_cut(graph, -1, base, check=False)
        with pytest.raises(RecoveryError, match="non-negative"):
            cut_content_key(graph, -1)
        with pytest.raises(RecoveryError):
            image_at_cut(graph, -1, base)


class TestCutConstructors:
    def test_full_and_prefix(self):
        graph, nodes = diamond_graph()
        assert full_cut(graph) == frozenset(nodes)
        assert prefix_cut(graph, 2) == frozenset(nodes[:2])
        assert is_consistent_cut(graph, prefix_cut(graph, 3))
        with pytest.raises(RecoveryError):
            prefix_cut(graph, 9)

    def test_minimal_cut(self):
        graph, (a, b, c, d) = diamond_graph()
        assert minimal_cut(graph, a) == {a}
        assert minimal_cut(graph, b) == {a, b}
        assert minimal_cut(graph, d) == {a, b, c, d}
        with pytest.raises(RecoveryError):
            minimal_cut(graph, 42)

    def test_sample_cuts_always_consistent(self):
        graph, _ = diamond_graph()
        rng = random.Random(0)
        for _ in range(50):
            assert is_consistent_cut(graph, sample_cut(graph, rng, 0.5))

    def test_sample_extremes(self):
        graph, _ = diamond_graph()
        rng = random.Random(0)
        assert sample_cut(graph, rng, 0.0) == frozenset()
        assert sample_cut(graph, rng, 1.0) == full_cut(graph)

    def test_linear_extension_cuts_consistent(self):
        graph, _ = diamond_graph()
        rng = random.Random(3)
        sizes = set()
        for _ in range(100):
            cut = linear_extension_cut(graph, rng)
            assert is_consistent_cut(graph, cut)
            sizes.add(len(cut))
        # Depth should vary across the whole range.
        assert sizes == {0, 1, 2, 3, 4}

    def test_linear_extension_reaches_sparse_deep_states(self):
        """The extension sampler must produce {a, b} without c (or the
        symmetric {a, c}) — the states plain sampling rarely reaches."""
        graph, (a, b, c, _) = diamond_graph()
        rng = random.Random(7)
        seen = {frozenset(linear_extension_cut(graph, rng)) for _ in range(200)}
        assert frozenset({a, b}) in seen or frozenset({a, c}) in seen


def random_graph(rng, size):
    """A random persist DAG: each node depends on up to 3 earlier ones."""
    domain = GraphDomain()
    for index in range(size):
        count = rng.randint(0, min(index, 3))
        deps = frozenset(rng.sample(range(index), count))
        event = make_access(
            index,
            rng.randrange(4),
            EventKind.STORE,
            P + 8 * index,
            8,
            index + 1,
            True,
        )
        domain.persist(deps, event)
    return domain


class TestCutPropertiesOnRandomDags:
    """Seeded property tests: every constructor yields consistent cuts."""

    SEEDS = range(10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_cut_consistent(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(1, 40))
        for _ in range(25):
            probability = rng.random()
            assert is_consistent_cut(
                graph, sample_cut(graph, rng, probability)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_extension_cut_consistent(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(1, 40))
        for _ in range(25):
            assert is_consistent_cut(graph, linear_extension_cut(graph, rng))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_minimal_cut_consistent_for_every_persist(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(1, 40))
        for pid in range(len(graph.nodes)):
            cut = minimal_cut(graph, pid)
            assert pid in cut
            assert is_consistent_cut(graph, cut)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefix_cut_consistent_at_every_depth(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(1, 40))
        for count in range(len(graph.nodes) + 1):
            assert is_consistent_cut(graph, prefix_cut(graph, count))


class TestEnumeration:
    def test_diamond_has_six_cuts(self):
        graph, _ = diamond_graph()
        cuts = list(enumerate_cuts(graph))
        assert len(cuts) == 6  # {}, a, ab, ac, abc, abcd
        assert len(set(cuts)) == 6
        for cut in cuts:
            assert is_consistent_cut(graph, cut)

    def test_limit_enforced(self):
        domain = GraphDomain()
        for index in range(20):  # 20 independent persists: 2^20 cuts
            event = make_access(
                index, 0, EventKind.STORE, P + 64 * index, 8, 1, True
            )
            domain.persist(frozenset(), event)
        with pytest.raises(RecoveryError):
            list(enumerate_cuts(domain, limit=1000))


def twin_write_graph():
    """Two unordered persists writing the *same* bytes to the *same*
    address — the degenerate case where distinct cuts share content."""
    domain = GraphDomain()
    for index in range(2):
        event = make_access(index, index, EventKind.STORE, P, 8, 7, True)
        domain.persist(frozenset(), event)
    return domain


class TestCutContentKeys:
    def test_key_is_deterministic_and_order_insensitive(self):
        graph, (a, b, c, d) = diamond_graph()
        assert cut_content_key(graph, [a, b]) == cut_content_key(graph, [b, a])
        assert cut_content_key(graph, [a, b]) == cut_content_key(graph, (b, a))

    def test_distinct_content_distinct_keys(self):
        graph, (a, b, c, d) = diamond_graph()
        keys = {cut_content_key(graph, cut) for cut in enumerate_cuts(graph)}
        assert len(keys) == 6  # every diamond cut writes different bytes

    def test_equal_content_equal_keys(self):
        graph = twin_write_graph()
        assert cut_content_key(graph, [0]) == cut_content_key(graph, [1])
        assert cut_content_key(graph, [0]) == cut_content_key(graph, [0, 1])
        assert cut_content_key(graph, []) != cut_content_key(graph, [0])

    def test_equal_keys_mean_equal_images(self):
        graph = twin_write_graph()
        base = NvramImage(P, 4096)
        one = image_at_cut(graph, {0}, base)
        both = image_at_cut(graph, {0, 1}, base)
        assert one.read_bytes(P, 16) == both.read_bytes(P, 16)


class TestUniqueCuts:
    def test_all_distinct_yields_everything(self):
        graph, _ = diamond_graph()
        stats = CutStats()
        cuts = list(unique_cuts(graph, stats=stats))
        assert len(cuts) == 6
        assert stats.enumerated == stats.unique == 6
        assert stats.deduplicated == 0

    def test_duplicate_content_collapsed(self):
        graph = twin_write_graph()
        stats = CutStats()
        cuts = list(unique_cuts(graph, stats=stats))
        # {} and one representative of {{0}, {1}, {0, 1}}.
        assert len(cuts) == 2
        assert stats.enumerated == 4
        assert stats.unique == 2
        assert stats.deduplicated == 2
        for cut in cuts:
            assert is_consistent_cut(graph, cut)

    def test_representative_is_first_and_smallest(self):
        """Enumeration is in non-decreasing size order, so the kept
        representative is a smallest cut of its content class."""
        graph = twin_write_graph()
        cuts = list(unique_cuts(graph))
        assert cuts[0] == frozenset()
        assert len(cuts[1]) == 1

    def test_limit_still_enforced(self):
        domain = GraphDomain()
        for index in range(20):  # 2^20 cuts of distinct content
            event = make_access(
                index, 0, EventKind.STORE, P + 64 * index, 8, 1, True
            )
            domain.persist(frozenset(), event)
        with pytest.raises(RecoveryError):
            list(unique_cuts(domain, limit=1000))

    def test_stats_optional(self):
        graph, _ = diamond_graph()
        assert len(list(unique_cuts(graph))) == 6


#: Small hand-written programs (at most 8 persists each) whose DAGs the
#: definition oracles below cover under every model and both domains.
ORACLE_PROGRAMS = {
    "barrier-chain": [
        (0, S, P, 1),
        (0, B),
        (0, S, P + 8, 2),
        (1, L, P + 8, 2),
        (1, S, P + 16, 3),
        (1, B),
        (1, S, P + 24, 4),
    ],
    "strands": [
        (0, S, P, 1),
        (0, NS),
        (0, S, P + 8, 2),
        (0, B),
        (0, S, P + 16, 3),
        (1, S, P + 24, 4),
        (1, NS),
        (1, S, P, 5),
    ],
    "shared-words": [
        (0, S, P, 1),
        (1, S, P, 2),
        (0, B),
        (0, S, P + 8, 3),
        (1, S, P + 8, 4),
        (2, L, P, 2),
        (2, S, P + 64, 6),
        (2, B),
        (2, S, P + 72, 7),
    ],
}


def oracle_graphs():
    """(label, graph) for every DAG the definition oracles check."""
    yield "diamond", diamond_graph()[0]
    yield "twin-write", twin_write_graph()
    for seed in range(6):
        rng = random.Random(seed)
        yield f"random-{seed}", random_graph(rng, rng.randint(6, 12))
    for name, program in ORACLE_PROGRAMS.items():
        trace = build(program)
        for model in MODELS:
            for domain in ("graph", "bitset"):
                graph = analyze_graph(trace, model, domain=domain).graph
                yield f"{name}/{model}/{domain}", graph


ORACLE_GRAPHS = list(oracle_graphs())


@pytest.mark.parametrize(
    "graph", [graph for _, graph in ORACLE_GRAPHS],
    ids=[label for label, _ in ORACLE_GRAPHS],
)
class TestCutsAgainstDefinition:
    """Every cut operation against oracles written from the definition:
    a cut is consistent when it holds each member's ``node.deps``."""

    def test_consistency_predicate(self, graph):
        expected = consistent_cuts_by_definition(graph)
        for subset in all_subsets(graph):
            assert is_consistent_cut(graph, subset) == (subset in expected)
            assert is_consistent_cut(graph, mask_of(subset)) == (
                subset in expected
            )
        count = len(graph.nodes)
        assert not is_consistent_cut(graph, [count])
        assert not is_consistent_cut(graph, [-1])
        assert not is_consistent_cut(graph, 1 << count)

    def test_enumeration(self, graph):
        expected = consistent_cuts_by_definition(graph)
        masks = list(enumerate_cut_masks(graph))
        cuts = [frozenset(cut_members(mask)) for mask in masks]
        assert len(cuts) == len(expected)
        assert set(cuts) == expected
        sizes = [len(cut) for cut in cuts]
        assert sizes == sorted(sizes)
        assert list(enumerate_cuts(graph)) == cuts

    def test_minimal_cuts(self, graph):
        expected = consistent_cuts_by_definition(graph)
        for pid in range(len(graph.nodes)):
            smallest = frozenset.intersection(
                *(cut for cut in expected if pid in cut)
            )
            assert minimal_cut(graph, pid) == smallest
            assert minimal_cut_mask(graph, pid) == mask_of(smallest)

    def test_content_keys_and_bytes(self, graph):
        keys = set()
        for cut in consistent_cuts_by_definition(graph):
            overlay = overlay_by_definition(graph, cut)
            key = content_key_by_definition(graph, cut)
            keys.add(key)
            for form in (cut, sorted(cut), mask_of(cut)):
                assert cut_bytes(graph, form) == overlay
                assert cut_content_key(graph, form) == key
        stats = CutStats()
        representatives = list(unique_cuts(graph, stats=stats))
        assert stats.unique == len(keys) == len(representatives)


class TestImages:
    def test_image_reflects_cut_exactly(self):
        graph, (a, b, c, d) = diamond_graph()
        base = NvramImage(P, 4096)
        image = image_at_cut(graph, {a, b}, base)
        assert image.read(P, 8) == P % 251
        assert image.read(P + 8, 8) == (P + 8) % 251
        assert image.read(P + 16, 8) == 0  # c not included
        assert image.read(P + 24, 8) == 0  # d not included
        # Base image untouched.
        assert base.read(P, 8) == 0

    def test_inconsistent_cut_rejected(self):
        graph, (a, b, c, d) = diamond_graph()
        base = NvramImage(P, 4096)
        with pytest.raises(RecoveryError):
            image_at_cut(graph, {d}, base)

    def test_full_cut_image_matches_final_memory(self, cwl_1t):
        graph = analyze_graph(cwl_1t.trace, "epoch").graph
        image = image_at_cut(graph, full_cut(graph), cwl_1t.base_image)
        final = cwl_1t.machine.memory.region("persistent")
        assert image.read_bytes(final.base, final.size) == bytes(final.data)


class TestInjector:
    def test_iterators_yield_consistent_cuts(self, cwl_1t):
        graph = analyze_graph(cwl_1t.trace, "strand").graph
        injector = FailureInjector(graph, cwl_1t.base_image)
        assert injector.persist_count == len(graph.nodes)
        for cut, image in injector.random_images(5, seed=1):
            assert is_consistent_cut(graph, cut)
            assert image.base == cwl_1t.base_image.base
        for cut, _ in injector.prefix_images(step=100):
            assert is_consistent_cut(graph, cut)
        for cut, _ in injector.minimal_images(step=97):
            assert is_consistent_cut(graph, cut)
        for cut, _ in injector.extension_images(5, seed=2):
            assert is_consistent_cut(graph, cut)

    def test_bad_steps_rejected(self, cwl_1t):
        graph = analyze_graph(cwl_1t.trace, "strand").graph
        injector = FailureInjector(graph, cwl_1t.base_image)
        with pytest.raises(RecoveryError):
            list(injector.prefix_images(step=0))
        with pytest.raises(RecoveryError):
            list(injector.minimal_images(step=0))
