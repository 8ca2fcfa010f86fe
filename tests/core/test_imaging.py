"""Differential tests for cut imaging and linear-extension cuts.

``image_at_cut`` applies a cut from a per-graph table of pre-validated
page slices to a copy-on-write clone of the base image, and
``linear_extension_cut`` walks a cached per-graph index.  Both are
checked here in lockstep against straightforward references kept
below: a flat ``bytearray`` with per-write checks, and a per-call walk.
"""

import random
from dataclasses import replace

import pytest

from repro.core import (
    GraphDomain,
    analyze_graph,
    image_at_cut,
    linear_extension_cut,
    minimal_cut,
)
from repro.core.recovery import FailureInjector, persist_table
from repro.errors import MemoryAccessError
from repro.fuzz.campaign import (
    CUT_FAMILIES,
    CampaignConfig,
    execute_spec,
    iter_case_images,
    sample_specs,
)
from repro.memory import NvramImage
from repro.memory.nvram import PAGE_SIZE
from repro.trace import EventKind, make_access

from tests.core.helpers import P
from tests.core.test_recovery_cuts import diamond_graph


def reference_image(graph, cut, base):
    """Apply each member's writes by pid to a flat copy of ``base``'s bytes.

    Independent of ``NvramImage`` copies and slices: one ``bytearray``
    of the whole image, with the bounds and atomic-block checks of
    ``apply_persist`` (and its error messages) made per write.  Returns
    ``(image bytes, persists applied)``.
    """
    data = bytearray(base.read_bytes(base.base, base.size))
    applied = base.persists_applied
    granularity = base.persist_granularity
    for pid in sorted(cut):
        if not 0 <= pid < len(graph.nodes):
            continue
        for addr, chunk in graph.nodes[pid].writes:
            size = len(chunk)
            if size <= 0:
                raise MemoryAccessError(
                    f"persist size must be positive, got {size}"
                )
            if addr < base.base or addr + size > base.end:
                raise MemoryAccessError(
                    f"range [{addr:#x}, {addr + size:#x}) outside image "
                    f"[{base.base:#x}, {base.end:#x})"
                )
            if addr // granularity != (addr + size - 1) // granularity:
                raise MemoryAccessError(
                    f"persist at {addr:#x} size {size} spans multiple "
                    f"{granularity}-byte atomic blocks"
                )
            offset = addr - base.base
            data[offset : offset + size] = chunk
            applied += 1
    return bytes(data), applied


def reference_extension_cut(graph, rng):
    """Random linear-extension prefix on per-call dependency sets."""
    nodes = graph.nodes
    remaining_deps = {node.pid: set(node.deps) for node in nodes}
    dependents = {node.pid: [] for node in nodes}
    for node in nodes:
        for dep in node.deps:
            dependents[dep].append(node.pid)
    ready = [pid for pid, deps in remaining_deps.items() if not deps]
    target = rng.randint(0, len(nodes))
    included = set()
    while ready and len(included) < target:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        pid = ready.pop()
        included.add(pid)
        for successor in dependents[pid]:
            deps = remaining_deps[successor]
            deps.discard(pid)
            if not deps:
                ready.append(successor)
    return frozenset(included)


def image_bytes(image):
    return image.read_bytes(image.base, image.size)


def assert_same_image(image, expected):
    """``image`` against a :func:`reference_image` result."""
    assert (image_bytes(image), image.persists_applied) == expected


#: (target, campaign seed): two sampled cases each.
TARGETS = (("minifs", 0), ("queue-2lc-faithful", 0), ("kv", 1))


@pytest.fixture(scope="module", params=TARGETS, ids=lambda t: t[0])
def executions(request):
    target, seed = request.param
    specs = sample_specs(CampaignConfig(target=target, budget=2, seed=seed))
    return [(spec, execute_spec(spec)) for spec in specs]


class TestImageMatchesReference:
    @pytest.mark.parametrize("domain", ["bitset", "graph"])
    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_every_cut_family(self, executions, domain, family):
        images = 0
        for spec, execution in executions:
            base = execution.run.base_image
            graph = analyze_graph(
                execution.run.trace, spec.model, domain=domain
            ).graph
            injector = FailureInjector(graph, base)
            for cut, image in iter_case_images(
                replace(spec, cuts=family), injector
            ):
                assert_same_image(image, reference_image(graph, cut, base))
                images += 1
        assert images > 0

    def test_bitmask_cuts(self, executions):
        spec, execution = executions[0]
        graph = execution.graph
        base = execution.run.base_image
        for pid in range(len(graph.nodes)):
            mask = graph.ancestor_mask(pid) | (1 << pid)
            assert_same_image(
                image_at_cut(graph, mask, base),
                reference_image(graph, minimal_cut(graph, pid), base),
            )

    @pytest.mark.parametrize("step", [1, 3, 7])
    def test_prefix_images_extend_each_other(self, executions, step):
        spec, execution = executions[0]
        graph = execution.graph
        base = execution.run.base_image
        injector = FailureInjector(graph, base)
        cuts = []
        for cut, image in injector.prefix_images(step=step):
            assert_same_image(image, reference_image(graph, cut, base))
            # A caller scribbling on one image must not reach the next.
            image.apply_raw(base.base, b"\xff" * 64)
            cuts.append(len(cut))
        total = len(graph.nodes)
        expected = list(range(0, total + 1, step))
        assert cuts == expected + ([total] if total % step else [])

    def test_base_image_left_untouched(self, executions):
        spec, execution = executions[0]
        base = execution.run.base_image
        before = (image_bytes(base), base.persists_applied)
        image_at_cut(execution.graph, range(len(execution.graph.nodes)), base)
        assert (image_bytes(base), base.persists_applied) == before


def small_graph():
    """p0 -> p1 -> p2, one 8-byte store each, on a 4 KiB image."""
    domain = GraphDomain()
    for pid in range(3):
        event = make_access(
            pid, 0, EventKind.STORE, P + 8 * pid, 8, pid + 1, True
        )
        domain.persist(frozenset({pid - 1}) if pid else frozenset(), event)
    return domain, NvramImage(P, 4096)


def reference_error(graph, cut, base):
    with pytest.raises(MemoryAccessError) as info:
        reference_image(graph, cut, base)
    return str(info.value)


def _ids(cut):
    """A cut of either form as a set of persist ids."""
    if isinstance(cut, int):
        return {pid for pid in range(cut.bit_length()) if cut >> pid & 1}
    return set(cut)


class TestInvalidWrites:
    @pytest.mark.parametrize(
        "bad_write",
        [
            (P + 4, b"\x01" * 8),  # crosses an 8-byte atomic block
            (P + 4096, b"\x01" * 8),  # past the end of the image
            (P - 8, b"\x01" * 8),  # before the start of the image
            (P + 16, b""),  # empty persist
        ],
        ids=["block-crossing", "past-end", "before-start", "empty"],
    )
    def test_error_only_for_cuts_containing_the_write(self, bad_write):
        graph, base = small_graph()
        graph.coalesce_run(1, [bad_write])
        assert persist_table(graph, base)[1] is None
        for cut in ({0, 1}, {0, 1, 2}, 0b011, 0b111):
            expected = reference_error(graph, _ids(cut), base)
            with pytest.raises(MemoryAccessError) as info:
                image_at_cut(graph, cut, base)
            assert str(info.value) == expected
        for cut in (set(), {0}, 0b001):
            assert_same_image(
                image_at_cut(graph, cut, base),
                reference_image(graph, _ids(cut), base),
            )

    def test_valid_writes_before_the_bad_one_do_not_mask_it(self):
        graph, base = small_graph()
        graph.coalesce_run(2, [(P + 20, b"\x02" * 8)])
        expected = reference_error(graph, {0, 1, 2}, base)
        with pytest.raises(MemoryAccessError) as info:
            image_at_cut(graph, {0, 1, 2}, base)
        assert str(info.value) == expected
        assert "spans multiple 8-byte atomic blocks" in expected


class TestTableStaleness:
    def test_coalesce_run_after_imaging_rebuilds(self):
        graph, base = small_graph()
        full = {0, 1, 2}
        image_at_cut(graph, full, base)
        graph.coalesce_run(1, [(P + 40, b"\x07" * 8)])
        assert_same_image(
            image_at_cut(graph, full, base),
            reference_image(graph, full, base),
        )
        image = image_at_cut(graph, full, base)
        assert image.read(P + 40, 8) == 0x0707070707070707

    def test_persist_after_imaging_rebuilds(self):
        graph, base = small_graph()
        image_at_cut(graph, {0, 1, 2}, base)
        event = make_access(3, 1, EventKind.STORE, P + 64, 8, 99, True)
        pid = graph.persist(frozenset({2}), event)
        full = {0, 1, 2, pid}
        image = image_at_cut(graph, full, base)
        assert_same_image(image, reference_image(graph, full, base))
        assert image.read(P + 64, 8) == 99

    def test_other_image_geometry_rebuilds(self):
        graph, base = small_graph()
        full = {0, 1, 2}
        image_at_cut(graph, full, base)
        shifted = NvramImage(P - 4096, 8192)
        assert_same_image(
            image_at_cut(graph, full, shifted),
            reference_image(graph, full, shifted),
        )
        short = NvramImage(P, 16)
        assert_same_image(
            image_at_cut(graph, {0, 1}, short),
            reference_image(graph, {0, 1}, short),
        )
        expected = reference_error(graph, full, short)
        with pytest.raises(MemoryAccessError) as info:
            image_at_cut(graph, full, short)
        assert str(info.value) == expected
        graph.coalesce_run(2, [(P + 20, b"\x03" * 8)])
        coarse = NvramImage(P, 4096, persist_granularity=64)
        assert_same_image(
            image_at_cut(graph, full, coarse),
            reference_image(graph, full, coarse),
        )
        expected = reference_error(graph, full, base)
        with pytest.raises(MemoryAccessError) as info:
            image_at_cut(graph, full, base)
        assert str(info.value) == expected


class TestPageSpanningPersists:
    def test_applied_in_pid_order_with_table_slices(self):
        # A granularity above the page size lets one persist span two
        # copy-on-write pages; it then bypasses the slice table.
        graph, _ = small_graph()
        coarse = NvramImage(
            P, 4 * PAGE_SIZE, persist_granularity=2 * PAGE_SIZE
        )
        edge = P + PAGE_SIZE
        graph.coalesce_run(0, [(edge - 2, b"\x01\x02")])
        graph.coalesce_run(1, [(edge - 4, b"\xaa" * 8)])
        graph.coalesce_run(2, [(edge + 2, b"\x05")])
        table = persist_table(graph, coarse)
        assert table[0] is not None and table[1] is None
        for cut in ({0}, {0, 1}, {0, 1, 2}, 0b111):
            assert_same_image(
                image_at_cut(graph, cut, coarse),
                reference_image(graph, _ids(cut), coarse),
            )
        image = image_at_cut(graph, {0, 1, 2}, coarse)
        assert image.read_bytes(edge - 4, 8) == b"\xaa" * 6 + b"\x05\xaa"


@pytest.fixture(scope="module")
def minifs_graph():
    spec = sample_specs(CampaignConfig(target="minifs", budget=1, seed=0))[0]
    return execute_spec(spec).graph


class TestLinearExtensionCutIdentity:
    @pytest.mark.parametrize("shape", ["minifs", "diamond"])
    def test_same_cuts_and_rng_state(self, shape, minifs_graph):
        graph = minifs_graph if shape == "minifs" else diamond_graph()[0]
        for seed in range(50):
            rng, expected_rng = random.Random(seed), random.Random(seed)
            cuts = [linear_extension_cut(graph, rng) for _ in range(4)]
            expected = [
                reference_extension_cut(graph, expected_rng) for _ in range(4)
            ]
            assert cuts == expected
            assert rng.getstate() == expected_rng.getstate()

    def test_index_follows_graph_growth(self):
        graph, _ = diamond_graph()
        linear_extension_cut(graph, random.Random(0))
        event = make_access(4, 0, EventKind.STORE, P + 32, 8, 5, True)
        graph.persist(frozenset({3}), event)
        for seed in range(20):
            rng, expected_rng = random.Random(seed), random.Random(seed)
            assert linear_extension_cut(graph, rng) == reference_extension_cut(
                graph, expected_rng
            )
