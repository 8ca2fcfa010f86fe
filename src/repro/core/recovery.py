"""The recovery observer: consistent cuts and failure injection.

The paper models failure as a *recovery observer* that atomically reads
all of persistent memory (Section 4).  The states the observer may see
are exactly the downward-closed subsets ("consistent cuts") of the
persist partial order, applied atomically persist-by-persist.  This
module samples and enumerates those cuts over a
:class:`~repro.core.lattice.GraphDomain` DAG and materialises the
corresponding NVRAM images, which recovery code is then run against.

Cuts have two interchangeable representations:

* a set/iterable of persist ids (the original form, accepted everywhere);
* a packed int bitmask (bit ``pid`` set ⇔ persist ``pid`` included),
  accepted by every cut-consuming function here and produced by the
  ``*_mask`` enumerators.

Every cut operation has one implementation: each persist DAG (either
domain) keeps its nodes' dependency frontiers as ``deps`` sets and as
``dep_masks``, downward closure is one subset test of a member's
``deps`` per member (a mask lists its members first), and the cut's bytes
(:func:`cut_bytes`) come from a cached per-graph write index instead of
a rescan of every node.  :func:`enumerate_cuts` is the frozenset view of
:func:`enumerate_cut_masks`.

Imaging is compiled once per graph: :func:`persist_table` holds every
persist's writes as pre-validated page slices, so :func:`image_at_cut`
is one copy-on-write clone of the base image plus slice assignments.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.lattice import GraphDomain, iter_bits
from repro.errors import RecoveryError
from repro.memory.nvram import NvramImage

#: A consistent cut: persist ids as a set/iterable, or a packed bitmask.
Cut = Union[int, Iterable[int]]


def _check_mask(cut: int) -> None:
    """Reject a negative bitmask, which names no set of persists."""
    if cut < 0:
        raise RecoveryError(f"cut bitmask must be non-negative, got {cut}")


def cut_members(cut: Cut) -> List[int]:
    """The cut's persist ids in ascending order, whatever its form.

    Raises:
        RecoveryError: when ``cut`` is a negative bitmask.
    """
    if isinstance(cut, int):
        _check_mask(cut)
        return list(iter_bits(cut))
    return sorted(cut)


def cut_size(cut: Cut) -> int:
    """Number of persists in a cut of either representation.

    Raises:
        RecoveryError: when ``cut`` is a negative bitmask.
    """
    if isinstance(cut, int):
        _check_mask(cut)
        return bin(cut).count("1")
    return len(cut) if isinstance(cut, (set, frozenset)) else len(set(cut))


def is_consistent_cut(graph: GraphDomain, included: Cut) -> bool:
    """True when ``included`` is downward-closed under persist order:
    every member's direct dependences are members too.

    A mask lists its members first, so both cut forms take the same
    per-member test.  A cut naming a persist the graph does not have is
    not consistent.
    """
    nodes = graph.nodes
    if isinstance(included, int):
        if included < 0 or included >> len(nodes):
            return False
        members = frozenset(iter_bits(included))
    else:
        members = (
            included
            if isinstance(included, (set, frozenset))
            else frozenset(included)
        )
        if members and not 0 <= min(members) <= max(members) < len(nodes):
            return False
    return all(nodes[pid].deps <= members for pid in members)


def full_cut(graph: GraphDomain) -> FrozenSet[int]:
    """The cut containing every persist (no failure)."""
    return frozenset(range(len(graph.nodes)))


def prefix_cut(graph: GraphDomain, count: int) -> FrozenSet[int]:
    """The first ``count`` persists in creation order.

    Creation (pid) order is a linear extension of persist order, so every
    prefix is a consistent cut.
    """
    if count < 0 or count > len(graph.nodes):
        raise RecoveryError(
            f"prefix length {count} outside [0, {len(graph.nodes)}]"
        )
    return frozenset(range(count))


def sample_cut(
    graph: GraphDomain,
    rng: random.Random,
    include_probability: float = 0.5,
) -> FrozenSet[int]:
    """Sample a random consistent cut.

    Walks persists in creation order, including each with the given
    probability when all of its dependences are already included.  The
    result is downward-closed by construction and covers both sparse and
    dense failure states across seeds.
    """
    included: Set[int] = set()
    for node in graph.nodes:
        if node.deps <= included and rng.random() < include_probability:
            included.add(node.pid)
    return frozenset(included)


def minimal_cut(graph: GraphDomain, pid: int) -> FrozenSet[int]:
    """The smallest consistent cut containing persist ``pid``.

    This is the most adversarial legal failure state for ``pid``: the
    persist and its ancestors completed, *nothing else* did.  Testing
    recovery at every persist's minimal cut deterministically exposes
    missing-ordering bugs that random sampling almost never reaches
    (a random cut includes a deep node only if every one of its ancestors
    was independently included).
    """
    if pid < 0 or pid >= len(graph.nodes):
        raise RecoveryError(f"no persist with id {pid}")
    return frozenset(graph.ancestors(pid) | {pid})


def minimal_cut_mask(graph: GraphDomain, pid: int) -> int:
    """:func:`minimal_cut` as a bitmask."""
    if pid < 0 or pid >= len(graph.nodes):
        raise RecoveryError(f"no persist with id {pid}")
    return graph.ancestor_mask(pid) | (1 << pid)


def _graph_stamp(graph: GraphDomain) -> tuple:
    """Staleness stamp for per-graph caches.

    Every ``persist``/``coalesce`` bumps ``_version``, so a cache built
    under an older stamp is rebuilt on next use.
    """
    return (len(graph.nodes), getattr(graph, "_version", None))


def _extension_index(
    graph: GraphDomain,
) -> Tuple[List[int], List[List[int]], List[int]]:
    """Per-graph ``(indegree, dependents, roots)``, cached on the graph.

    ``dependents[pid]`` lists the persists that depend directly on
    ``pid`` in ascending pid order, and ``roots`` the dependency-free
    persists in ascending pid order: the orders the random walk of
    :func:`linear_extension_cut` draws from.
    """
    stamp = _graph_stamp(graph)
    cached = getattr(graph, "_extension_index", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    nodes = graph.nodes
    indegree = [len(node.deps) for node in nodes]
    dependents: List[List[int]] = [[] for _ in nodes]
    for node in nodes:
        for dep in node.deps:
            dependents[dep].append(node.pid)
    roots = [node.pid for node in nodes if not node.deps]
    index = (indegree, dependents, roots)
    graph._extension_index = (stamp, index)
    return index


def linear_extension_cut(
    graph: GraphDomain, rng: random.Random
) -> FrozenSet[int]:
    """A random prefix of a random linear extension of persist order.

    Unlike :func:`sample_cut`, prefix depth is uniform in the number of
    persists, so deep-but-sparse failure states appear with useful
    probability.
    """
    indegree, dependents, roots = _extension_index(graph)
    remaining = list(indegree)
    ready = list(roots)
    target = rng.randint(0, len(indegree))
    included: Set[int] = set()
    while ready and len(included) < target:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        pid = ready.pop()
        included.add(pid)
        for successor in dependents[pid]:
            remaining[successor] -= 1
            if not remaining[successor]:
                ready.append(successor)
    return frozenset(included)


def enumerate_cut_masks(
    graph: GraphDomain, limit: int = 100_000
) -> Iterator[int]:
    """Enumerate every consistent cut as a bitmask (small graphs only).

    A breadth-first walk from the empty cut that extends each cut by
    every persist, in ascending pid order, whose dependencies it holds;
    so cuts come in non-decreasing size order, each exactly once.

    Raises:
        RecoveryError: when more than ``limit`` cuts would be produced —
            the count is exponential in the antichain width, so callers
            must keep graphs tiny.
    """
    deps = graph.dep_masks
    count = len(deps)
    seen: Set[int] = {0}
    frontier: Deque[int] = deque((0,))
    produced = 0
    while frontier:
        cut = frontier.popleft()
        produced += 1
        if produced > limit:
            raise RecoveryError(
                f"more than {limit} consistent cuts; graph too large to "
                f"enumerate"
            )
        yield cut
        for pid in range(count):
            bit = 1 << pid
            if not cut & bit and deps[pid] & ~cut == 0:
                extended = cut | bit
                if extended not in seen:
                    seen.add(extended)
                    frontier.append(extended)


def enumerate_cuts(
    graph: GraphDomain, limit: int = 100_000
) -> Iterator[FrozenSet[int]]:
    """:func:`enumerate_cut_masks` with each cut as a frozenset of pids.

    Raises:
        RecoveryError: the same ``limit`` overrun.
    """
    for mask in enumerate_cut_masks(graph, limit=limit):
        yield frozenset(iter_bits(mask))


def _write_index(graph: GraphDomain) -> List[Dict[int, int]]:
    """Per-persist {byte address: value} maps, cached on the graph.

    Built once per graph version, for :func:`cut_bytes`.  The cache is
    stamped with ``(len(nodes), _version)`` so any ``persist``/
    ``coalesce`` after indexing rebuilds it.
    """
    stamp = _graph_stamp(graph)
    cached = getattr(graph, "_recovery_index", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    index: List[Dict[int, int]] = []
    for node in graph.nodes:
        written: Dict[int, int] = {}
        for addr, data in node.writes:
            for offset, byte in enumerate(data):
                written[addr + offset] = byte
        index.append(written)
    graph._recovery_index = (stamp, index)
    return index


def cut_bytes(graph: GraphDomain, cut: Cut) -> Dict[int, int]:
    """The ``{byte address: value}`` map a cut writes over any base.

    Applies the cut's persists in pid order, a linear extension of
    persist order and so a legal application order for any consistent
    cut.  Pids the graph does not have contribute nothing.  The map is
    the caller's own.

    Raises:
        RecoveryError: when ``cut`` is a negative bitmask.
    """
    index = _write_index(graph)
    written: Dict[int, int] = {}
    count = len(index)
    for pid in cut_members(cut):
        if 0 <= pid < count:
            written.update(index[pid])
    return written


def cut_content_key(graph: GraphDomain, cut: Cut) -> str:
    """Content hash of the NVRAM bytes a cut writes over the base image.

    Hashes :func:`cut_bytes` in address order.  Two cuts with equal keys
    materialise byte-identical images from any common base, so recovery
    needs to be checked at only one of them — the deduplication the
    ``repro.check`` cut memo is built on.
    """
    written = cut_bytes(graph, cut)
    buffer = bytearray()
    append = buffer.extend
    for addr in sorted(written):
        append(addr.to_bytes(8, "little"))
        buffer.append(written[addr])
    return hashlib.sha256(bytes(buffer)).hexdigest()


#: One pre-validated persist: ``(page, span, data)``, ``span`` a slice
#: of offsets in page number ``page``.
Slice = Tuple[int, slice, bytes]


def persist_table(
    graph: GraphDomain, image: NvramImage
) -> List[Optional[Tuple[Slice, ...]]]:
    """Per-persist write slices for images shaped like ``image``.

    Entry ``pid`` holds the persist's writes, in occurrence order, as
    :meth:`~repro.memory.nvram.NvramImage.page_slice` slices.  A
    persist with a write that ``apply_persist`` would reject gets
    ``None``: callers apply its writes through ``apply_persist``, which
    raises the usual error, so only cuts that contain it fail.  So does
    a persist with a write spanning two copy-on-write pages, which
    ``apply_persist`` applies.  Built once per graph and image geometry
    (base, size, persist granularity) and cached on the graph under the
    same staleness stamp as the write index.
    """
    stamp = (
        _graph_stamp(graph),
        image.base,
        image.size,
        image.persist_granularity,
    )
    cached = getattr(graph, "_persist_table", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    table: List[Optional[Tuple[Slice, ...]]] = []
    for node in graph.nodes:
        slices = tuple(
            image.page_slice(addr, data) for addr, data in node.writes
        )
        table.append(None if None in slices else slices)
    graph._persist_table = (stamp, table)
    return table


def image_at_cut(
    graph: GraphDomain,
    cut: Cut,
    base_image: NvramImage,
    check: bool = True,
) -> NvramImage:
    """Apply the persists in ``cut`` to a copy of ``base_image``.

    Persists are applied in creation order (a linear extension); writes
    to the same address are always ordered by strong persist atomicity,
    so any linear extension yields the same bytes.  Accepts a bitmask
    cut; either way only the cut's members are visited (ascending pid),
    not the whole node list, and their writes come pre-validated from
    the cached :func:`persist_table`.

    Raises:
        RecoveryError: when ``check`` is set and the cut is inconsistent,
            or when ``cut`` is a negative bitmask.
        MemoryAccessError: when a member's write falls outside the image
            or crosses an atomic block (as ``apply_persist`` raises it).
    """
    if check and not is_consistent_cut(graph, cut):
        raise RecoveryError("cut is not downward-closed under persist order")
    members = cut_members(cut)
    table = persist_table(graph, base_image)
    image = base_image.copy()
    count = len(table)
    pending: List[Slice] = []
    extend = pending.extend
    for pid in members:
        if 0 <= pid < count:
            slices = table[pid]
            if slices is None:
                # A write that failed validation (apply_persist raises)
                # or that spans two pages: apply it in pid order.
                image.apply_page_slices(pending)
                pending.clear()
                image.apply_all(graph.nodes[pid].writes)
            else:
                extend(slices)
    image.apply_page_slices(pending)
    return image


class FailureInjector:
    """Generates failure-state NVRAM images for recovery testing."""

    def __init__(self, graph: GraphDomain, base_image: NvramImage) -> None:
        self._graph = graph
        self._base = base_image

    @property
    def persist_count(self) -> int:
        """Number of persists available to cut."""
        return len(self._graph.nodes)

    def image_for(self, cut: Cut) -> NvramImage:
        """Materialise the image for an explicit cut (ids or bitmask)."""
        return image_at_cut(self._graph, cut, self._base)

    def faulty_image_for(self, cut: Cut, plan) -> tuple:
        """Materialise the image for ``cut`` with device faults injected.

        ``plan`` is a :class:`repro.inject.plan.FaultPlan`; returns the
        (image, injected faults) pair from
        :func:`repro.inject.engine.materialize_faulty`.  An empty fault
        list means the image equals :meth:`image_for` byte-for-byte.
        """
        from repro.inject.engine import materialize_faulty

        cut_set = set(cut_members(cut))
        if not is_consistent_cut(self._graph, cut_set):
            raise RecoveryError(
                "cut is not downward-closed under persist order"
            )
        return materialize_faulty(self._graph, cut_set, self._base, plan)

    def random_images(
        self,
        samples: int,
        seed: int = 0,
        include_probability: Optional[float] = None,
        min_probability: float = 0.05,
        max_probability: float = 0.95,
    ) -> Iterator[tuple]:
        """Yield ``samples`` (cut, image) pairs from seeded random cuts.

        When ``include_probability`` is None, each sample draws its own
        probability uniformly from ``[min_probability, max_probability]``
        (default ``[0.05, 0.95]``), covering sparse through dense failures
        while avoiding the degenerate all-empty/all-full extremes.

        Raises:
            RecoveryError: when the probability bounds are not an
                ascending pair within ``[0, 1]``.
        """
        if not 0.0 <= min_probability <= max_probability <= 1.0:
            raise RecoveryError(
                f"probability bounds [{min_probability}, {max_probability}] "
                f"must be ascending within [0, 1]"
            )
        rng = random.Random(seed)
        for _ in range(samples):
            probability = (
                include_probability
                if include_probability is not None
                else rng.uniform(min_probability, max_probability)
            )
            cut = sample_cut(self._graph, rng, probability)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def minimal_images(self, step: int = 1) -> Iterator[tuple]:
        """Yield (cut, image) at every ``step``-th persist's minimal cut."""
        if step <= 0:
            raise RecoveryError(f"step must be positive, got {step}")
        for pid in range(0, len(self._graph.nodes), step):
            cut = minimal_cut(self._graph, pid)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def extension_images(self, samples: int, seed: int = 0) -> Iterator[tuple]:
        """Yield (cut, image) from random linear-extension prefixes."""
        rng = random.Random(seed)
        for _ in range(samples):
            cut = linear_extension_cut(self._graph, rng)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def prefix_images(self, step: int = 1) -> Iterator[tuple]:
        """Yield (cut, image) for every ``step``-th prefix cut, plus full.

        Each image extends the previous prefix's with only the persists
        between the two: creation order is the order :func:`image_at_cut`
        applies persists in, so the bytes and ``persists_applied`` equal
        imaging the whole prefix on the base image.
        """
        if step <= 0:
            raise RecoveryError(f"step must be positive, got {step}")
        total = len(self._graph.nodes)
        counts = list(range(0, total + 1, step))
        if total % step:
            counts.append(total)
        # A private copy, so a caller writing to a yielded image cannot
        # leak into the next one.
        previous, done = self._base, 0
        for count in counts:
            image = image_at_cut(
                self._graph, range(done, count), previous, check=False
            )
            previous, done = image.copy(), count
            yield prefix_cut(self._graph, count), image
