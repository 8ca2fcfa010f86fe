"""Dependency-value domains for persist-ordering analysis.

The analyzers propagate "what must persist before anything ordered after
this access" through threads and memory (paper Section 7, *Persist Timing
Simulation*).  That dependency information is a join-semilattice value,
and two domains implement it:

* :class:`LevelDomain` — values are integers: the length of the longest
  chain of persist-ordering constraints ending at (and including) the
  persists represented by the value.  The maximum level over all persists
  is the paper's *persist ordering constraint critical path*.  Levels are
  a legal linear extension of the constraint order (every constraint goes
  from a lower to a higher level), so level-based coalescing — merge when
  the incoming dependency level does not exceed the pending persist's
  level — is sound for the leveled schedule the timing model assumes.

* :class:`GraphDomain` — values are frontier sets of persist ids; every
  persist becomes a node of an explicit DAG with its byte writes
  recorded.  Coalescing here is exact (ancestor containment), so the DAG
  is sound for *every* legal persist schedule; the recovery observer and
  failure injection use this domain.  Each node's frontier is also kept
  as a packed int bitmask (bit ``pid`` set ⇔ persist ``pid`` is a
  member) in ``dep_masks``, the form every cut operation runs on.

Cross-check: with coalescing disabled the two domains make identical
decisions and the scalar critical path equals the DAG's longest path —
the test suite asserts this on every workload.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.trace.events import MemoryEvent


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    Scans the binary digits once, least significant first: peeling the
    lowest bit off a many-thousand-bit mask would copy the mask per bit.
    """
    digits = bin(mask)[:1:-1]
    position = digits.find("1")
    while position >= 0:
        yield position
        position = digits.find("1", position + 1)


def mask_of(pids) -> int:
    """Pack an iterable of persist ids into one bitmask."""
    mask = 0
    for pid in pids:
        mask |= 1 << pid
    return mask


class DependencyDomain(abc.ABC):
    """A join-semilattice of persist-dependency values plus persist registry.

    Persist creation returns an opaque *token* naming the new persist;
    :meth:`value_of` converts a token into the lattice value representing
    "ordered after that persist (and everything before it)".
    """

    @property
    @abc.abstractmethod
    def bottom(self):
        """The no-constraints value."""

    @abc.abstractmethod
    def join(self, left, right):
        """Least upper bound of two dependency values."""

    @abc.abstractmethod
    def leq(self, deps, token) -> bool:
        """True when every constraint in ``deps`` is already implied by
        being ordered with the persist named by ``token`` (the coalescing
        admissibility test)."""

    @abc.abstractmethod
    def persist(self, deps, event: MemoryEvent):
        """Register a new persist ordered after ``deps``; returns its token."""

    @abc.abstractmethod
    def coalesce(self, token, event: MemoryEvent) -> None:
        """Absorb ``event``'s write into the existing persist ``token``."""

    def coalesce_run(self, token, writes: List[Tuple[int, bytes]]) -> None:
        """Absorb a batch of ``(addr, data)`` writes into persist ``token``.

        Equivalent to calling :meth:`coalesce` once per write in order;
        the streaming analyzer uses it to commit a whole same-block store
        run with one domain call (and, for DAG domains, one cache
        invalidation) instead of per-event overhead.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def value_of(self, token):
        """Lattice value representing 'ordered after persist ``token``'."""

    @property
    @abc.abstractmethod
    def persist_count(self) -> int:
        """Number of distinct persists created (post-coalescing)."""

    @abc.abstractmethod
    def critical_path(self) -> int:
        """Length of the longest persist-ordering constraint chain."""

    @abc.abstractmethod
    def level_histogram(self) -> Dict[int, int]:
        """Persists per level — the persist concurrency profile.

        Level k holds the persists whose longest incoming chain has k-1
        links; under the leveled drain schedule the level populations are
        the waves that persist concurrently, so the histogram is the
        workload's achievable persist parallelism over time.
        """


class LevelDomain(DependencyDomain):
    """Scalar critical-path domain (the paper's measurement)."""

    def __init__(self) -> None:
        self._count = 0
        self._max_level = 0
        self._level_counts: Dict[int, int] = {}

    @property
    def bottom(self) -> int:
        return 0

    def join(self, left: int, right: int) -> int:
        return left if left >= right else right

    def leq(self, deps: int, token: int) -> bool:
        return deps <= token

    def persist(self, deps: int, event: MemoryEvent) -> int:
        level = deps + 1
        self._count += 1
        self._level_counts[level] = self._level_counts.get(level, 0) + 1
        if level > self._max_level:
            self._max_level = level
        return level

    def coalesce(self, token: int, event: MemoryEvent) -> None:
        # Levels carry no payload; nothing to record.
        return None

    def coalesce_run(self, token: int, writes: List[Tuple[int, bytes]]) -> None:
        # Levels carry no payload; a whole run is equally free.
        return None

    def value_of(self, token: int) -> int:
        return token

    @property
    def persist_count(self) -> int:
        return self._count

    def critical_path(self) -> int:
        return self._max_level

    def level_histogram(self) -> Dict[int, int]:
        return dict(self._level_counts)


@dataclass
class PersistNode:
    """One atomic persist in the exact persist-order DAG.

    ``writes`` lists the (addr, bytes) stores merged into this persist,
    in occurrence order; applying them in order reproduces the persist's
    effect on NVRAM.  ``deps`` is the frontier of immediate predecessor
    persist ids; the full ancestor set is in the graph's closure table.
    """

    pid: int
    thread: int
    first_seq: int
    deps: FrozenSet[int]
    writes: List[Tuple[int, bytes]] = field(default_factory=list)

    @property
    def addr(self) -> int:
        """Address of the first write (for display)."""
        return self.writes[0][0] if self.writes else 0


class GraphDomain(DependencyDomain):
    """Exact persist-order DAG domain.

    Values are frozensets of persist ids (a dependency frontier); the
    implied constraint set is the union of those persists' ancestor
    closures.  Closures are materialised per node, which costs O(n^2)
    memory in the worst case — this domain is for recovery testing and
    cross-validation on small-to-medium traces, not for the large
    critical-path sweeps (use :class:`LevelDomain` there).
    """

    def __init__(self) -> None:
        self.nodes: List[PersistNode] = []
        #: Per-persist frontier mask, ``mask_of(nodes[pid].deps)``: the
        #: form the cut operations of :mod:`repro.core.recovery` run on.
        self.dep_masks: List[int] = []
        self._closure: Dict[int, FrozenSet[int]] = {}
        #: Bumped on every mutation (persist *and* coalesce) so derived
        #: structures — the level caches below, recovery's per-graph
        #: caches — can cheaply detect staleness.
        self._version = 0
        self._levels_cache: Optional[List[int]] = None
        self._hist_cache: Optional[Dict[int, int]] = None
        self._edge_cache: Optional[int] = None
        #: Records derived per node from it and lower pids (the
        #: canonical DAG key's, see :mod:`repro.check.canonical`), valid
        #: for ``nodes[:len]``: cut back from a node whose writes change
        #: and on :meth:`truncate`.
        self.node_records: List[object] = []

    def _invalidate(self) -> None:
        self._version += 1
        self._levels_cache = None
        self._hist_cache = None
        self._edge_cache = None

    @property
    def bottom(self) -> FrozenSet[int]:
        return frozenset()

    def join(self, left: FrozenSet[int], right: FrozenSet[int]) -> FrozenSet[int]:
        if not left:
            return right
        if not right:
            return left
        if left <= right:
            return right
        if right <= left:
            return left
        # Prune dominated members: keeping an ancestor of another member
        # adds no constraints but makes every later join and closure
        # union more expensive.  Every value is an antichain (bottom,
        # value_of and join hand out nothing else), so a member can only
        # be dominated by a member of the other operand it does not share.
        only_left = left - right
        only_right = right - left
        return (
            (left & right)
            | self._undominated(only_left, only_right)
            | self._undominated(only_right, only_left)
        )

    def _undominated(
        self, members: FrozenSet[int], others: FrozenSet[int]
    ) -> FrozenSet[int]:
        """``members`` less every one that is an ancestor of an ``others``."""
        closure = self._closure
        for other in others:
            ancestors = closure[other]
            if not members.isdisjoint(ancestors):
                members = members - ancestors
                if not members:
                    break
        return members

    def ancestors(self, pid: int) -> FrozenSet[int]:
        """All persists strictly ordered before ``pid``."""
        return self._closure[pid]

    def ancestor_mask(self, pid: int) -> int:
        """:meth:`ancestors` as a bitmask."""
        return mask_of(self._closure[pid])

    def leq(self, deps: FrozenSet[int], token: int) -> bool:
        if not deps:
            return True
        implied = self._closure[token]
        return all(pid == token or pid in implied for pid in deps)

    def persist(self, deps: FrozenSet[int], event: MemoryEvent) -> int:
        pid = len(self.nodes)
        closure = set(deps)
        for dep in deps:
            closure |= self._closure[dep]
        self._closure[pid] = frozenset(closure)
        self.dep_masks.append(mask_of(deps))
        self.nodes.append(
            PersistNode(
                pid=pid,
                thread=event.thread,
                first_seq=event.seq,
                deps=deps,
                writes=[(event.addr, event.data_bytes())],
            )
        )
        self._invalidate()
        return pid

    def coalesce(self, token: int, event: MemoryEvent) -> None:
        self.nodes[token].writes.append((event.addr, event.data_bytes()))
        del self.node_records[token:]
        self._invalidate()

    def coalesce_run(self, token: int, writes: List[Tuple[int, bytes]]) -> None:
        self.nodes[token].writes.extend(writes)
        del self.node_records[token:]
        self._invalidate()

    def truncate(self, count: int) -> None:
        """Drop every persist with pid ``count`` or above.

        The rewind half of a rewindable
        :class:`~repro.core.analysis.StreamingAnalyzer`: afterwards the
        graph equals the one built from the persists below ``count``.
        ``_version`` still grows, so stamped caches miss.
        """
        closure = self._closure
        for pid in range(count, len(self.nodes)):
            closure.pop(pid, None)
        del self.nodes[count:]
        del self.dep_masks[count:]
        del self.node_records[count:]
        self._invalidate()

    def value_of(self, token: int) -> FrozenSet[int]:
        return frozenset((token,))

    @property
    def persist_count(self) -> int:
        return len(self.nodes)

    def critical_path(self) -> int:
        return max(self._levels_list(), default=0)

    def _levels_list(self) -> List[int]:
        """Cached per-node levels; callers must not mutate the result."""
        if self._levels_cache is None:
            levels: List[int] = []
            for node in self.nodes:
                best = 0
                for dep in node.deps:
                    if levels[dep] > best:
                        best = levels[dep]
                levels.append(best + 1)
            self._levels_cache = levels
        return self._levels_cache

    def levels(self) -> List[int]:
        """Level (longest chain through) of each node, in pid order.

        Node dependencies always have smaller pids, so pid order is a
        topological order and one forward pass suffices.  The pass is
        cached until the next ``persist``/``coalesce``.
        """
        return list(self._levels_list())

    def level_histogram(self) -> Dict[int, int]:
        if self._hist_cache is None:
            histogram: Dict[int, int] = {}
            for level in self._levels_list():
                histogram[level] = histogram.get(level, 0) + 1
            self._hist_cache = histogram
        return dict(self._hist_cache)

    def edge_count(self) -> int:
        """Number of frontier (immediate) dependency edges."""
        if self._edge_cache is None:
            self._edge_cache = sum(len(node.deps) for node in self.nodes)
        return self._edge_cache
