"""Packed-bitset persist-DAG domain — the analysis fast path.

:class:`BitsetGraphDomain` is a drop-in replacement for
:class:`~repro.core.lattice.GraphDomain` that stores every set of persist
ids as one arbitrary-precision Python int (bit ``pid`` set ⇔ persist
``pid`` is a member).  All the hot lattice operations collapse to single
big-int instructions:

* **join** is bitwise OR,
* **leq** (the coalescing admissibility test) is one mask-containment
  test ``value & ~implied == 0``,
* **transitive closure** is maintained incrementally on append: a new
  persist's ancestor mask is the OR of its dependencies' masks with the
  dependency bits themselves — no per-element set unions anywhere.

Dependency *values* are ``(members, ancestors)`` pairs of masks rather
than a single mask: ``members`` accumulates every token ever joined into
the value and ``ancestors`` the union of those tokens' strict-ancestor
masks.  That makes join O(1) — no pruning pass — while the true
dependency frontier stays recoverable as ``members & ~ancestors`` (a
member is redundant exactly when it is a strict ancestor of another
member; ancestor masks are transitively closed, so the single AND-NOT
performs the same maximal-element pruning ``GraphDomain.join`` does
eagerly).  The produced :class:`~repro.core.lattice.PersistNode` records
are therefore *identical* — same ``deps`` frontiers, same writes, same
order — and every downstream consumer (canonical DAG keys, cut
enumeration, recovery imaging, DOT export) sees the same DAG.

The class subclasses ``GraphDomain`` so ``isinstance`` checks and typed
call sites (``AnalysisResult.graph``, the NVRAM device model) accept it
unchanged; the frozenset implementation remains the reference oracle the
property tests compare against.  Both domains keep the inherited
``dep_masks`` list the cut operations of :mod:`repro.core.recovery` run
on; here each entry is the frontier mask computed above, with no
frozenset to pack.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.lattice import GraphDomain, PersistNode, iter_bits, mask_of
from repro.trace.events import MemoryEvent

__all__ = ["BitsetGraphDomain", "iter_bits", "mask_of"]

#: A dependency value: (member-token mask, union of their ancestor masks).
BitsetValue = Tuple[int, int]

_BOTTOM: BitsetValue = (0, 0)


class BitsetGraphDomain(GraphDomain):
    """Exact persist-order DAG domain on packed integer bitsets.

    Produces byte-identical :class:`PersistNode` lists (and hence DAG
    keys, cuts, and recovery images) to :class:`GraphDomain`; only the
    internal representation of dependency values and ancestor closures
    differs.  Prefer this domain everywhere; keep the frozenset domain
    for cross-validation.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Per-persist transitively-closed strict-ancestor mask.
        self._anc: List[int] = []
        #: Levels maintained incrementally on append (node dependencies
        #: always have smaller pids), so streaming consumers can read the
        #: critical path and level histogram at any point without the
        #: full-graph recomputation pass ``GraphDomain`` performs after
        #: each invalidation.
        self._levels: List[int] = []
        self._hist: Dict[int, int] = {}
        self._max_level = 0

    @property
    def bottom(self) -> BitsetValue:
        return _BOTTOM

    def join(self, left: BitsetValue, right: BitsetValue) -> BitsetValue:
        if left is _BOTTOM:
            return right
        if right is _BOTTOM:
            return left
        return (left[0] | right[0], left[1] | right[1])

    def leq(self, deps: BitsetValue, token: int) -> bool:
        implied = self._anc[token] | (1 << token)
        return (deps[0] | deps[1]) & ~implied == 0

    def persist(self, deps: BitsetValue, event: MemoryEvent) -> int:
        members, ancestors = deps
        frontier = members & ~ancestors
        pid = len(self.nodes)
        self._anc.append(members | ancestors)
        self.dep_masks.append(frontier)
        self.nodes.append(
            PersistNode(
                pid=pid,
                thread=event.thread,
                first_seq=event.seq,
                deps=frozenset(iter_bits(frontier)),
                writes=[(event.addr, event.data_bytes())],
            )
        )
        levels = self._levels
        best = 0
        for dep in iter_bits(frontier):
            if levels[dep] > best:
                best = levels[dep]
        level = best + 1
        levels.append(level)
        self._hist[level] = self._hist.get(level, 0) + 1
        if level > self._max_level:
            self._max_level = level
        self._invalidate()
        return pid

    def truncate(self, count: int) -> None:
        hist = self._hist
        for level in self._levels[count:]:
            left = hist[level] - 1
            if left:
                hist[level] = left
            else:
                del hist[level]
        self._max_level = max(hist, default=0)
        del self._levels[count:]
        del self._anc[count:]
        super().truncate(count)

    def critical_path(self) -> int:
        return self._max_level

    def level_histogram(self) -> Dict[int, int]:
        return dict(self._hist)

    def _levels_list(self) -> List[int]:
        # Incremental levels supersede the recomputation cache; callers
        # must not mutate the result (GraphDomain.levels copies).
        return self._levels

    def value_of(self, token: int) -> BitsetValue:
        return (1 << token, self._anc[token])

    def ancestor_mask(self, pid: int) -> int:
        """All persists strictly ordered before ``pid``, as a bitmask."""
        return self._anc[pid]

    def ancestors(self, pid: int) -> FrozenSet[int]:
        """Frozenset view of :meth:`ancestor_mask` (memoised)."""
        cached = self._closure.get(pid)
        if cached is None:
            cached = frozenset(iter_bits(self._anc[pid]))
            self._closure[pid] = cached
        return cached
