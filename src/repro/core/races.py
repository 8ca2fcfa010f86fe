"""Persist-epoch race detection (paper Section 5.2).

The paper defines a *persist-epoch race* as "persist epochs from two or
more threads that include memory accesses that race (to volatile or
persistent memory), including synchronization races, and at least two
epochs include persist operations."  Persists between racing epochs may
not be ordered even though SC orders the underlying stores —
"synchronization operations within persist epochs impose ordering across
the store and load operations (due to SC memory ordering), but do not
order corresponding persist operations."

This module is the lint for that pitfall.  Two kinds of racing access
pairs are found:

* **data races** — conflicting ordinary accesses not ordered by
  happens-before, where happens-before is program order plus
  acquire/release edges through accesses marked ``sync`` (lock words and
  hand-off flags; the machine's lock implementations mark them).
  Computed with vector clocks, FastTrack-style.
* **synchronization races** — conflicting ``sync`` accesses from
  different threads.  Lock operations race *by design*; SC makes the
  outcome well-defined but nothing orders the surrounding persists,
  which is exactly why the paper's discipline walls lock accesses into
  persist-free epochs with barriers.

A persist-epoch race is any such pair whose two enclosing epochs (on
different threads) both contain persist operations.

The paper's race-free discipline — persist barriers before and after all
lock acquires and releases, locks only in volatile memory — makes a
program clean here; the "Racing Epochs" queue configuration and
Two-Lock Concurrent (whose reserve lock shares an epoch with the data
copy) are deliberately flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.trace.events import ACCESS_KINDS, EventKind
from repro.trace.trace import Trace

#: (thread, per-thread epoch index): identifies one persist epoch.
EpochKey = Tuple[int, int]


@dataclass
class Epoch:
    """One persist epoch: a barrier-delimited interval of one thread."""

    thread: int
    index: int
    first_seq: int
    last_seq: int = -1
    #: Tracking blocks read / written within the epoch.
    reads: Set[int] = field(default_factory=set)
    writes: Set[int] = field(default_factory=set)
    persists: int = 0
    sync_accesses: int = 0

    @property
    def key(self) -> EpochKey:
        """(thread, index) identifier."""
        return self.thread, self.index


@dataclass(frozen=True)
class RacingPair:
    """Two racing accesses attributed to their enclosing epochs."""

    first: EpochKey
    second: EpochKey
    block: int
    #: "data" or "sync".
    kind: str

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.kind} race between epochs t{self.first[0]}#"
            f"{self.first[1]} and t{self.second[0]}#{self.second[1]} "
            f"on block {self.block:#x}"
        )


#: Backwards-compatible alias used in reports.
PersistEpochRace = RacingPair


def split_epochs(trace: Trace, tracking_granularity: int = 8) -> List[Epoch]:
    """Split a trace into persist epochs with their access footprints."""
    current: Dict[int, Epoch] = {}
    finished: List[Epoch] = []
    counters: Dict[int, int] = {}

    def close(thread: int, seq: int) -> None:
        epoch = current.pop(thread, None)
        if epoch is not None:
            epoch.last_seq = seq
            finished.append(epoch)

    for seq, thread, kind, addr, _, _, persistent, sync, _ in trace.rows():
        if kind is EventKind.PERSIST_BARRIER or kind is EventKind.THREAD_END:
            close(thread, seq)
            continue
        if kind not in ACCESS_KINDS:
            continue
        epoch = current.get(thread)
        if epoch is None:
            index = counters.get(thread, 0)
            counters[thread] = index + 1
            epoch = Epoch(thread=thread, index=index, first_seq=seq)
            current[thread] = epoch
        block = addr // tracking_granularity
        if kind is not EventKind.STORE:
            epoch.reads.add(block)
        if kind is not EventKind.LOAD:
            epoch.writes.add(block)
            if persistent:
                epoch.persists += 1
        if sync:
            epoch.sync_accesses += 1
        epoch.last_seq = seq
    for thread in list(current):
        close(thread, len(trace))
    return finished


class _VectorClock(dict):
    """Sparse vector clock: missing components are zero."""

    def merge(self, other: Dict[int, int]) -> None:
        for thread, clock in other.items():
            if clock > self.get(thread, 0):
                self[thread] = clock


@dataclass
class RaceReport:
    """All racing access pairs found in a trace, by epoch pair."""

    pairs: List[RacingPair]
    epochs: Dict[EpochKey, Epoch]

    def persist_epoch_races(self) -> List[RacingPair]:
        """The pairs whose enclosing epochs both persist (the paper's
        persist-epoch races)."""
        races = []
        for pair in self.pairs:
            first = self.epochs.get(pair.first)
            second = self.epochs.get(pair.second)
            if first and second and first.persists and second.persists:
                races.append(pair)
        return races


def analyze_races(trace: Trace, tracking_granularity: int = 8) -> RaceReport:
    """Find every racing access pair (data and synchronization races).

    One pass with vector clocks: ``sync`` store-like accesses release the
    thread's clock into the block; ``sync`` load-like accesses acquire
    it; program order advances each thread's own component.  Ordinary
    conflicting accesses unordered by that happens-before are data
    races.  Conflicting sync accesses from different threads are
    synchronization races (reported once per epoch pair and block).
    """
    epochs = {
        epoch.key: epoch
        for epoch in split_epochs(trace, tracking_granularity)
    }
    cursor = _EpochCursor(epochs.values())
    clocks: Dict[int, _VectorClock] = {}
    # Ordinary-access block state: last write and reads-since-write.
    last_write: Dict[int, Tuple[int, int, EpochKey]] = {}
    readers: Dict[int, Dict[int, Tuple[int, EpochKey]]] = {}
    # Sync block state: release clock, last sync writer, sync readers.
    release: Dict[int, _VectorClock] = {}
    sync_write: Dict[int, Tuple[int, EpochKey]] = {}
    sync_readers: Dict[int, Dict[int, EpochKey]] = {}

    pairs: List[RacingPair] = []
    seen: Set[Tuple[EpochKey, EpochKey, int, str]] = set()

    def record(first: EpochKey, second: EpochKey, block: int, kind: str):
        key = (first, second, block, kind)
        if key not in seen:
            seen.add(key)
            pairs.append(RacingPair(first, second, block, kind))

    no_clock: Dict[int, int] = {}

    def happens_before(owner: int, owner_clock: int, observer: int) -> bool:
        return clocks.get(observer, no_clock).get(owner, 0) >= owner_clock

    for seq, thread, kind, addr, _, _, _, sync, _ in trace.rows():
        if kind not in ACCESS_KINDS:
            continue
        load_like = kind is not EventKind.STORE
        store_like = kind is not EventKind.LOAD
        vc = clocks.setdefault(thread, _VectorClock())
        block = addr // tracking_granularity
        ekey = cursor.key_for(thread, seq)
        if sync:
            # Synchronization races: any cross-thread conflicting pair.
            if store_like:
                previous = sync_write.get(block)
                if previous and previous[0] != thread:
                    record(previous[1], ekey, block, "sync")
                for other, other_key in sync_readers.get(block, {}).items():
                    if other != thread:
                        record(other_key, ekey, block, "sync")
            else:
                previous = sync_write.get(block)
                if previous and previous[0] != thread:
                    record(previous[1], ekey, block, "sync")
            # Acquire/release edges.
            if load_like:
                published = release.get(block)
                if published:
                    vc.merge(published)
            if store_like:
                snapshot = _VectorClock(vc)
                snapshot[thread] = snapshot.get(thread, 0) + 1
                existing = release.get(block)
                if existing is None:
                    release[block] = snapshot
                else:
                    existing.merge(snapshot)
                sync_write[block] = (thread, ekey)
                sync_readers.pop(block, None)
            else:
                sync_readers.setdefault(block, {})[thread] = ekey
        else:
            # Data races: conflicting ordinary accesses unordered by HB.
            write = last_write.get(block)
            if write and write[0] != thread and not happens_before(
                write[0], write[1], thread
            ):
                record(write[2], ekey, block, "data")
            if store_like:
                for other, (clock, other_key) in readers.get(
                    block, {}
                ).items():
                    if other != thread and not happens_before(
                        other, clock, thread
                    ):
                        record(other_key, ekey, block, "data")
        # Advance program order and update ordinary block state.
        vc[thread] = vc.get(thread, 0) + 1
        if not sync:
            if store_like:
                last_write[block] = (thread, vc[thread], ekey)
                readers.pop(block, None)
            else:
                readers.setdefault(block, {})[thread] = (vc[thread], ekey)

    return RaceReport(pairs=pairs, epochs=epochs)


class _EpochCursor:
    """Monotone seq -> epoch-key lookup, one pointer per thread.

    Events are processed in ascending seq order, so each thread's pointer
    only ever advances.
    """

    def __init__(self, epochs) -> None:
        self._by_thread: Dict[int, List[Epoch]] = {}
        for epoch in epochs:
            self._by_thread.setdefault(epoch.thread, []).append(epoch)
        for entries in self._by_thread.values():
            entries.sort(key=lambda e: e.first_seq)
        self._position: Dict[int, int] = {}

    def key_for(self, thread: int, seq: int) -> EpochKey:
        entries = self._by_thread.get(thread, [])
        index = self._position.get(thread, 0)
        while index < len(entries) and entries[index].last_seq < seq:
            index += 1
        self._position[thread] = index
        if index < len(entries) and entries[index].first_seq <= seq:
            return entries[index].key
        return (thread, -1)


def find_persist_epoch_races(
    trace: Trace, tracking_granularity: int = 8
) -> List[RacingPair]:
    """Find the paper's persist-epoch races: racing access pairs whose
    enclosing epochs, on different threads, both contain persists."""
    return analyze_races(trace, tracking_granularity).persist_epoch_races()


def find_data_races(
    trace: Trace, tracking_granularity: int = 8
) -> List[RacingPair]:
    """Find plain data races (conflicting ordinary accesses unordered by
    happens-before), regardless of persist content."""
    report = analyze_races(trace, tracking_granularity)
    return [pair for pair in report.pairs if pair.kind == "data"]


def is_race_free(trace: Trace, tracking_granularity: int = 8) -> bool:
    """True when the trace follows the paper's race-free discipline (no
    persist-epoch races)."""
    return not find_persist_epoch_races(trace, tracking_granularity)
