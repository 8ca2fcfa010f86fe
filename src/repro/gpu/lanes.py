"""The GPU-lanes scoped-persistency workload.

N *lanes* (simulated threads standing in for SIMT lanes) each append
``records`` fixed-size records to a private persistent region, with a
persist barrier after every record — relaxed persistency *within* a
record, epoch ordering *between* records, the recommended GPU pattern.
Lanes are grouped into *scopes* of ``lanes_per_scope``; when every lane
of a scope has signalled completion (through a volatile done flag), the
scope's committer thread issues a persist barrier and durably sets the
scope's commit word.

The recovery invariant is scoped epoch persistency in one sentence: **a
durable scope commit word promises every record word of every lane in
that scope.**  The committer's persist barrier between observing the
done flags and storing the commit word is what makes the promise hold —
under epoch persistency the committer's *observed* dependencies sit in
its open epoch until a barrier commits them, so without it the commit
word's persist is not ordered after the lanes' record persists at all.

Two generators produce the same event stream:

* :func:`build_lane_machine` / :func:`prepare_gpu_lanes` run the real
  simulated machine (schedulable, fuzzable, checkable);
* :func:`iter_lane_chunks` emits the canonical round-robin interleaving
  directly as columnar chunks — no machine, no scheduler — for
  benchmarking the streaming analyzer at million-event sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import RecoveryError, SimulationError
from repro.memory import layout
from repro.memory.nvram import NvramImage
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.trace.columnar import (
    CODE_LOAD,
    CODE_PERSIST_BARRIER,
    CODE_STORE,
    DEFAULT_CHUNK_EVENTS,
    FLAG_PERSISTENT,
    FLAG_SYNC,
    ColumnarChunk,
)

#: Record stride: one 64-byte line per record, the GPU-natural unit
#: (``words_per_record`` words live at its front, the rest is padding).
LINE = 64

#: Words per record in the fuzz-registry sizing (kept small so graph
#: cut enumeration over the persist DAG stays cheap at fuzz sizes).
FUZZ_WORDS_PER_RECORD = 2

#: Value stored into a scope's commit word.
COMMIT_MAGIC = 0xC0117ED


def lane_record_word(lane: int, record: int, word: int) -> int:
    """The deterministic value lane ``lane`` stores into record
    ``record``'s word ``word`` — what recovery checks against."""
    return ((lane + 1) << 32) | ((record + 1) << 8) | (word + 1)


@dataclass(frozen=True)
class LaneWorkload:
    """Geometry and address map of one gpu-lanes program.

    Shared between the machine workload, the synthetic chunk generator,
    and the recovery checker, so all three agree on every address and
    expected value.
    """

    lanes: int
    records: int
    words: int
    lanes_per_scope: int
    #: Base of the persistent record area (``lanes * records * LINE``).
    record_base: int
    #: Base of the persistent commit words, one :data:`LINE` per scope.
    commit_base: int
    #: Base of the volatile done flags, one word per lane.
    done_base: int

    @property
    def scopes(self) -> int:
        """Number of lane scopes (the last may be partial)."""
        return (self.lanes + self.lanes_per_scope - 1) // self.lanes_per_scope

    def scope_lanes(self, scope: int) -> range:
        """The lane ids belonging to ``scope``."""
        start = scope * self.lanes_per_scope
        return range(start, min(start + self.lanes_per_scope, self.lanes))

    def record_addr(self, lane: int, record: int, word: int) -> int:
        """Address of one record word."""
        return (
            self.record_base
            + (lane * self.records + record) * LINE
            + word * layout.WORD_SIZE
        )

    def commit_addr(self, scope: int) -> int:
        """Address of a scope's commit word."""
        return self.commit_base + scope * LINE

    def done_addr(self, lane: int) -> int:
        """Address of a lane's volatile done flag."""
        return self.done_base + lane * layout.WORD_SIZE

    def check(self, image: NvramImage) -> None:
        """A durable scope commit promises every scope record word.

        Raises:
            RecoveryError: when some scope's commit word is durable but
                a record word of one of its lanes is not the value the
                lane stored.
        """
        for scope in range(self.scopes):
            if image.read(self.commit_addr(scope), layout.WORD_SIZE) == 0:
                continue
            for lane in self.scope_lanes(scope):
                for record in range(self.records):
                    for word in range(self.words):
                        value = image.read(
                            self.record_addr(lane, record, word),
                            layout.WORD_SIZE,
                        )
                        expected = lane_record_word(lane, record, word)
                        if value != expected:
                            raise RecoveryError(
                                f"scope {scope} commit word is durable but "
                                f"lane {lane} record {record} word {word} "
                                f"holds {value:#x}, not {expected:#x}"
                            )


def _validate_geometry(
    lanes: int, records: int, words: int, lanes_per_scope: int
) -> None:
    """Reject impossible lane geometries with a clear error."""
    if lanes <= 0 or records <= 0 or lanes_per_scope <= 0:
        raise SimulationError(
            f"lanes ({lanes}), records ({records}) and lanes_per_scope "
            f"({lanes_per_scope}) must all be positive"
        )
    if not 1 <= words <= LINE // layout.WORD_SIZE:
        raise SimulationError(
            f"words_per_record must be in [1, {LINE // layout.WORD_SIZE}], "
            f"got {words}"
        )


def _lane_body(ctx, workload: LaneWorkload, lane: int):
    """Generator body of one lane: records with per-record epochs, then
    the volatile completion hand-off."""
    for record in range(workload.records):
        for word in range(workload.words):
            yield from ctx.store(
                workload.record_addr(lane, record, word),
                lane_record_word(lane, record, word),
            )
        yield from ctx.persist_barrier()
    yield from ctx.store(workload.done_addr(lane), 1, sync=True)


def _scope_committer(ctx, workload: LaneWorkload, scope: int):
    """Generator body of one scope committer.

    The persist barrier between the flag waits and the commit store is
    load-bearing: it closes the committer's epoch over the observed lane
    dependencies, ordering the commit persist after every record persist
    it promises.
    """
    for lane in workload.scope_lanes(scope):
        yield from ctx.wait_equals(workload.done_addr(lane), 1, sync=True)
    yield from ctx.persist_barrier()
    yield from ctx.store(workload.commit_addr(scope), COMMIT_MAGIC)
    yield from ctx.persist_barrier()


def build_lane_machine(
    lanes: int,
    records: int,
    words: int = FUZZ_WORDS_PER_RECORD,
    lanes_per_scope: int = 2,
    scheduler: Optional[Scheduler] = None,
) -> Tuple[Machine, LaneWorkload]:
    """Build a ready-to-run machine for a gpu-lanes program.

    Sizes the persistent region to the geometry (lane records plus one
    line per scope commit word), allocates the layout, snapshots nothing
    — callers wanting a base image should snapshot before ``run()``.
    """
    _validate_geometry(lanes, records, words, lanes_per_scope)
    scopes = (lanes + lanes_per_scope - 1) // lanes_per_scope
    need = (lanes * records + scopes) * LINE
    persistent_size = max(1 << 20, 1 << (need + LINE - 1).bit_length())
    volatile_size = max(1 << 20, 1 << (lanes * layout.WORD_SIZE * 2).bit_length())
    machine = Machine(
        scheduler=scheduler,
        persistent_size=persistent_size,
        volatile_size=volatile_size,
        meta={"workload": "gpu-lanes", "lanes": lanes, "records": records},
    )
    record_base = machine.persistent_heap.malloc(lanes * records * LINE)
    commit_base = machine.persistent_heap.malloc(scopes * LINE)
    done_base = machine.volatile_heap.malloc(lanes * layout.WORD_SIZE)
    workload = LaneWorkload(
        lanes=lanes,
        records=records,
        words=words,
        lanes_per_scope=lanes_per_scope,
        record_base=record_base,
        commit_base=commit_base,
        done_base=done_base,
    )
    for lane in range(lanes):
        machine.spawn(_lane_body, workload, lane, name=f"lane-{lane}")
    for scope in range(workload.scopes):
        machine.spawn(_scope_committer, workload, scope, name=f"commit-{scope}")
    return machine, workload


def prepare_gpu_lanes(threads: int, ops: int, scheduler: Scheduler):
    """Fuzz preparer: ``threads`` lanes of ``ops`` records each.

    Scopes of two lanes keep cross-thread promises in play at the
    registry's small sizes.  The workload is correct (the committer
    carries the required persist barrier), so campaigns expect zero
    violations under every model.
    """
    machine, workload = build_lane_machine(
        threads,
        ops,
        words=FUZZ_WORDS_PER_RECORD,
        lanes_per_scope=2,
        scheduler=scheduler,
    )
    base_image = NvramImage.from_region(
        machine.memory.region("persistent"), blank=False
    )

    def finalize(machine: Machine):
        from repro.fuzz.targets import TargetRun

        return TargetRun(
            trace=machine.trace, base_image=base_image, check=workload.check
        )

    return machine, finalize


def _synthetic_workload(
    lanes: int, records: int, words: int, lanes_per_scope: int
) -> LaneWorkload:
    """Address map for machine-free generation (fixed synthetic bases)."""
    _validate_geometry(lanes, records, words, lanes_per_scope)
    scopes = (lanes + lanes_per_scope - 1) // lanes_per_scope
    record_base = LINE  # leave address 0 unused, as the heaps do
    return LaneWorkload(
        lanes=lanes,
        records=records,
        words=words,
        lanes_per_scope=lanes_per_scope,
        record_base=record_base,
        commit_base=record_base + lanes * records * LINE,
        done_base=(record_base + (lanes * records + scopes) * LINE) * 2,
    )


def lane_event_count(
    lanes: int,
    records: int,
    words: int = 8,
    lanes_per_scope: int = 32,
) -> int:
    """Exact number of events :func:`iter_lane_chunks` will emit."""
    workload = _synthetic_workload(lanes, records, words, lanes_per_scope)
    committer_events = sum(
        len(workload.scope_lanes(scope)) + 3 for scope in range(workload.scopes)
    )
    return lanes * (records * (words + 1) + 1) + committer_events


def iter_lane_chunks(
    lanes: int,
    records: int,
    words: int = 8,
    lanes_per_scope: int = 32,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Iterator[ColumnarChunk]:
    """Generate the canonical gpu-lanes trace as columnar chunks.

    Emits the lockstep (SIMT-like) interleaving — all lanes store record
    ``r`` before any lane starts record ``r + 1`` — followed by the done
    hand-offs and scope commits.  Deterministic, machine-free, and
    bounded: at most one chunk is alive at a time, so million-event
    traces stream straight into the analyzer without ever existing
    whole.  Event values, addresses, and the committer's barrier
    placement match the machine workload exactly.
    """
    if chunk_events <= 0:
        raise SimulationError(
            f"chunk_events must be positive, got {chunk_events}"
        )
    workload = _synthetic_workload(lanes, records, words, lanes_per_scope)
    chunk = ColumnarChunk(0)
    store = CODE_STORE
    load = CODE_LOAD
    barrier = CODE_PERSIST_BARRIER
    word_size = layout.WORD_SIZE

    def emit(code, thread, addr=0, size=0, value=0, flags=0):
        nonlocal chunk
        if len(chunk) >= chunk_events:
            full, chunk = chunk, ColumnarChunk(chunk.end_seq)
            yield full
        chunk.append_raw(code, thread, addr, size, value, flags)

    for record in range(records):
        for lane in range(lanes):
            for word in range(words):
                yield from emit(
                    store,
                    lane,
                    workload.record_addr(lane, record, word),
                    word_size,
                    lane_record_word(lane, record, word),
                    FLAG_PERSISTENT,
                )
            yield from emit(barrier, lane)
    for lane in range(lanes):
        yield from emit(
            store, lane, workload.done_addr(lane), word_size, 1, FLAG_SYNC
        )
    for scope in range(workload.scopes):
        committer = lanes + scope
        for lane in workload.scope_lanes(scope):
            yield from emit(
                load, committer, workload.done_addr(lane), word_size, 1,
                FLAG_SYNC,
            )
        yield from emit(barrier, committer)
        yield from emit(
            store,
            committer,
            workload.commit_addr(scope),
            word_size,
            COMMIT_MAGIC,
            FLAG_PERSISTENT,
        )
        yield from emit(barrier, committer)
    if len(chunk):
        yield chunk
