"""Fuzz-target registry: recoverable workloads behind one interface.

Every target wraps one recoverable workload as the same four-step
pipeline the campaign engine drives: build a program for a given
(threads, ops) size, run it under a caller-supplied schedule, hand back
the trace plus the base NVRAM image, and expose a recovery-invariant
checker that raises :class:`~repro.errors.RecoveryError` when a
failure-state image violates the workload's ground truth.

The registry deliberately includes three **known-broken** variants whose
bugs the paper's discipline explains — the fuzzer must rediscover each
from scratch:

* ``queue-2lc-faithful`` — the paper's printed 2LC pseudo-code, which
  omits a persist barrier between an insert's data copy and its
  completion-marking; under epoch/strand persistency another thread's
  head persist can cover unpersisted data (a hole).
* ``minifs-racy`` — MiniFS built without the paper's barriers around
  lock acquires/releases; block reuse can persist before the directory
  swing it depends on (a torn file).
* ``publish-pair`` — the minimal two-thread publish idiom with the
  persist barrier between data stores and the volatile hand-off
  omitted; relaxed models can persist the publisher's flag over
  still-unpersisted record words.
* ``log-repair-buggy`` — the log workload wired to a deliberately
  non-idempotent repair (each pass drops the last *intact* record as if
  it were torn); the crash-during-recovery harness
  (:mod:`repro.crashrec`) must rediscover the idempotence violation.

Their fixed counterparts (``queue-2lc``, ``minifs``) and the remaining
targets are expected to survive any budget with zero violations.

Targets additionally expose a detect-and-degrade checker
(``TargetRun.check_report``) used under device fault injection
(:mod:`repro.inject`).  **Hardened** targets (``log``, ``kv``,
``minifs`` — per-record checksums) must detect or mask every injected
fault; the queue keeps the paper's exact wire format (no checksums), so
it detects only structural faults and documents payload corruption as
its undetectable exposure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import FuzzError, RecoveryError
from repro.histories.oracle import HistorySpec
from repro.histories.record import record_op
from repro.histories.spec import (
    CounterSpec,
    KvSpec,
    LogSpec,
    MiniFsSpec,
    QueueSpec,
)
from repro.inject.report import RecoveryReport, RepairPlan
from repro.memory import layout
from repro.memory.nvram import NvramImage
from repro.queue.recovery import (
    recover_entries,
    recover_report,
    verify_recovery,
)
from repro.queue.recovery import repair_plan as queue_repair_plan
from repro.queue.workload import prepare_insert_workload
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.structures.counter import StripedPersistentCounter
from repro.structures.kv import PersistentKvStore
from repro.structures.log import PersistentLog
from repro.structures.minifs import MiniFs, name_hash
from repro.structures.transactions import DurableTransactions
from repro.trace.trace import Trace


@dataclass
class TargetRun:
    """One executed target program, ready for failure injection.

    ``check`` is a closure over the run's ground truth: it takes a
    failure-state :class:`~repro.memory.nvram.NvramImage` and raises
    :class:`~repro.errors.RecoveryError` when recovery from that image
    violates the target's invariant.

    ``check_report`` is the detect-and-degrade variant used under device
    fault injection (:mod:`repro.inject`): it runs the structure's
    ``recover_report``, validates the *recovered state* against the same
    ground truth, and returns the :class:`~repro.inject.report.RecoveryReport`
    (whose diagnoses say what was detected and quarantined).  It raises
    :class:`~repro.errors.RecoveryError` only when the recovered state is
    silently wrong — state the structure returned as good that the
    ground truth refutes.  Targets without degrading recovery leave it
    None.

    ``history_spec`` connects the run to the durable-linearizability
    oracle (:mod:`repro.histories`): the structure's sequential spec
    plus an observe projection from a failure-cut image to the spec's
    observed-state shape.  It is populated only when the run was built
    with ``record_history=True``.

    ``repair`` connects the run to the crash-during-recovery harness
    (:mod:`repro.crashrec`): a closure over the run's structure objects
    (which own the absolute addresses) that plans the mutating repair
    for a failure-state image as a :class:`~repro.inject.report.RepairPlan`.
    Targets without a repair procedure leave it None.
    """

    trace: Trace
    base_image: NvramImage
    check: Callable[[NvramImage], None]
    check_report: Optional[Callable[[NvramImage], RecoveryReport]] = None
    history_spec: Optional[HistorySpec] = None
    repair: Optional[Callable[[NvramImage], RepairPlan]] = None


#: A target preparer: builds a not-yet-run machine plus a finalizer that
#: packages one completed execution into a :class:`TargetRun`.  The
#: finalizer may be called once per execution of the same machine (the
#: prefix-sharing checker re-finalizes after every replayed schedule).
#: Recordable targets additionally accept a ``record_history`` keyword
#: that makes thread bodies emit operation markers for the history
#: oracle (off by default — markers lengthen the trace and so perturb
#: seeded schedules).
Preparer = Callable[
    [int, int, Scheduler],
    Tuple[Machine, Callable[[Machine], TargetRun]],
]


@dataclass(frozen=True)
class FuzzTarget:
    """A registered fuzz target and its sampling/shrinking bounds.

    ``thread_range`` and ``ops_range`` are inclusive (min, max) bounds:
    the campaign samples sizes inside them and the minimizer never
    shrinks below their minima (below which the target's invariant is
    vacuous — e.g. a shadow-update bug needs at least one rewrite).
    """

    name: str
    preparer: Preparer
    thread_range: Tuple[int, int]
    ops_range: Tuple[int, int]
    #: Documented-broken variant: campaigns are expected to find bugs.
    known_broken: bool = False
    #: Hardened targets carry per-record checksums: under fault
    #: injection every injected fault must be masked or detected —
    #: silently-wrong recovered state is a campaign failure.  Unhardened
    #: targets (the paper-faithful wire formats) document their
    #: undetectable-corruption exposure instead.
    hardened: bool = False
    #: Recordable targets emit operation histories on demand and expose
    #: a sequential spec, so the ``dl``/``bdl`` oracles apply to them.
    recordable: bool = False
    #: Repairable targets populate ``TargetRun.repair``, so the
    #: crash-during-recovery harness (:mod:`repro.crashrec`) applies.
    repairable: bool = False

    def setup(
        self,
        threads: int,
        ops: int,
        scheduler: Scheduler,
        record_history: bool = False,
    ) -> Tuple[Machine, Callable[[Machine], TargetRun]]:
        """Build a not-yet-run program of the given size.

        Returns ``(machine, finalize)``: the machine has executed zero
        steps (so callers may enable snapshots for prefix-sharing
        replay), and ``finalize(machine)`` packages a completed run into
        a :class:`TargetRun`.  ``finalize`` recomputes schedule-dependent
        ground truth (e.g. append offsets) from the machine each call,
        so it is safe to call once per replayed schedule.

        With ``record_history`` the program emits operation markers and
        the finalized run carries a ``history_spec`` for the DL/BDL
        oracles; only recordable targets support it.
        """
        if threads <= 0 or ops <= 0:
            raise FuzzError(
                f"target sizes must be positive, got threads={threads} "
                f"ops={ops}"
            )
        if record_history:
            if not self.recordable:
                raise FuzzError(
                    f"target {self.name!r} does not record operation "
                    f"histories (required by the dl/bdl oracles)"
                )
            return self.preparer(threads, ops, scheduler, record_history=True)
        return self.preparer(threads, ops, scheduler)

    def build(
        self,
        threads: int,
        ops: int,
        scheduler: Scheduler,
        record_history: bool = False,
    ) -> TargetRun:
        """Build and run one program of the given size under ``scheduler``."""
        machine, finalize = self.setup(
            threads, ops, scheduler, record_history=record_history
        )
        machine.run()
        return finalize(machine)


def _fresh_machine(scheduler: Scheduler) -> Machine:
    """A machine sized for small fuzz programs."""
    return Machine(scheduler=scheduler, persistent_size=1 << 20)


def _snapshot(machine: Machine) -> NvramImage:
    """Base NVRAM image after structure initialisation (pre-failure)."""
    return NvramImage.from_region(
        machine.memory.region("persistent"), blank=False
    )


# -- queue targets -----------------------------------------------------------


def _queue_builder(design: str, paper_faithful: bool):
    """Preparer factory for the queue insert workloads."""

    def prepare(
        threads: int,
        ops: int,
        scheduler: Scheduler,
        record_history: bool = False,
    ):
        """Build the insert workload; check entries against ground truth."""
        machine, finish_workload = prepare_insert_workload(
            design=design,
            threads=threads,
            inserts_per_thread=ops,
            entry_size=48,
            paper_faithful=paper_faithful,
            scheduler=scheduler,
            record_history=record_history,
        )

        def finalize(machine: Machine) -> TargetRun:
            result = finish_workload(machine)
            base = result.queue.base
            expected = result.expected

            def check(image: NvramImage) -> None:
                """Every recovered entry must match what was inserted."""
                verify_recovery(image, base, expected)

            def check_report(image: NvramImage) -> RecoveryReport:
                """Degrading recovery; structural faults only (no checksums)."""
                report = recover_report(image, base)
                for entry in report.state:
                    if expected.get(entry.offset) != entry.payload:
                        raise RecoveryError(
                            f"queue entry at offset {entry.offset} recovered "
                            f"a payload that was never inserted there"
                        )
                return report

            def observe(image: NvramImage) -> Dict[int, bytes]:
                """Recovered entries by offset (raises on unparsable state)."""
                _, entries = recover_entries(image, base)
                return {entry.offset: entry.payload for entry in entries}

            return TargetRun(
                trace=result.trace,
                base_image=result.base_image,
                check=check,
                check_report=check_report,
                history_spec=(
                    HistorySpec(spec=QueueSpec(), observe=observe)
                    if record_history
                    else None
                ),
                repair=lambda image: queue_repair_plan(
                    image, base, handle=result.queue
                ),
            )

        return machine, finalize

    return prepare


# -- key-value store ---------------------------------------------------------


def _kv_thread(
    ctx,
    store,
    thread: int,
    ops: int,
    history: Dict[int, Set[int]],
    record: bool = False,
):
    """Generator body: puts (with overwrites) and occasional deletes."""
    for index in range(ops):
        key = thread * 8 + (index % 2) + 1
        value = (thread + 1) * 1_000_000 + index + 1
        history.setdefault(key, set()).add(value)
        if record:
            yield from record_op(
                ctx, "put", [key, value], store.put(ctx, key, value)
            )
        else:
            yield from store.put(ctx, key, value)
        if index % 4 == 3:
            if record:
                yield from record_op(
                    ctx, "delete", [key], store.delete(ctx, key)
                )
            else:
                yield from store.delete(ctx, key)


def _prepare_kv(
    threads: int, ops: int, scheduler: Scheduler, record_history: bool = False
):
    """KV-store target: recovered pairs must have been written.

    ``history`` is mutated by the thread bodies as they run; replayed
    prefixes re-add the same deterministic (key, value) pairs, so the
    set-valued history is replay-idempotent.
    """
    machine = _fresh_machine(scheduler)
    store = PersistentKvStore(machine, slots=64)
    base_image = _snapshot(machine)
    history: Dict[int, Set[int]] = {}
    for thread in range(threads):
        machine.spawn(_kv_thread, store, thread, ops, history, record_history)

    def finalize(machine: Machine) -> TargetRun:
        def check(image: NvramImage) -> None:
            """Every recovered pair must be a (key, value) actually put."""
            for key, value in store.recover(image).items():
                if key not in history:
                    raise RecoveryError(f"recovered unknown key {key}")
                if value not in history[key]:
                    raise RecoveryError(
                        f"key {key} recovered value {value} that was never "
                        f"written"
                    )

        def check_report(image: NvramImage) -> RecoveryReport:
            """Degrading recovery: checksummed pairs must all be genuine."""
            report = store.recover_report(image)
            for key, value in report.state.items():
                if key not in history or value not in history[key]:
                    raise RecoveryError(
                        f"kv slot passed its checksum but holds ({key}, "
                        f"{value}), which was never written"
                    )
            return report

        return TargetRun(
            trace=machine.trace,
            base_image=base_image,
            check=check,
            check_report=check_report,
            history_spec=(
                HistorySpec(spec=KvSpec(), observe=store.recover)
                if record_history
                else None
            ),
            repair=store.repair_plan,
        )

    return machine, finalize


# -- append-only log ---------------------------------------------------------


def _log_thread(ctx, log, thread: int, ops: int, record: bool = False):
    """Generator body: append ``ops`` framed records; returns offsets."""
    written: List[Tuple[int, bytes]] = []
    for index in range(ops):
        payload = bytes([thread * 16 + index + 1]) * (8 + (index % 3) * 8)
        if record:
            offset = yield from record_op(
                ctx, "append", [payload], log.append(ctx, payload)
            )
        else:
            offset = yield from log.append(ctx, payload)
        written.append((offset, payload))
    return written


def _prepare_log(
    threads: int,
    ops: int,
    scheduler: Scheduler,
    record_history: bool = False,
    buggy_repair: bool = False,
):
    """Log target: committed records must match their appends exactly."""
    machine = _fresh_machine(scheduler)
    log = PersistentLog(machine, capacity=threads * ops * 64 + 64)
    base_image = _snapshot(machine)
    for thread in range(threads):
        machine.spawn(_log_thread, log, thread, ops, record_history)
    return machine, lambda machine: _finalize_log(
        machine, log, base_image, record_history, buggy_repair
    )


def _prepare_log_buggy_repair(
    threads: int, ops: int, scheduler: Scheduler, record_history: bool = False
):
    """The log workload wired to the seeded non-idempotent repair."""
    return _prepare_log(
        threads, ops, scheduler, record_history, buggy_repair=True
    )


def _finalize_log(
    machine: Machine,
    log: PersistentLog,
    base_image: NvramImage,
    record_history: bool = False,
    buggy_repair: bool = False,
) -> TargetRun:
    """Package one completed log run; offsets are schedule-dependent."""
    expected: Dict[int, bytes] = {}
    for thread in machine.threads:
        for offset, payload in thread.result:
            expected[offset] = payload

    def check(image: NvramImage) -> None:
        """Recovery must parse, and every record must match its append."""
        for record in log.recover(image):
            if expected.get(record.offset) != record.payload:
                raise RecoveryError(
                    f"log record at offset {record.offset} does not match "
                    f"the payload appended there"
                )

    def check_report(image: NvramImage) -> RecoveryReport:
        """Degrading recovery: surviving records must all be genuine."""
        report = log.recover_report(image)
        for record in report.state:
            if expected.get(record.offset) != record.payload:
                raise RecoveryError(
                    f"log record at offset {record.offset} passed its "
                    f"checksum but matches no append"
                )
        return report

    def observe(image: NvramImage) -> Dict[int, bytes]:
        """Committed records by offset (raises on unparsable frames)."""
        return {
            record.offset: record.payload for record in log.recover(image)
        }

    return TargetRun(
        trace=machine.trace,
        base_image=base_image,
        check=check,
        check_report=check_report,
        history_spec=(
            HistorySpec(spec=LogSpec(), observe=observe)
            if record_history
            else None
        ),
        repair=lambda image: log.repair_plan(
            image, drop_clean_tail=buggy_repair
        ),
    )


# -- striped counter ---------------------------------------------------------


def _counter_thread(ctx, counter, ops: int, record: bool = False):
    """Generator body: ``ops`` unit increments of the caller's stripe."""
    for _ in range(ops):
        if record:
            yield from record_op(
                ctx, "increment", [1], counter.increment(ctx)
            )
        else:
            yield from counter.increment(ctx)


def _prepare_counter(
    threads: int, ops: int, scheduler: Scheduler, record_history: bool = False
):
    """Striped-counter target: never overcount, never go negative."""
    machine = _fresh_machine(scheduler)
    counter = StripedPersistentCounter(machine, threads)
    base_image = _snapshot(machine)
    for _ in range(threads):
        machine.spawn(_counter_thread, counter, ops, record_history)
    ceiling = threads * ops

    def finalize(machine: Machine) -> TargetRun:
        def check(image: NvramImage) -> None:
            """Durable value must lie in [0, total increments]."""
            value = counter.recover(image)
            if not 0 <= value <= ceiling:
                raise RecoveryError(
                    f"counter recovered {value} outside [0, {ceiling}]"
                )

        def check_report(image: NvramImage) -> RecoveryReport:
            """Degrading recovery: surviving stripes must stay in range."""
            report = counter.recover_report(image, per_stripe_ceiling=ops)
            if not 0 <= report.state <= ceiling:
                raise RecoveryError(
                    f"counter recovered {report.state} outside "
                    f"[0, {ceiling}] from stripes that passed validation"
                )
            return report

        return TargetRun(
            trace=machine.trace,
            base_image=base_image,
            check=check,
            check_report=check_report,
            history_spec=(
                HistorySpec(spec=CounterSpec(), observe=counter.recover)
                if record_history
                else None
            ),
            repair=lambda image: counter.repair_plan(
                image, per_stripe_ceiling=ops
            ),
        )

    return machine, finalize


# -- MiniFS ------------------------------------------------------------------


def _fs_content(thread: int, version: int) -> bytes:
    """Deterministic 300-byte content, distinct per (thread, version)."""
    return bytes([(thread * 16 + version + 1) % 256]) * 300


def _fs_thread(ctx, fs, thread: int, ops: int, record: bool = False):
    """Generator body: create a file, then shadow-rewrite it."""
    name = f"f{thread}"
    first = _fs_content(thread, 0)
    if record:
        yield from record_op(
            ctx, "create", [name, first], fs.create(ctx, name, first)
        )
    else:
        yield from fs.create(ctx, name, first)
    for version in range(1, ops):
        content = _fs_content(thread, version)
        if record:
            yield from record_op(
                ctx, "write", [name, content], fs.write(ctx, name, content)
            )
        else:
            yield from fs.write(ctx, name, content)


def _minifs_builder(race_free: bool):
    """Preparer factory for MiniFS with/without the race-free barriers."""

    def prepare(
        threads: int,
        ops: int,
        scheduler: Scheduler,
        record_history: bool = False,
    ):
        """Create + rewrite one file per thread; recover all versions."""
        machine = _fresh_machine(scheduler)
        fs = MiniFs(
            machine,
            inodes=12,
            data_blocks=16,
            dir_slots=8,
            race_free=race_free,
        )
        base_image = _snapshot(machine)
        history: Dict[int, Set[bytes]] = {}
        for thread in range(threads):
            versions = {_fs_content(thread, v) for v in range(ops)}
            history[name_hash(f"f{thread}")] = versions
            machine.spawn(_fs_thread, fs, thread, ops, record_history)

        def finalize(machine: Machine) -> TargetRun:
            def check(image: NvramImage) -> None:
                """Every recovered file must equal some written version."""
                for hashed, recovered in fs.recover(image).items():
                    if hashed not in history:
                        raise RecoveryError(
                            f"recovered unknown file {hashed:#x}"
                        )
                    if recovered.data not in history[hashed]:
                        raise RecoveryError(
                            f"file {hashed:#x} recovered data matching no "
                            f"written version"
                        )

            def check_report(image: NvramImage) -> RecoveryReport:
                """Degrading mount: every mounted file must be a real version."""
                report = fs.recover_report(image)
                for hashed, recovered in report.state.items():
                    if hashed not in history or (
                        recovered.data not in history[hashed]
                    ):
                        raise RecoveryError(
                            f"file {hashed:#x} mounted cleanly but matches "
                            f"no written version"
                        )
                return report

            def observe(image: NvramImage) -> Dict[int, bytes]:
                """Mounted file contents by name hash (raises on torn state)."""
                return {
                    hashed: recovered.data
                    for hashed, recovered in fs.recover(image).items()
                }

            return TargetRun(
                trace=machine.trace,
                base_image=base_image,
                check=check,
                check_report=check_report,
                history_spec=(
                    HistorySpec(spec=MiniFsSpec(), observe=observe)
                    if record_history
                    else None
                ),
                repair=fs.repair_plan,
            )

        return machine, finalize

    return prepare


# -- durable transactions ----------------------------------------------------


def _txn_thread(ctx, txns, data_base: int, thread: int, ops: int):
    """Generator body: ``ops`` two-word transactions on owned words."""
    committed: List[Tuple[int, int, List[Tuple[int, int]]]] = []
    addr_a = data_base + thread * 2 * layout.WORD_SIZE
    addr_b = addr_a + layout.WORD_SIZE
    for index in range(ops):
        txn = yield from txns.begin(ctx)
        value_a = (thread + 1) * 10_000 + index * 10 + 1
        value_b = (thread + 1) * 10_000 + index * 10 + 2
        yield from txns.write(ctx, txn, addr_a, value_a)
        yield from txns.write(ctx, txn, addr_b, value_b)
        sequence = yield from txns.commit(ctx, txn)
        committed.append(
            (sequence, txn.txn_id, [(addr_a, value_a), (addr_b, value_b)])
        )
    return committed


def _prepare_transactions(threads: int, ops: int, scheduler: Scheduler):
    """Transaction target: durable commits form a prefix; replay exact."""
    machine = _fresh_machine(scheduler)
    txns = DurableTransactions(
        machine, threads, commit_capacity=threads * ops + 4
    )
    data_base = machine.persistent_heap.malloc(
        threads * 2 * layout.WORD_SIZE
    )
    base_image = _snapshot(machine)
    for thread in range(threads):
        machine.spawn(_txn_thread, txns, data_base, thread, ops)
    all_addrs = [
        data_base + index * layout.WORD_SIZE
        for index in range(threads * 2)
    ]

    def finalize(machine: Machine) -> TargetRun:
        commit_order: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        for thread in machine.threads:
            commit_order.extend(thread.result)
        commit_order.sort()

        def check(image: NvramImage) -> None:
            """Committed ids must prefix the commit order; values must match."""
            state = txns.recover(image)
            committed = state.committed_txn_ids
            expected_prefix = [
                txn_id for _, txn_id, _ in commit_order[: len(committed)]
            ]
            if committed != expected_prefix:
                raise RecoveryError(
                    f"recovered commits {committed} are not a prefix of the "
                    f"commit order"
                )
            values: Dict[int, int] = {}
            for _, _, writes in commit_order[: len(committed)]:
                values.update(writes)
            for addr in all_addrs:
                if state.read(addr) != values.get(addr, 0):
                    raise RecoveryError(
                        f"address {addr:#x} replayed to a value no committed "
                        f"prefix explains"
                    )

        return TargetRun(
            trace=machine.trace,
            base_image=base_image,
            check=check,
            repair=txns.repair_plan,
        )

    return machine, finalize


# -- publish pair ------------------------------------------------------------
#
# The smallest idiom the paper's discipline exists for: writers fill
# persistent records and hand off through volatile flags; a publisher
# observes every hand-off and durably marks the records published.  The
# writers omit the persist barrier between their data stores and the
# hand-off, so under relaxed persistency (epoch, strand) the publisher's
# flag persist can reach NVRAM while record words are still in flight —
# recovery then sees published=1 over garbage.  Strict persistency keeps
# the trace-order dependence and stays violation-free.

#: Record word values: writer ``w``'s word ``i`` holds this + w*16 + i.
_PUBLISH_WORD = 0xA000

#: Bytes reserved per writer's record block (flag lives after the last).
_PUBLISH_STRIDE = 64


def _publish_record_word(writer: int, index: int) -> int:
    """The value writer ``writer`` stores into its record word ``index``."""
    return _PUBLISH_WORD + writer * 16 + index


def _publish_writer(ctx, record_base: int, ready_addr: int, writer: int, words: int):
    """Generator body: fill the record, then hand off (no barrier — bug)."""
    for index in range(words):
        yield from ctx.store(
            record_base + index * layout.WORD_SIZE,
            _publish_record_word(writer, index),
        )
    yield from ctx.store(ready_addr, 1, sync=True)


def _publish_publisher(ctx, ready_base: int, writers: int, flag_addr: int):
    """Generator body: wait for every hand-off, durably mark published."""
    for writer in range(writers):
        yield from ctx.wait_equals(
            ready_base + writer * layout.WORD_SIZE, 1, sync=True
        )
    yield from ctx.store(flag_addr, 1)


def _prepare_publish_pair(threads: int, ops: int, scheduler: Scheduler):
    """Publish target: a set flag promises every writer's ``ops + 1`` words.

    ``threads - 1`` writers plus one publisher (the registry samples
    ``threads == 2``, the paper's pair; benchmarks scale it up).
    """
    machine = _fresh_machine(scheduler)
    writers = max(threads - 1, 1)
    words = ops + 1
    record_base = machine.persistent_heap.malloc(
        writers * _PUBLISH_STRIDE + layout.WORD_SIZE
    )
    flag_addr = record_base + writers * _PUBLISH_STRIDE
    ready_base = machine.volatile_heap.malloc(writers * layout.WORD_SIZE)
    base_image = _snapshot(machine)
    for writer in range(writers):
        machine.spawn(
            _publish_writer,
            record_base + writer * _PUBLISH_STRIDE,
            ready_base + writer * layout.WORD_SIZE,
            writer,
            words,
        )
    machine.spawn(_publish_publisher, ready_base, writers, flag_addr)

    def finalize(machine: Machine) -> TargetRun:
        def check(image: NvramImage) -> None:
            """A durable published flag promises every record word."""
            flag = image.read(flag_addr, layout.WORD_SIZE)
            if flag == 0:
                return
            for writer in range(writers):
                for index in range(words):
                    addr = (
                        record_base
                        + writer * _PUBLISH_STRIDE
                        + index * layout.WORD_SIZE
                    )
                    value = image.read(addr, layout.WORD_SIZE)
                    if value != _publish_record_word(writer, index):
                        raise RecoveryError(
                            f"published flag is durable but writer "
                            f"{writer}'s record word {index} holds "
                            f"{value:#x}, not "
                            f"{_publish_record_word(writer, index):#x}"
                        )

        return TargetRun(
            trace=machine.trace, base_image=base_image, check=check
        )

    return machine, finalize


# -- durable publish (x86 flush family) --------------------------------------
#
# The single-thread durable-publish idiom the Px86 family discriminates:
# each writer fills its record, flushes every record word, and then sets
# its own *persistent* published flag.  Whether the flag can persist
# before the record depends on the model:
#
# * ``publish-clwb`` flushes with ``clwb`` and commits with ``sfence``
#   before the flag store — correct under px86/dpox86 (and strict), but
#   the paper's epoch/strand models ignore the x86 flush family, so the
#   default fuzz models still find the missing PERSISTBARRIER.
# * ``publish-clflushopt-nofence`` omits the committing fence — under
#   px86 the weak flushes never take effect before the flag store, so
#   px86 finds violations that dpox86 (where every flush is synchronous)
#   provably cannot.  Fuzzing it under both is the campaign-level
#   px86-vs-dpox86 differential.


def _flush_publish_writer(
    ctx, record_base: int, flag_addr: int, writer: int, words: int,
    flush: str, fence: bool,
):
    """Generator body: fill the record, flush it, maybe fence, publish."""
    for index in range(words):
        yield from ctx.store(
            record_base + index * layout.WORD_SIZE,
            _publish_record_word(writer, index),
        )
    for index in range(words):
        addr = record_base + index * layout.WORD_SIZE
        if flush == "clwb":
            yield from ctx.clwb(addr)
        else:
            yield from ctx.clflushopt(addr)
    if fence:
        yield from ctx.sfence()
    yield from ctx.store(flag_addr, 1)


def _flush_publish_builder(flush: str, fence: bool) -> Preparer:
    """Preparer factory for the durable-publish flush variants."""

    def prepare(threads: int, ops: int, scheduler: Scheduler):
        machine = _fresh_machine(scheduler)
        words = ops + 1
        record_base = machine.persistent_heap.malloc(
            threads * _PUBLISH_STRIDE
        )
        # Flags live in their own lines so a record flush never covers one.
        flag_base = machine.persistent_heap.malloc(
            threads * _PUBLISH_STRIDE
        )
        base_image = _snapshot(machine)
        for writer in range(threads):
            machine.spawn(
                _flush_publish_writer,
                record_base + writer * _PUBLISH_STRIDE,
                flag_base + writer * _PUBLISH_STRIDE,
                writer,
                words,
                flush,
                fence,
            )

        def finalize(machine: Machine) -> TargetRun:
            def check(image: NvramImage) -> None:
                """A writer's durable flag promises its record words."""
                for writer in range(threads):
                    flag = image.read(
                        flag_base + writer * _PUBLISH_STRIDE,
                        layout.WORD_SIZE,
                    )
                    if flag == 0:
                        continue
                    for index in range(words):
                        addr = (
                            record_base
                            + writer * _PUBLISH_STRIDE
                            + index * layout.WORD_SIZE
                        )
                        value = image.read(addr, layout.WORD_SIZE)
                        if value != _publish_record_word(writer, index):
                            raise RecoveryError(
                                f"writer {writer}'s published flag is "
                                f"durable but record word {index} holds "
                                f"{value:#x}, not "
                                f"{_publish_record_word(writer, index):#x}"
                            )

            return TargetRun(
                trace=machine.trace, base_image=base_image, check=check
            )

        return machine, finalize

    return prepare


# -- gpu lanes ---------------------------------------------------------------


def _prepare_gpu_lanes(threads: int, ops: int, scheduler: Scheduler):
    """Scoped lane commit: a durable scope commit word promises every
    record word of the scope's lanes (see :mod:`repro.gpu.lanes`)."""
    from repro.gpu.lanes import prepare_gpu_lanes

    return prepare_gpu_lanes(threads, ops, scheduler)


#: Registry of every fuzzable workload, keyed by CLI name.
TARGETS: Dict[str, FuzzTarget] = {
    target.name: target
    for target in (
        FuzzTarget(
            "queue-cwl",
            _queue_builder("cwl", False),
            (1, 4),
            (2, 6),
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "queue-2lc",
            _queue_builder("2lc", False),
            (1, 4),
            (2, 6),
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "queue-2lc-faithful",
            _queue_builder("2lc", True),
            (1, 4),
            (2, 6),
            known_broken=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "kv",
            _prepare_kv,
            (1, 4),
            (2, 8),
            hardened=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "log",
            _prepare_log,
            (1, 4),
            (2, 6),
            hardened=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "log-repair-buggy",
            _prepare_log_buggy_repair,
            (1, 4),
            (2, 6),
            known_broken=True,
            hardened=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "counter",
            _prepare_counter,
            (1, 4),
            (2, 8),
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "minifs",
            _minifs_builder(True),
            (2, 3),
            (2, 4),
            hardened=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "minifs-racy",
            _minifs_builder(False),
            (2, 3),
            (2, 4),
            known_broken=True,
            hardened=True,
            recordable=True,
            repairable=True,
        ),
        FuzzTarget(
            "transactions",
            _prepare_transactions,
            (1, 3),
            (1, 4),
            repairable=True,
        ),
        FuzzTarget(
            "gpu-lanes",
            _prepare_gpu_lanes,
            (2, 6),
            (1, 4),
        ),
        FuzzTarget(
            "publish-pair",
            _prepare_publish_pair,
            (2, 2),
            (1, 4),
            known_broken=True,
        ),
        FuzzTarget(
            "publish-clwb",
            _flush_publish_builder("clwb", fence=True),
            (1, 2),
            (1, 4),
            known_broken=True,
        ),
        FuzzTarget(
            "publish-clflushopt-nofence",
            _flush_publish_builder("clflushopt", fence=False),
            (1, 2),
            (1, 4),
            known_broken=True,
        ),
    )
}


#: Registered target names, sorted (the CLI and spec choices).
TARGET_CHOICES = tuple(sorted(TARGETS))


def make_target(name: str) -> FuzzTarget:
    """Look up a registered target by name.

    Raises:
        FuzzError: for unregistered names (listing the registry).
    """
    try:
        return TARGETS[name]
    except KeyError:
        raise FuzzError(
            f"unknown fuzz target {name!r}; expected one of "
            f"{sorted(TARGETS)}"
        ) from None
