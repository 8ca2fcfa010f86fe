"""Insert workloads over the persistent queue designs.

Builds a machine, allocates a queue, spawns insert threads, runs to
completion, and packages everything the analyses need: the trace, the
ground-truth entries for recovery verification, and the base NVRAM image
snapshotted after queue initialisation (the paper's implicit "the queue
existed durably before the failure window").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.memory.nvram import NvramImage
from repro.queue.cwl import CopyWhileLocked, make_cwl, padded_entry
from repro.queue.layout import (
    DATA_OFFSET,
    QueueHandle,
    allocate_queue,
    record_size,
)
from repro.queue.tlc import make_tlc
from repro.schema import option
from repro.sim.machine import Machine
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.sim.sync import LOCK_KINDS
from repro.trace.trace import Trace

#: Queue design registry: name -> factory with the shared signature.
DESIGNS: Dict[str, Callable] = {
    "cwl": make_cwl,
    "2lc": make_tlc,
}


@dataclass
class WorkloadConfig:
    """Parameters of one insert workload run (the described fields are
    the ``repro run``/``inject`` flags, see :mod:`repro.schema`)."""

    design: str = option("cwl", choices=tuple(DESIGNS))
    threads: int = option(1, type=int)
    inserts_per_thread: int = option(
        100, type=int, flag="--inserts", help="inserts per thread"
    )
    entry_size: int = option(100, type=int)
    racing: bool = option(False, type=bool)
    lock_kind: str = option("mcs", choices=tuple(LOCK_KINDS), flag="--lock")
    paper_faithful: bool = option(
        False, type=bool,
        help="2LC exactly as printed in Algorithm 1 (recovery-unsafe)",
    )
    insert_alignment: int = 64
    seed: int = option(0, type=int)
    #: Queue capacity in bytes; None sizes it to hold every insert.
    capacity: Optional[int] = None
    #: Place the queue in volatile memory (non-recoverable baseline).
    volatile_queue: bool = False
    #: Memory consistency model of the simulated machine ("sc" or "tso").
    consistency: str = "sc"
    #: Emit operation-history markers for the DL/BDL oracles
    #: (:mod:`repro.histories`).  Off by default: markers lengthen the
    #: trace, which perturbs seeded schedules.
    record_history: bool = False

    def validate(self) -> None:
        """Raise on unusable parameters."""
        if self.design not in DESIGNS:
            raise ReproError(
                f"unknown design {self.design!r}; expected one of "
                f"{sorted(DESIGNS)}"
            )
        if self.threads <= 0 or self.inserts_per_thread <= 0:
            raise ReproError("threads and inserts_per_thread must be positive")
        if self.entry_size < 16:
            raise ReproError("entry_size must be at least 16 bytes")

    @property
    def total_inserts(self) -> int:
        """Inserts across all threads."""
        return self.threads * self.inserts_per_thread

    def required_capacity(self) -> int:
        """Capacity holding every insert without wrap-around."""
        per_insert = record_size(self.entry_size, self.insert_alignment)
        return self.total_inserts * per_insert

    def describe(self) -> Dict[str, object]:
        """Metadata dict stored in the trace.

        ``record_history`` appears only when enabled so that the default
        description — written into trace metadata and pinned campaigns —
        stays byte-identical to pre-oracle releases.
        """
        meta = {
            "design": self.design,
            "threads": self.threads,
            "inserts_per_thread": self.inserts_per_thread,
            "entry_size": self.entry_size,
            "racing": self.racing,
            "lock_kind": self.lock_kind,
            "paper_faithful": self.paper_faithful,
            "insert_alignment": self.insert_alignment,
            "seed": self.seed,
            "consistency": self.consistency,
        }
        if self.record_history:
            meta["record_history"] = True
        return meta


@dataclass
class WorkloadResult:
    """Everything produced by one workload run.

    ``machine`` and ``queue`` may be ``None`` for a result rehydrated
    from a serialized trace rather than run in this process; every
    trace-derived metric still works.
    """

    config: WorkloadConfig
    machine: Optional[Machine]
    trace: Trace
    queue: Optional[QueueHandle]
    #: Insert start offset -> exact payload bytes written there.
    expected: Dict[int, bytes] = field(repr=False, default_factory=dict)
    #: Persistent-region snapshot taken after queue initialisation.
    base_image: Optional[NvramImage] = field(repr=False, default=None)

    @property
    def total_inserts(self) -> int:
        """Inserts completed (from trace marks)."""
        from repro.queue.cwl import INSERT_MARK

        return self.trace.count_marks(INSERT_MARK)

    @property
    def events_per_insert(self) -> float:
        """Average trace events per insert (instruction-cost input)."""
        inserts = self.total_inserts
        if inserts == 0:
            raise ReproError("workload completed no inserts")
        return len(self.trace) / inserts


def _insert_thread(ctx, design, config: WorkloadConfig, thread_index: int):
    """Generator body: perform this thread's inserts, recording offsets."""
    written: List[Tuple[int, bytes]] = []
    for index in range(config.inserts_per_thread):
        entry = padded_entry(thread_index, index, config.entry_size)
        if config.record_history:
            from repro.histories.record import record_op

            offset = yield from record_op(
                ctx, "insert", [entry], design.insert(ctx, entry)
            )
        else:
            offset = yield from design.insert(ctx, entry)
        written.append((offset, entry))
    return written


def prepare_insert_workload(
    config: Optional[WorkloadConfig] = None,
    scheduler: Optional[Scheduler] = None,
    **overrides,
) -> Tuple[Machine, Callable[[Machine], WorkloadResult]]:
    """Build an insert workload without running it.

    Returns ``(machine, finish)``: the machine has the queue allocated
    and all inserter threads spawned but has executed zero steps, and
    ``finish(machine)`` packages a completed run into a
    :class:`WorkloadResult`.  The split lets exploration engines own the
    run loop — enable snapshots on the pristine machine, replay shared
    prefixes — while :func:`run_insert_workload` remains the one-call
    wrapper (build, run, finish).
    """
    if config is None:
        config = WorkloadConfig(**overrides)
    elif overrides:
        raise ReproError("pass either a config object or overrides, not both")
    config.validate()

    capacity = config.capacity or config.required_capacity()
    persistent_size = DATA_OFFSET + capacity + 64 * 1024
    machine = Machine(
        scheduler=scheduler or RandomScheduler(seed=config.seed),
        persistent_size=max(persistent_size, 1024 * 1024),
        meta=config.describe(),
        consistency=config.consistency,
    )
    queue = allocate_queue(
        machine,
        capacity,
        insert_alignment=config.insert_alignment,
        persistent=not config.volatile_queue,
    )
    factory = DESIGNS[config.design]
    design = factory(
        machine,
        queue,
        racing=config.racing,
        lock_kind=config.lock_kind,
        paper_faithful=config.paper_faithful,
    )
    base_image = None
    if not config.volatile_queue:
        base_image = NvramImage.from_region(
            machine.memory.region("persistent"), blank=False
        )
    for thread_index in range(config.threads):
        machine.spawn(
            _insert_thread,
            design,
            config,
            thread_index,
            name=f"inserter-{thread_index}",
        )

    def finish(machine: Machine) -> WorkloadResult:
        expected: Dict[int, bytes] = {}
        for thread in machine.threads:
            for offset, entry in thread.result:
                expected[offset] = entry
        return WorkloadResult(
            config=config,
            machine=machine,
            trace=machine.trace,
            queue=queue,
            expected=expected,
            base_image=base_image,
        )

    return machine, finish


def run_insert_workload(
    config: Optional[WorkloadConfig] = None,
    scheduler: Optional[Scheduler] = None,
    **overrides,
) -> WorkloadResult:
    """Run one insert workload and return its artifacts.

    Either pass a :class:`WorkloadConfig` or keyword overrides for its
    fields (``run_insert_workload(design="2lc", threads=8)``).
    """
    machine, finish = prepare_insert_workload(config, scheduler, **overrides)
    machine.run()
    return finish(machine)
