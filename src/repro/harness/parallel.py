"""The task pool, and the paper grid's plan → resolve → run → fold path.

:class:`TaskPool` runs JSON-safe tasks through a module-level worker,
in-process or on a process pool, with per-attempt timeouts and
retries; :func:`fan_out` drives it over a batch of tasks for the fuzz
campaign, sharded checking and :func:`run_grid`, and ``repro serve``
awaits the same pool one shard at a time.  Table 1 and
Figures 3-5 evaluate a (design x threads x racing x model x
granularity) grid; :func:`run_grid` plans one task per *program
variant* carrying every cell that shares its trace, resolves the tasks
against a :class:`~repro.harness.cache.ResultStore`, runs the misses
through :func:`run_variant` (an identical runner decoded from the
task) and folds each payload — analyses, instruction rate, insert
count, no trace — into the parent
:class:`~repro.harness.runner.ExperimentRunner`, bit-identically to a
serial run.  ``repro serve``'s ``paper`` jobs plan, run and fold the
same tasks, so both paths store the same bytes under the same keys.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisConfig
from repro.errors import ReproError, TaskFailed
from repro.harness.cache import HarnessStats, ResultStore, analysis_to_payload
from repro.harness.instr import InstructionCostModel
from repro.harness.runner import (
    RACING_SENSITIVE_DESIGNS,
    TABLE1_COLUMNS,
    ExperimentRunner,
)
from repro.memory import layout
from repro.schema import decode, encode

#: One program variant: (design, threads, racing).
Variant = Tuple[str, int, bool]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff semantics of a :class:`TaskPool`.

    A task gets ``retries + 1`` attempts, waits ``backoff * 2**attempt``
    seconds before attempt ``attempt + 1``, and (on worker processes
    only) an attempt is abandoned past ``timeout`` seconds.
    """

    retries: int = 0
    backoff: float = 0.1
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ReproError(f"task retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError(
                f"task timeout must be positive, got {self.timeout}"
            )

    @property
    def attempts(self) -> int:
        """Total attempts a task may consume (first try included)."""
        return self.retries + 1

    def delay(self, attempt: int) -> float:
        """Backoff before the attempt *after* 0-based ``attempt``."""
        return self.backoff * (2 ** attempt)


class TaskPool:
    """A task worker behind a :class:`RetryPolicy`, awaited one task
    per caller.

    ``worker`` must be a module-level function taking one JSON-safe
    task dict and returning a JSON-safe result dict.  ``processes`` of
    0 calls it in-process (no pickling, no timeout); otherwise each
    attempt runs on one of ``processes`` worker processes and is
    abandoned once it overruns ``policy.timeout``.  ``stats`` counts
    ``task_attempts`` (every worker invocation, retries included),
    ``task_retries``, ``task_timeouts`` (expired attempts),
    ``task_failures`` and ``failure_exception_types`` (the *final*
    exception type of each failed task, ``"TimeoutError"`` for an
    expiry).  Only the pool's own deadline is a timeout: an exception
    the worker raises, ``TimeoutError`` included, is an error of its
    type.
    """

    def __init__(
        self,
        worker: Callable[[dict], dict],
        processes: int,
        policy: Optional[RetryPolicy] = None,
        stats: Optional[HarnessStats] = None,
    ) -> None:
        self.worker = worker
        self.processes = processes
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats if stats is not None else HarnessStats()
        self._executor: Optional[ProcessPoolExecutor] = None

    async def run(self, task: dict) -> dict:
        """The worker's result for ``task``.

        Raises:
            TaskFailed: when the task exhausts its attempts.
        """
        import asyncio

        policy, stats = self.policy, self.stats
        for attempt in range(policy.attempts):
            stats.task_attempts += 1
            try:
                if not self.processes:
                    return self.worker(task)
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(self.processes)
                future = asyncio.get_running_loop().run_in_executor(
                    self._executor, self.worker, task
                )
                try:
                    done, _ = await asyncio.wait(
                        {future}, timeout=policy.timeout
                    )
                finally:
                    future.cancel()  # abandons an unfinished attempt
                if done:
                    return future.result()
                stats.task_timeouts += 1
                error = f"timed out after {policy.timeout}s"
                kind = "TimeoutError"
            except Exception as exc:  # worker bug or corrupt task
                error, kind = str(exc), type(exc).__name__
            if attempt < policy.retries:
                stats.task_retries += 1
                await asyncio.sleep(policy.delay(attempt))
        stats.task_failures += 1
        types = stats.failure_exception_types
        types[kind] = types.get(kind, 0) + 1
        raise TaskFailed(policy.attempts, error)

    def shutdown(self, wait: bool = True) -> None:
        """Free the worker processes, by default once abandoned
        attempts end (without ``wait`` they end on their own)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None


def fan_out(
    worker: Callable[[dict], dict],
    tasks: Sequence[dict],
    jobs: Optional[int],
    merge: Callable[[dict], None],
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.1,
    on_failure: Optional[Callable[[dict, str], None]] = None,
    stats: Optional[HarnessStats] = None,
) -> None:
    """Run JSON-safe ``tasks`` through ``worker``, folding each result
    into ``merge``.

    The batch driver of :class:`TaskPool` under :func:`run_grid`, the
    ``repro.fuzz`` campaign engine and sharded checking: ``jobs`` slots
    each take the next task and await it on a pool of ``jobs`` worker
    processes; ``jobs`` of ``None``, 0 or 1 runs everything in-process
    through the same worker (identical results, no pool).  Results are
    merged as they complete, in arbitrary order, so ``merge`` must not
    assume task order.

    Resilience: a task whose attempt raises — or, on worker processes,
    runs past ``timeout`` seconds from its dispatch on a slot — is
    retried up to ``retries`` times with exponential backoff (see
    :class:`RetryPolicy`); once attempts are exhausted the task *fails
    its cell*: ``on_failure(task, error)`` is invoked (a warning when
    None) and the remaining tasks keep running.  ``stats`` (when given)
    accumulates the pool's counters for ``--stats`` reporting.

    Caveat: a timed-out worker process cannot be interrupted
    mid-computation; its attempt is abandoned, keeps its process busy
    until it ends, and the retry runs as a fresh submission.  Returning
    waits for abandoned attempts.
    """
    import asyncio

    policy = RetryPolicy(retries=retries, backoff=backoff, timeout=timeout)
    processes = jobs if jobs is not None and jobs > 1 else 0
    pool = TaskPool(worker, processes, policy, stats)
    queue = iter(tasks)

    async def slot() -> None:
        for task in queue:
            try:
                result = await pool.run(task)
            except TaskFailed as exc:
                if on_failure is not None:
                    on_failure(task, exc.error)
                else:
                    warnings.warn(
                        f"fan_out task {exc}", RuntimeWarning, stacklevel=2
                    )
                continue
            merge(result)

    async def drain() -> None:
        await asyncio.gather(*(slot() for _ in range(max(processes, 1))))

    try:
        asyncio.run(drain())
    finally:
        pool.shutdown()


@dataclass(frozen=True)
class GridCell:
    """One analysis cell of the experiment grid."""

    design: str
    threads: int
    racing: bool
    model: str
    persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY
    tracking_granularity: int = layout.DEFAULT_TRACKING_GRANULARITY
    coalescing: bool = True

    @property
    def variant(self) -> Variant:
        """The (design, threads, racing) program variant, normalised."""
        racing = self.racing and self.design in RACING_SENSITIVE_DESIGNS
        return (self.design, self.threads, racing)

    def analysis_config(self) -> AnalysisConfig:
        """The cell's analysis configuration."""
        return AnalysisConfig(
            persist_granularity=self.persist_granularity,
            tracking_granularity=self.tracking_granularity,
            coalescing=self.coalescing,
        )


def table1_cells(thread_counts: Sequence[int] = (1, 8)) -> List[GridCell]:
    """The grid cells Table 1 evaluates; raises
    :class:`~repro.errors.ReproError` on a thread count below one."""
    if not thread_counts or min(thread_counts) < 1:
        raise ReproError(
            f"thread counts must be positive, got {list(thread_counts)}"
        )
    cells = []
    for design in ("cwl", "2lc"):
        for threads in thread_counts:
            for model, racing in TABLE1_COLUMNS.values():
                cells.append(GridCell(design, threads, racing, model))
    return cells


def figure_cells(
    design: str = "cwl",
    threads: int = 1,
    granularities: Sequence[int] = (8, 16, 32, 64, 128, 256),
) -> List[GridCell]:
    """The grid cells Figures 3-5 evaluate (at their default arguments)."""
    cells = []
    for column in ("strict", "epoch", "strand"):  # Figure 3
        model, racing = TABLE1_COLUMNS[column]
        cells.append(GridCell(design, threads, racing, model))
    for column in ("strict", "epoch"):  # Figures 4 and 5
        model, racing = TABLE1_COLUMNS[column]
        for granularity in granularities:
            cells.append(
                GridCell(
                    design, threads, racing, model,
                    persist_granularity=granularity,
                )
            )
            cells.append(
                GridCell(
                    design, threads, racing, model,
                    tracking_granularity=granularity,
                )
            )
    return cells


def dedup_cells(cells: Iterable[GridCell]) -> List[GridCell]:
    """Drop duplicate cells (and racing variants of insensitive designs)."""
    seen = set()
    unique = []
    for cell in cells:
        canonical = replace(cell, racing=cell.variant[2])
        if canonical not in seen:
            seen.add(canonical)
            unique.append(canonical)
    return unique


#: A variant task's keys beside its runner's: the cost model's fields
#: (written flat), the variant and its cells.
_COST_KEYS = tuple(f.name for f in fields(InstructionCostModel))
_TASK_KEYS = ("kind", *_COST_KEYS, "variant", "cells")


def plan_variants(
    runner: ExperimentRunner, cells: Iterable[GridCell]
) -> List[dict]:
    """The grid's tasks: one JSON-safe dict per program variant.

    A task holds everything that determines its payload — the runner's
    encoded fields and cost model, the variant, and its cells — and
    nothing else, so its :func:`~repro.harness.cache.shard_key` is the
    same in every process and invocation.
    """
    groups: Dict[Variant, List[GridCell]] = {}
    for cell in dedup_cells(cells):
        groups.setdefault(cell.variant, []).append(cell)
    spec = {"kind": "paper", **encode(runner), **asdict(runner.cost_model)}
    return [
        {
            **spec,
            "variant": list(variant),
            "cells": [asdict(cell) for cell in variant_cells],
        }
        for variant, variant_cells in sorted(groups.items())
    ]


def run_variant(task: dict, stats: Optional[HarnessStats] = None) -> dict:
    """Worker entry point: trace one variant and analyze its cells.

    Returns the variant's payload — the cells' analyses, the
    instruction rate and the insert count — exactly as the store keeps
    it.  The runner's work counters go to ``stats`` when given.
    """
    runner = decode(
        ExperimentRunner,
        task,
        extra=_TASK_KEYS,
        task=True,
        cost_model=InstructionCostModel(**{k: task[k] for k in _COST_KEYS}),
        stats=HarnessStats() if stats is None else stats,
    )
    variant = tuple(task["variant"])
    analyses = []
    for wire in task["cells"]:
        cell = GridCell(**wire)
        result = runner.analysis(*variant, cell.model, cell.analysis_config())
        analyses.append(analysis_to_payload(result))
    return {
        "variant": task["variant"],
        "analyses": analyses,
        "instruction_rate": runner.instruction_rate(*variant),
        "total_inserts": runner.total_inserts(*variant),
    }


def _grid_worker(task: dict) -> dict:
    """:func:`run_variant` for :func:`run_grid`: the payload beside the
    worker's stats, which the parent merges but never stores."""
    stats = HarnessStats()
    return {"payload": run_variant(task, stats), "stats": stats.to_payload()}


def run_grid(
    runner: ExperimentRunner,
    cells: Iterable[GridCell],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
) -> HarnessStats:
    """Evaluate ``cells`` and fold every result into ``runner``.

    Plans one task per program variant (:func:`plan_variants`), resolves
    them against ``store`` when given, runs the misses through
    :func:`fan_out` on ``jobs`` worker processes (``None``, 0 or 1 runs
    them in-process) and stores each fresh payload.  Afterwards every
    cell's analysis, instruction rate and insert count sit in the
    runner's in-memory caches, so table/figure builders neither trace
    nor analyze.  A stored variant counts one workload disk hit and one
    analysis disk hit per cell; a fresh one adds its worker's counters.
    Store hits and misses count on ``store.stats``.  Returns the
    runner's stats.

    ``task_timeout`` / ``task_retries`` bound each variant task (see
    :func:`fan_out`).  A variant that exhausts its retries is *recorded*
    (``stats.task_failures``, plus a warning) rather than fatal: its
    cells are simply absent from the runner's caches, and any later
    table/figure builder that needs them recomputes serially on demand.
    """
    RetryPolicy(task_retries, timeout=task_timeout)  # rejects bad bounds
    tasks = plan_variants(runner, cells)
    if store is None:
        hits, pending = {}, dict.fromkeys(range(len(tasks)))
    else:
        hits, pending = store.resolve(tasks)
    for payload in hits.values():
        runner.fold(payload)
        runner.stats.workload_disk_hits += 1
        runner.stats.analysis_disk_hits += len(payload["analyses"])
    keys = {tuple(tasks[i]["variant"]): key for i, key in pending.items()}

    def merge(result: dict) -> None:
        runner.stats.merge(HarnessStats.from_payload(result["stats"]))
        payload = result["payload"]
        runner.fold(payload)
        if store is not None:
            store.store(keys[tuple(payload["variant"])], payload)

    def failed(task: dict, error: str) -> None:
        warnings.warn(
            f"grid variant {tuple(task['variant'])} failed ({error}); its "
            f"cells will be recomputed on demand",
            RuntimeWarning,
            stacklevel=2,
        )

    fan_out(
        _grid_worker,
        [tasks[index] for index in pending],
        jobs,
        merge,
        timeout=task_timeout,
        retries=task_retries,
        on_failure=failed,
        stats=runner.stats,
    )
    return runner.stats
