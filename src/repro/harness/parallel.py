"""Task fan-out, and the paper grid's plan → resolve → run → fold path.

:func:`fan_out` runs JSON-safe tasks through a module-level worker,
in-process or on a process pool, with per-task timeouts and retries;
the fuzz campaign and :func:`run_grid` both sit on it.  Table 1 and
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

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisConfig
from repro.errors import ReproError
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
    """Shared timeout/retry/backoff semantics for task executors.

    One description of the resilience contract used by :func:`fan_out`
    (grids, fuzz campaigns, sharded checking) and by the serve worker
    pool (:mod:`repro.serve.workers`), so every executor retries and
    times out identically: a task gets ``retries + 1`` attempts, waits
    ``backoff * 2**attempt`` seconds before attempt ``attempt + 1``,
    and (pool mode only) is abandoned past ``timeout`` seconds.
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

    The generic fan-out primitive under :func:`run_grid` and the
    ``repro.fuzz`` campaign engine: ``worker`` must be a module-level
    function taking one JSON-safe task dict and returning a JSON-safe
    result dict (both must cross a process boundary).  ``jobs`` of
    ``None``, 0, or 1 runs everything in-process through the same worker
    (identical results, no pool); results are merged as they complete,
    in arbitrary order, so ``merge`` must not assume task order.

    Resilience: a task whose attempt raises — or, in pool mode, exceeds
    ``timeout`` seconds — is retried up to ``retries`` times with
    exponential backoff (``backoff * 2**attempt`` seconds before attempt
    ``attempt+1``); once attempts are exhausted the task *fails its
    cell*: ``on_failure(task, error)`` is invoked (a warning when None)
    and the remaining tasks keep running.  ``stats`` (when given)
    accumulates ``task_retries`` / ``task_timeouts`` / ``task_failures``
    for ``--stats`` reporting, plus ``task_attempts`` (every worker
    invocation, retries included) and ``failure_exception_types`` (the
    *final* exception type of each failed task, ``"TimeoutError"`` for
    deadline expiries) — so a retried-then-failed task is
    distinguishable from a first-try failure.

    Caveat: a timed-out worker process cannot be interrupted
    mid-computation; its future is abandoned (the pool reaps it on
    shutdown) and the retry runs as a fresh submission.  Serial mode has
    no preemption, so ``timeout`` applies only in pool mode; retries
    apply in both.  The (timeout, retries, backoff) triple is one
    :class:`RetryPolicy` — the serve worker pool executes the same
    contract asynchronously.
    """
    policy = RetryPolicy(retries=retries, backoff=backoff, timeout=timeout)
    retries = policy.retries

    def record_attempt() -> None:
        if stats is not None:
            stats.task_attempts += 1

    def record_retry() -> None:
        if stats is not None:
            stats.task_retries += 1

    def record_failure(
        task: dict, error: str, timed_out: bool, exc_type: str
    ) -> None:
        if stats is not None:
            stats.task_failures += 1
            if timed_out:
                stats.task_timeouts += 1
            stats.failure_exception_types[exc_type] = (
                stats.failure_exception_types.get(exc_type, 0) + 1
            )
        if on_failure is not None:
            on_failure(task, error)
        else:
            warnings.warn(
                f"fan_out task failed after {retries + 1} attempt(s): "
                f"{error}",
                RuntimeWarning,
                stacklevel=2,
            )

    if jobs is None or jobs <= 1:
        for task in tasks:
            for attempt in range(retries + 1):
                record_attempt()
                try:
                    result = worker(task)
                except Exception as exc:  # worker bug or corrupt task
                    if attempt < retries:
                        record_retry()
                        time.sleep(policy.delay(attempt))
                        continue
                    record_failure(
                        task,
                        str(exc),
                        timed_out=False,
                        exc_type=type(exc).__name__,
                    )
                    break
                merge(result)
                break
        return

    with ProcessPoolExecutor(max_workers=jobs) as pool:

        def submit(task: dict, attempt: int) -> None:
            record_attempt()
            future = pool.submit(worker, task)
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            pending[future] = (task, attempt, deadline)

        pending: Dict[object, Tuple[dict, int, Optional[float]]] = {}
        # (task, attempt, not-before) waiting out a backoff delay.
        delayed: List[Tuple[dict, int, float]] = []
        for task in tasks:
            submit(task, 0)
        while pending or delayed:
            now = time.monotonic()
            ready = [entry for entry in delayed if entry[2] <= now]
            delayed = [entry for entry in delayed if entry[2] > now]
            for task, attempt, _ in ready:
                submit(task, attempt)
            if not pending:
                if delayed:
                    time.sleep(
                        max(0.0, min(entry[2] for entry in delayed) - now)
                    )
                continue
            wait_cap = None
            deadlines = [
                deadline for _, _, deadline in pending.values() if deadline
            ]
            if deadlines:
                wait_cap = max(0.0, min(deadlines) - now)
            if delayed:
                next_delay = max(0.0, min(e[2] for e in delayed) - now)
                wait_cap = (
                    next_delay if wait_cap is None else min(wait_cap, next_delay)
                )
            done, _ = wait(
                list(pending), timeout=wait_cap, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            for future in done:
                task, attempt, _ = pending.pop(future)
                error: Optional[str] = None
                error_type = ""
                result = None
                try:
                    result = future.result(timeout=0)
                except Exception as exc:
                    error = str(exc)
                    error_type = type(exc).__name__
                if error is None:
                    merge(result)
                elif attempt < retries:
                    record_retry()
                    delayed.append(
                        (task, attempt + 1, now + policy.delay(attempt))
                    )
                else:
                    record_failure(
                        task, error, timed_out=False, exc_type=error_type
                    )
            # Expire attempts that blew their per-task deadline.  A
            # not-yet-started future is cancelled outright; a running
            # one is abandoned (see the caveat in the docstring).
            for future in list(pending):
                task, attempt, deadline = pending[future]
                if deadline is None or deadline > now:
                    continue
                future.cancel()
                del pending[future]
                if attempt < retries:
                    if stats is not None:
                        stats.task_timeouts += 1
                    record_retry()
                    delayed.append(
                        (task, attempt + 1, now + policy.delay(attempt))
                    )
                else:
                    record_failure(
                        task,
                        f"timed out after {timeout}s",
                        timed_out=True,
                        exc_type="TimeoutError",
                    )


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
