"""The task pool, the job-kind record, and the paper grid's job.

:class:`TaskPool` runs JSON-safe tasks through a module-level worker,
in-process or on a process pool, with per-attempt timeouts and
retries; :func:`fan_out` is the one batch path over it (resolve
against a :class:`~repro.harness.cache.ResultStore`, run the misses,
store and fold each result) for the fuzz campaign, sharded checking and
:func:`run_grid`, and ``repro serve`` awaits the same pool one shard
at a time.  A :class:`JobKind` is one engine's job for every executor;
each engine module registers one beside its code (:data:`PAPER_JOB`
here) and ``repro serve`` looks it up by name.  Table 1 and
Figures 3-5 evaluate a (design x threads x racing x model x
granularity) grid; :func:`run_grid` plans one task per *program
variant* carrying every cell that shares its trace, runs the misses
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
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
)

from repro.core.analysis import AnalysisConfig
from repro.errors import ReproError, TaskFailed
from repro.harness.cache import HarnessStats, ResultStore, analysis_to_payload
from repro.harness.instr import InstructionCostModel
from repro.harness.runner import (
    RACING_SENSITIVE_DESIGNS,
    TABLE1_COLUMNS,
    ExperimentRunner,
)
from repro.harness.tables import build_table1, format_table1
from repro.memory import layout
from repro.schema import Option, decode, decode_keys, encode, options_of

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
    store: Optional[ResultStore] = None,
    check: Optional[Callable[[dict], object]] = None,
    stored: Callable[[dict], dict] = lambda result: result,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.1,
    on_failure: Optional[Callable[[dict, str], None]] = None,
    stats: Optional[HarnessStats] = None,
) -> Dict[int, dict]:
    """Run JSON-safe ``tasks`` through ``worker``, folding each result
    into ``merge``; returns the payloads ``store`` served.

    The batch driver of :class:`TaskPool` under :func:`run_grid`, the
    ``repro.fuzz`` campaign engine and sharded checking.  With a
    ``store`` the tasks first resolve against it (``check`` as in
    :meth:`~repro.harness.cache.ResultStore.resolve`); the hits are
    returned by task position for the caller to fold, and each miss's
    ``stored(result)`` is stored under its key before ``merge`` sees it.
    ``jobs`` slots each take the next task and await it on a pool of
    ``jobs`` worker processes; ``jobs`` of ``None``, 0 or 1 runs
    everything in-process through the same worker (identical results,
    no pool).  Results are merged as they complete, in arbitrary order,
    so ``merge`` must not assume task order.

    Resilience: a task whose attempt raises — or, on worker processes,
    runs past ``timeout`` seconds from its dispatch on a slot — is
    retried up to ``retries`` times with exponential backoff (see
    :class:`RetryPolicy`); once attempts are exhausted the task *fails
    its cell*: ``on_failure(task, error)`` is invoked (a warning when
    None), nothing is stored, and the remaining tasks keep running.
    ``stats`` (when given) accumulates the pool's counters for
    ``--stats`` reporting.

    Caveat: a timed-out worker process cannot be interrupted
    mid-computation; its attempt is abandoned, keeps its process busy
    until it ends, and the retry runs as a fresh submission.  Returning
    waits for abandoned attempts.
    """
    import asyncio

    policy = RetryPolicy(retries=retries, backoff=backoff, timeout=timeout)
    if store is None:
        hits, pending = {}, dict.fromkeys(range(len(tasks)))
    else:
        hits, pending = store.resolve(tasks, check=check)
    processes = jobs if jobs is not None and jobs > 1 else 0
    pool = TaskPool(worker, processes, policy, stats)
    queue = iter(pending.items())

    async def slot() -> None:
        for index, key in queue:
            task = tasks[index]
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
            if store is not None:
                store.store(key, stored(result))
            merge(result)

    async def drain() -> None:
        await asyncio.gather(*(slot() for _ in range(max(processes, 1))))

    try:
        asyncio.run(drain())
    finally:
        pool.shutdown()
    return hits


@dataclass(frozen=True)
class JobKind:
    """What a job of one engine is, for every executor.

    ``config`` is the engine config class and ``keys`` the job-level
    spec keys beyond its fields; ``validate(config, job)`` checks (and
    may complete) the job-level values.  ``plan(config, job)`` lists
    the JSON-safe tasks, each carrying ``kind``: ``name``, and the
    module-level ``worker(task)`` runs one.  ``fold(config, job,
    payloads)`` folds the payloads, in task order, into the job's
    summary: ``text`` (what the batch CLI prints), ``violations`` (the
    headline defect count) and the kind's counts.  ``check`` decodes a
    stored payload before the store serves it.
    """

    name: str
    config: type
    keys: Mapping[str, Option]
    plan: Callable[[Any, Dict[str, object]], List[dict]]
    worker: Callable[[dict], dict]
    fold: Callable[[Any, Dict[str, object], Sequence[dict]], Dict[str, object]]
    validate: Optional[Callable[[Any, Dict[str, object]], None]] = None
    check: Optional[Callable[[dict], object]] = None

    def decode(
        self, spec: Mapping[str, object]
    ) -> Tuple[Any, Dict[str, object]]:
        """``(engine config, job-level values)`` of a job spec.

        Raises:
            ReproError: on a malformed spec or one the engine rejects.
        """
        job = decode_keys(self.keys, spec)
        config = decode(self.config, spec, extra=["kind", *self.keys])
        if self.validate is not None:
            self.validate(config, job)
        return config, job


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

    Plans one task per program variant (:func:`plan_variants`) and runs
    them through :func:`fan_out` against ``store`` when given, on
    ``jobs`` worker processes (``None``, 0 or 1 runs them in-process).
    Afterwards every cell's analysis, instruction rate and insert count
    sit in the runner's in-memory caches, so table/figure builders
    neither trace nor analyze.  A stored variant counts one workload
    disk hit and one analysis disk hit per cell; a fresh one adds its
    worker's counters.  Store hits and misses count on ``store.stats``.
    Returns the runner's stats.

    ``task_timeout`` / ``task_retries`` bound each variant task (see
    :func:`fan_out`).  A variant that exhausts its retries is *recorded*
    (``stats.task_failures``, plus a warning) rather than fatal: its
    cells are simply absent from the runner's caches, and any later
    table/figure builder that needs them recomputes serially on demand.
    """
    def merge(result: dict) -> None:
        runner.stats.merge(HarnessStats.from_payload(result["stats"]))
        runner.fold(result["payload"])

    def failed(task: dict, error: str) -> None:
        warnings.warn(
            f"grid variant {tuple(task['variant'])} failed ({error}); its "
            f"cells will be recomputed on demand",
            RuntimeWarning,
            stacklevel=2,
        )

    hits = fan_out(
        _grid_worker,
        plan_variants(runner, cells),
        jobs,
        merge,
        store=store,
        stored=lambda result: result["payload"],
        timeout=task_timeout,
        retries=task_retries,
        on_failure=failed,
        stats=runner.stats,
    )
    for payload in hits.values():
        runner.fold(payload)
        runner.stats.workload_disk_hits += 1
        runner.stats.analysis_disk_hits += len(payload["analyses"])
    return runner.stats


def _check_paper(runner: ExperimentRunner, job: Dict[str, object]) -> None:
    job["cells"] = table1_cells(job["threads"])


def _fold_paper(
    runner: ExperimentRunner, job: Dict[str, object], payloads: Sequence[dict]
) -> Dict[str, object]:
    for payload in payloads:
        runner.fold(payload)
    table = build_table1(runner, thread_counts=job["threads"])
    return {"violations": 0, "text": format_table1(table)}


#: The paper's Table 1 as a job: one :func:`run_variant` task per
#: program variant of :func:`table1_cells`, summarised as the table
#: ``repro table1`` prints.
PAPER_JOB = JobKind(
    name="paper",
    config=ExperimentRunner,
    keys=options_of(
        threads=Option(
            int, many=True, default=(1, 8), cli={"default": [1, 8]},
            help="thread counts of Table 1's rows",
        )
    ),
    plan=lambda runner, job: plan_variants(runner, job["cells"]),
    worker=run_variant,
    fold=_fold_paper,
    validate=_check_paper,
)
