"""Shard execution for the checking service.

:func:`execute_shard` is the single module-level worker entry point —
it dispatches on the task's ``kind`` to the engine-owned worker
(:func:`repro.check.shard.check_shard_worker` for check shards,
:func:`repro.fuzz.campaign.run_shard` for fuzz case batches,
:func:`repro.litmus.runner.run_program_task` for litmus programs,
:func:`repro.harness.parallel.run_variant` for paper variants), so a
shard computed by the daemon is byte-identical to one computed by
``repro check --jobs N`` / ``repro fuzz run`` / ``repro litmus run`` /
``repro table1``.  The daemon runs it on the same
:class:`~repro.harness.parallel.TaskPool` as those batch runs.
"""

from __future__ import annotations

from typing import Dict

from repro.check.shard import check_shard_worker
from repro.errors import ServeError
from repro.fuzz.campaign import run_shard
from repro.harness.parallel import run_variant
from repro.litmus.runner import run_program_task

#: The engine worker of each shard kind.
_WORKERS = {
    "check": check_shard_worker,
    "fuzz": run_shard,
    "litmus": run_program_task,
    "paper": run_variant,
}


def execute_shard(task: Dict[str, object]) -> Dict[str, object]:
    """Run one shard task of any kind; returns its JSON-safe payload.

    Module-level so it pickles into pool workers.  Check shards return
    the :func:`check_shard_worker` wire payload (in-band ``error`` for
    overruns); fuzz shards return ``{"outcomes": [...]}`` in case
    order; litmus shards return ``{"report": {...}}``; paper shards
    return the variant payload the paper grid stores.
    """
    worker = _WORKERS.get(task.get("kind"))
    if worker is None:
        raise ServeError(f"unknown shard kind {task.get('kind')!r}")
    return worker(task)
