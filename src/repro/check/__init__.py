"""Bounded persistency model checking with partial-order reduction.

``repro.check`` pairs a stateless DPOR engine with persist-DAG/cut
canonicalization, turning "we enumerated every interleaving" into "we
verified every equivalence class exactly once" — same violation sets, a
fraction of the work.  ``reduction="none"`` (on :class:`Engine` or
:class:`CheckConfig`) keeps the brute-force enumeration of every
interleaving, the differential partner the DPOR mode is tested against.
"""

from repro.check.canonical import canonical_dag_key, canonical_ids
from repro.check.checker import (
    DEFAULT_MODELS,
    GRAPH_DOMAINS,
    CheckConfig,
    CheckResult,
    CheckStats,
    CheckViolation,
    check_build,
    check_runs,
    check_target,
)
from repro.check.engine import (
    REDUCTIONS,
    REPLAYS,
    CheckProgram,
    Engine,
    EngineStats,
    ExplorationLimitError,
    ExploredRun,
    is_check_program,
)
from repro.check.shard import (
    ShardMerge,
    ShardReport,
    check_shard_worker,
    check_target_sharded,
    enumerate_prefixes,
    shard_tasks,
)

__all__ = [
    "Engine",
    "EngineStats",
    "ExploredRun",
    "ExplorationLimitError",
    "REDUCTIONS",
    "REPLAYS",
    "CheckProgram",
    "is_check_program",
    "canonical_ids",
    "canonical_dag_key",
    "CheckConfig",
    "CheckStats",
    "CheckViolation",
    "CheckResult",
    "check_build",
    "check_runs",
    "check_target",
    "DEFAULT_MODELS",
    "GRAPH_DOMAINS",
    "ShardMerge",
    "ShardReport",
    "check_shard_worker",
    "check_target_sharded",
    "enumerate_prefixes",
    "shard_tasks",
]
