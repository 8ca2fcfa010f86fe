"""Crash-during-recovery harness: repair as an instrumented program.

See :mod:`repro.crashrec.harness` for the model — structures plan
repairs as :class:`~repro.inject.report.RepairPlan` data, the harness
executes them on the simulator under a persistency model, crashes them
at consistent cuts of their own persist DAG, and judges idempotence,
convergence, and invariant/durability preservation.
"""

from repro.crashrec.harness import (
    CRASH_ORACLES,
    CrashRecReport,
    CrashRecViolation,
    CrashSchedule,
    RepairOutcome,
    crash_recovery_check,
    replay_schedule,
    run_repair,
)

__all__ = [
    "CRASH_ORACLES",
    "CrashRecReport",
    "CrashRecViolation",
    "CrashSchedule",
    "RepairOutcome",
    "crash_recovery_check",
    "replay_schedule",
    "run_repair",
]
