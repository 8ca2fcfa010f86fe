"""Long-running asynchronous checking service.

``repro.serve`` turns the repo's batch checkers — sharded DPOR model
checking (:mod:`repro.check`), fuzz/crash-recovery campaigns
(:mod:`repro.fuzz`), the litmus differential harness
(:mod:`repro.litmus`) and the paper's Table 1 grid
(:mod:`repro.harness`) — into a multi-tenant daemon: tenants submit JSON
job specs over a unix socket, jobs shard into content-addressed tasks,
a work-stealing multiprocessing pool executes them under per-tenant
token-bucket fairness, and every shard result lands in a shared
digest-addressed store so identical work — across tenants, across
daemon restarts, across resubmissions — is computed once.

Layout: :mod:`~repro.serve.jobs` looks each job spec and shard task up
in the table of engine job kinds (plan, worker, fold, summary) and
journals each job's durable state, :mod:`~repro.serve.queue` schedules
fairly and steals work, and :mod:`~repro.serve.api` is the daemon, the
socket protocol, and the client the ``repro serve`` / ``submit`` /
``jobs`` / ``status`` / ``cancel`` subcommands drive.  Shard results live in
:class:`repro.harness.cache.ResultStore`, the same store
``repro fuzz run --checkpoint DIR`` resumes from.
"""

from repro.serve.api import (
    ServeConfig,
    ServeDaemon,
    default_socket,
    request,
    serve_forever,
    wait_for_daemon,
    wait_for_job,
)
from repro.serve.jobs import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    execute_shard,
    job_id,
    load_records,
    merge_job,
    plan_job,
    save_record,
    validate_spec,
)
from repro.serve.queue import JobQueue, TokenBucket, WorkStealingScheduler

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "ServeConfig",
    "ServeDaemon",
    "TokenBucket",
    "WorkStealingScheduler",
    "default_socket",
    "execute_shard",
    "job_id",
    "load_records",
    "merge_job",
    "plan_job",
    "request",
    "save_record",
    "serve_forever",
    "validate_spec",
    "wait_for_daemon",
    "wait_for_job",
]
