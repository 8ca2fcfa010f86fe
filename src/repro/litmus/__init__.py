"""Litmus subsystem: corpus, runner, and differential reports.

Small multi-threaded programs with named persistent cells, executed
under every registered persistency model via the check engine; outcome
sets (registers + persisted crash states) are compared across models and
across dependency-domain implementations.  See ``docs/models.md`` for
the corpus format and ``repro litmus`` for the CLI.
"""

from repro.litmus.corpus import (
    corpus_by_name,
    default_corpus,
    generate_programs,
    hand_written,
)
from repro.litmus.program import CELL_SIZE, CELL_STRIDE, LitmusError, LitmusProgram
from repro.litmus.runner import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_MAX_SCHEDULES,
    DEFAULT_MODELS,
    program_task,
    run_corpus,
    run_program,
    run_program_task,
    save_report,
    summarize_reports,
    summary_lines,
)

__all__ = [
    "CELL_SIZE",
    "CELL_STRIDE",
    "DEFAULT_CUT_LIMIT",
    "DEFAULT_MAX_SCHEDULES",
    "DEFAULT_MODELS",
    "LitmusError",
    "LitmusProgram",
    "corpus_by_name",
    "default_corpus",
    "generate_programs",
    "hand_written",
    "program_task",
    "run_corpus",
    "run_program",
    "run_program_task",
    "save_report",
    "summarize_reports",
    "summary_lines",
]
