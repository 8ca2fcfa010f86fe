"""Experiment runner: workload/trace caching and model-variant mapping.

Table 1's four persistency configurations map onto (program variant,
analyzer) pairs.  "Strict" and "Epoch" analyze the race-free program
(persist barriers around lock operations, Algorithm 1 lines 5 and 11);
"Racing Epochs" and "Strand" analyze the racing program with those
barriers removed — racing epochs rely on strong persist atomicity to
serialise head persists, and strand clears cross-insert dependences at
``NEWSTRAND`` anyway.  Traces are cached per program variant because each
one is analyzed under several models and granularities; every analysis
and the instruction-rate makespan of a variant read its trace's
columnar chunks as the simulator wrote them.

The runner caches in memory only.  :func:`repro.harness.parallel.run_grid`
computes whole variants elsewhere (worker processes, or a
:class:`~repro.harness.cache.ResultStore` shared across invocations) and
folds their analyses, instruction rate and insert count back in, so a
folded variant needs no trace.  That sharing is only sound because
scheduler seeds derive via :func:`derive_seed`, a process-independent
mix — Python's builtin ``hash`` is salted per interpreter and must never
feed a store key or a "deterministic" seed.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import astuple, dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.analysis import (
    AnalysisConfig,
    AnalysisResult,
    StreamingAnalyzer,
)
from repro.errors import AnalysisError, ReproError
from repro.harness.cache import HarnessStats, analysis_from_payload
from repro.harness.instr import DEFAULT_COST_MODEL, InstructionCostModel
from repro.harness.metrics import PAPER_PERSIST_LATENCY, ThroughputPoint
from repro.queue.workload import WorkloadConfig, WorkloadResult, run_insert_workload
from repro.schema import option

#: Table 1 columns: label -> (persistency model, racing program variant).
TABLE1_COLUMNS: Dict[str, Tuple[str, bool]] = {
    "strict": ("strict", False),
    "epoch": ("epoch", False),
    "racing_epochs": ("epoch", True),
    "strand": ("strand", True),
}

#: Designs whose program actually changes with the racing flag.  2LC has
#: no barriers around its locks to remove (Table 1 shows identical Epoch
#: and Racing Epochs columns), so both variants share one trace.
RACING_SENSITIVE_DESIGNS = frozenset({"cwl"})

#: Range of derived scheduler seeds.
SEED_SPACE = 100_000


def derive_seed(base_seed: int, key: Tuple[str, int, bool]) -> int:
    """Derive one variant's scheduler seed from the runner's base seed.

    Stable across interpreter invocations and ``PYTHONHASHSEED`` values:
    the variant key is mixed in via ``zlib.crc32`` over its repr, never
    the salted builtin ``hash``.  The whole expression is reduced mod
    :data:`SEED_SPACE` (explicitly parenthesised — ``%`` binds tighter
    than ``+``) so seeds stay small and printable.
    """
    mix = zlib.crc32(repr(key).encode("utf-8"))
    return (base_seed * 1009 + mix) % SEED_SPACE


@dataclass
class ExperimentRunner:
    """Caches workload traces and derives throughput points from them.

    The described fields are the paper job (see :mod:`repro.schema`):
    the ``repro table1``/``figures`` flags, the ``paper`` serve spec
    keys and, with the fields no job sets, each variant task's runner
    part (:func:`~repro.harness.parallel.plan_variants`).

    Attributes:
        inserts_per_thread: workload size.  The paper runs 100M inserts;
            critical path *per insert* converges within a few hundred, so
            benchmark defaults stay laptop-sized.
        entry_size: queue entry payload bytes (paper: 100).
        lock_kind: lock algorithm for both designs (paper: MCS).
        cost_model: instruction-rate model.
        base_seed: scheduler seed; each (design, threads, racing) variant
            derives its own deterministic seed from it via
            :func:`derive_seed`.
        stats: per-stage work and hit counters for this runner.
    """

    inserts_per_thread: int = option(
        125, type=int, flag="--inserts", help="inserts per thread"
    )
    entry_size: int = option(100, type=int, settable=False)
    lock_kind: str = option("mcs", settable=False)
    cost_model: InstructionCostModel = DEFAULT_COST_MODEL
    base_seed: int = option(
        1, type=int, flag="--seed",
        help="base scheduler seed (each variant derives its own)",
    )
    stats: HarnessStats = field(default_factory=HarnessStats, repr=False)
    _workloads: Dict[Tuple[str, int, bool], WorkloadResult] = field(
        default_factory=dict, repr=False
    )
    _instr_rates: Dict[Tuple[str, int, bool], float] = field(
        default_factory=dict, repr=False
    )
    _inserts: Dict[Tuple[str, int, bool], int] = field(
        default_factory=dict, repr=False
    )
    _analyses: Dict[tuple, AnalysisResult] = field(
        default_factory=dict, repr=False
    )

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ReproError` on an empty workload."""
        if self.inserts_per_thread <= 0:
            raise ReproError(
                f"inserts_per_thread must be positive, got "
                f"{self.inserts_per_thread}"
            )

    def variant_key(
        self, design: str, threads: int, racing: bool
    ) -> Tuple[str, int, bool]:
        """Normalise one program variant to its canonical cache key."""
        if design not in RACING_SENSITIVE_DESIGNS:
            racing = False
        return (design, threads, racing)

    def workload_config(
        self, design: str, threads: int, racing: bool
    ) -> WorkloadConfig:
        """The exact config (seed included) one variant runs with."""
        key = self.variant_key(design, threads, racing)
        design, threads, racing = key
        return WorkloadConfig(
            design=design,
            threads=threads,
            inserts_per_thread=self.inserts_per_thread,
            entry_size=self.entry_size,
            racing=racing,
            lock_kind=self.lock_kind,
            seed=derive_seed(self.base_seed, key),
        )

    def workload(self, design: str, threads: int, racing: bool) -> WorkloadResult:
        """Run (or fetch cached) one program variant."""
        key = self.variant_key(design, threads, racing)
        if key in self._workloads:
            self.stats.workload_memory_hits += 1
            return self._workloads[key]
        start = time.perf_counter()
        result = run_insert_workload(self.workload_config(*key))
        self.stats.workload_runs += 1
        self.stats.trace_seconds += time.perf_counter() - start
        self._workloads[key] = result
        return result

    def total_inserts(self, design: str, threads: int, racing: bool) -> int:
        """Inserts one program variant performs (all threads)."""
        key = self.variant_key(design, threads, racing)
        if key not in self._inserts:
            self._inserts[key] = self.workload(*key).total_inserts
        return self._inserts[key]

    def instruction_rate(self, design: str, threads: int, racing: bool) -> float:
        """Aggregate inserts/s at volatile instruction-execution speed."""
        key = self.variant_key(design, threads, racing)
        if key not in self._instr_rates:
            # Read a held workload directly: the makespan walk is not a
            # lookup the workload hit counters should see.
            workload = self._workloads.get(key) or self.workload(*key)
            self._instr_rates[key] = self.cost_model.instruction_rate(
                workload.trace.chunks, self.total_inserts(*key)
            )
        return self._instr_rates[key]

    def fold(self, payload: dict) -> None:
        """Adopt one variant's payload computed elsewhere (see
        :func:`~repro.harness.parallel.run_variant`): its analyses,
        instruction rate and insert count, so it needs no trace."""
        key = self.variant_key(*payload["variant"])
        for wire in payload["analyses"]:
            result = analysis_from_payload(wire)
            cell = (result.model, *astuple(result.config))
            self._analyses[key + cell] = result
        self._instr_rates[key] = payload["instruction_rate"]
        self._inserts[key] = payload["total_inserts"]

    def analysis(
        self,
        design: str,
        threads: int,
        racing: bool,
        model: str,
        config: Optional[AnalysisConfig] = None,
    ) -> AnalysisResult:
        """Run (or fetch cached) one persist-ordering analysis."""
        config = config or AnalysisConfig()
        key = self.variant_key(design, threads, racing)
        key += (model, *astuple(config))
        if key in self._analyses:
            self.stats.analysis_memory_hits += 1
            return self._analyses[key]
        # Traced (on a miss) outside the timer.
        trace = self.workload(design, threads, racing).trace
        start = time.perf_counter()
        result = StreamingAnalyzer(model, config).feed(trace).finish()
        self.stats.analysis_runs += 1
        self.stats.analysis_seconds += time.perf_counter() - start
        self._analyses[key] = result
        return result

    def point(
        self,
        design: str,
        threads: int,
        column: str,
        persist_latency: float = PAPER_PERSIST_LATENCY,
        config: Optional[AnalysisConfig] = None,
    ) -> ThroughputPoint:
        """Derive the throughput point for one Table-1-style cell."""
        try:
            model, racing = TABLE1_COLUMNS[column]
        except KeyError:
            raise AnalysisError(
                f"unknown column {column!r}; expected one of "
                f"{sorted(TABLE1_COLUMNS)}"
            ) from None
        operations = self.total_inserts(design, threads, racing)
        analysis = self.analysis(design, threads, racing, model, config)
        return ThroughputPoint(
            model=column,
            persist_latency=persist_latency,
            critical_path=analysis.critical_path,
            operations=operations,
            instruction_rate=self.instruction_rate(design, threads, racing),
        )
