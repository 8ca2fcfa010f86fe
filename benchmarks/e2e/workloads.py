"""The four workloads: inputs from a seed, a timed body, and output checks.

Each workload is a closed-loop batch job at a stated input size, with one
client.  ``prepare`` builds the inputs from the seed (counted in set-up
time), ``execute`` is the timed body, and ``report`` checks the outputs
against pins taken from this repository's own runs.  Two size profiles
exist: ``full`` (one repetition takes about two seconds on a 2-core x86
container) and ``smoke`` (tiny, for the self-tests).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.check import CheckConfig, check_target
from repro.core.analysis import AnalysisConfig, analyze
from repro.errors import RecoveryError
from repro.fuzz.campaign import CampaignConfig, case_tasks, run_case_task
from repro.gpu.lanes import build_lane_machine
from repro.harness import (
    TABLE1_COLUMNS,
    ExperimentRunner,
    build_table1,
    figure2_dependences,
    figure3_latency_sweep,
    figure4_persist_granularity,
    figure5_tracking_granularity,
)
from repro.memory.nvram import NvramImage
from repro.sim.scheduler import RandomScheduler

#: What ``report`` returns: a JSON-safe record (``units`` and
#: ``attempted`` always present) and the failed checks, one per unit.
Report = Tuple[Dict[str, object], List[str]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    sizes: Mapping[str, Mapping[str, int]]
    prepare: Callable[[int, int, Mapping[str, int]], object]
    execute: Callable[[object], object]
    report: Callable[[object, object, int, str], Report]


def _canonical(value):
    """JSON-ready form with floats to 10 significant digits, so pins
    survive last-bit changes in float summation order."""
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, dict):
        return [[key, _canonical(value[key])] for key in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(value) -> str:
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- paper: Table 1 and Figures 2-5 -----------------------------------------

#: Artifact digests by (profile, seed).
PAPER_PINS = {
    (profile, seed): {
        "table1": table1,
        "fig2": "bba30799fe247025",
        "fig3": fig3,
        "fig4": fig4,
        "fig5": "4e12d1b25826bef8",
    }
    for profile, fig3, fig4, tables in (
        (
            "full",
            "b2b8952caa62c94e",
            "4e0b03d03a44f3e4",
            ("dded1d5f5c418331", "1cecd3f4cb549fac", "bfa5218eec590635"),
        ),
        (
            "smoke",
            "7bd626533d81eb5c",
            "cd7afebc7e6e78d7",
            ("3f519ca3eea65dd3", "57a669ba22d9a672", "6f4d0df348aaa9c8"),
        ),
    )
    for seed, table1 in enumerate(tables)
}


def _paper_prepare(
    seed: int, rep: int, size: Mapping[str, int]
) -> ExperimentRunner:
    return ExperimentRunner(
        inserts_per_thread=size["inserts_per_thread"], base_seed=seed
    )


def _paper_execute(runner: ExperimentRunner):
    table = build_table1(runner)
    fig2 = {
        design: figure2_dependences(runner, design).constraints_per_insert
        for design in ("cwl", "2lc")
    }
    figures = {
        "fig3": figure3_latency_sweep(runner),
        "fig4": figure4_persist_granularity(runner),
        "fig5": figure5_tracking_granularity(runner),
    }
    return table, fig2, figures


def _paper_report(
    runner: ExperimentRunner, result, seed: int, profile: str
) -> Report:
    table, fig2, figures = result
    # Inserts per traced program variant (racing columns share a trace
    # wherever the variant key says so).
    inserts = {
        runner.variant_key(design, threads, TABLE1_COLUMNS[column][1]): (
            point.operations
        )
        for (design, threads, column), point in table.cells.items()
    }
    cells = [
        [key, p.critical_path, p.operations, p.instruction_rate]
        for key, p in sorted(table.cells.items())
    ]
    artifacts = {"table1": _digest(cells), "fig2": _digest(fig2)}
    for name, figure in figures.items():
        artifacts[name] = _digest(
            [[series.name, series.points] for series in figure.series]
            + [figure.notes]
        )
    notes = figures["fig3"].notes
    breakevens = {
        model: notes[f"breakeven_{model}_s"]
        for model in ("strict", "epoch", "strand")
    }
    failures = []
    pins = PAPER_PINS.get((profile, seed))
    if pins is None:
        # No pin for this seed: check the order the paper reports instead.
        strict, epoch, strand = breakevens.values()
        if not strict < epoch < strand:
            failures.append(f"fig3 break-evens out of order: {breakevens}")
    else:
        failures += [
            f"{name} digest {digest} differs from pin {pins.get(name)}"
            for name, digest in artifacts.items()
            if pins.get(name) != digest
        ]
    stats = runner.stats
    hits = stats.analysis_memory_hits + stats.analysis_disk_hits
    record = {
        "units": sum(inserts.values()),
        "attempted": len(artifacts),
        "artifacts": artifacts,
        "breakevens_s": breakevens,
        "ratios": {
            "harness.analysis_hit_ratio": hits / (hits + stats.analysis_runs)
        },
    }
    return record, failures


# -- check-2lc: the DPOR model check of the paper-faithful 2LC queue --------

#: (schedules, cuts checked, distinct violations); the seed generates
#: nothing here, and the program is already at its smallest size, so
#: both profiles run the same subtree.
CHECK_PIN = (476, 224, 2)


def _check_prepare(
    seed: int, rep: int, size: Mapping[str, int]
) -> CheckConfig:
    # The full exploration (10,108 schedules) takes ~30 s, longer than a
    # repetition may; the subtree under thread 0's first prefix_depth
    # steps keeps its shape: many tiny replays and analyses, and the bug.
    return CheckConfig(forced_prefix=(0,) * size["prefix_depth"])


def _check_execute(config: CheckConfig):
    return check_target("queue-2lc-faithful", 2, 1, config)


def _check_report(config, result, seed: int, profile: str) -> Report:
    stats = result.stats
    counts = (stats.schedules, stats.cuts_checked, len(result.distinct))
    failures = []
    if counts != CHECK_PIN:
        failures.append(
            f"schedules/cuts/violations {counts} differ from pin {CHECK_PIN}"
        )
    useful_dags = stats.dags_analyzed - stats.dags_deduped
    record = {
        "units": stats.schedules,
        "attempted": 1,
        "counts": list(counts),
        "ratios": {
            "check.dag_useful_ratio": useful_dags / stats.dags_analyzed,
            "check.cut_memo_hit_ratio": (
                stats.cut_memo_hits / stats.cuts_checked
            ),
            "check.imaging_ratio": stats.imaging_ratio,
        },
    }
    return record, failures


# -- fuzz-minifs: a minifs campaign driven case by case ---------------------

#: (cases, events, cuts checked) by (profile, campaign seed): the first
#: repetition of seeds 0-2.
FUZZ_PINS = {
    ("full", 0): (23, 13534, 3083),
    ("full", 1000): (22, 11261, 3253),
    ("full", 2000): (14, 6655, 3092),
    ("smoke", 0): (5, 3192, 411),
    ("smoke", 1000): (1, 836, 282),
    ("smoke", 2000): (1, 422, 282),
}


def _fuzz_prepare(seed: int, rep: int, size: Mapping[str, int]):
    # Cost per cut varies from campaign to campaign by ~10%, so each
    # repetition runs the next campaign of the seed's sequence: a run's
    # median then spans many campaigns instead of repeating one.
    campaign_seed = seed * 1000 + rep
    config = CampaignConfig(
        target="minifs", budget=size["budget"], seed=campaign_seed
    )
    return case_tasks(config), size["min_cuts"], campaign_seed


def _fuzz_execute(inputs):
    # Cases run in campaign order until min_cuts cuts are checked, so a
    # repetition does about the same work whatever cases were drawn.
    tasks, min_cuts, _ = inputs
    outcomes, errors, case_ms = [], [], []
    cuts = 0
    for task in tasks:
        if cuts >= min_cuts:
            break
        start = time.perf_counter()
        try:
            outcome = run_case_task(task)
        except Exception as exc:  # noqa: BLE001 - a failed unit, reported
            errors.append(f"case {task['index']}: {exc!r}")
            continue
        finally:
            case_ms.append(1000.0 * (time.perf_counter() - start))
        outcomes.append(outcome)
        cuts += outcome["cuts_checked"]
    return outcomes, errors, case_ms


def _fuzz_report(inputs, result, seed: int, profile: str) -> Report:
    outcomes, errors, case_ms = result
    totals = (
        len(outcomes) + len(errors),
        sum(outcome["events"] for outcome in outcomes),
        sum(outcome["cuts_checked"] for outcome in outcomes),
    )
    failures = list(errors)
    failures += [
        f"case {outcome['index']}: {outcome['violation_count']} violations"
        for outcome in outcomes
        if outcome["violation_count"]
    ]
    pin = FUZZ_PINS.get((profile, inputs[2]))
    if pin is not None and totals != pin:
        failures.append(f"cases/events/cuts {totals} differ from pin {pin}")
    record = {
        "units": totals[2],
        "attempted": totals[0],
        "totals": list(totals),
        "case_ms": case_ms,
    }
    return record, failures


# -- gpu-lanes: spinning lanes on the default machine path ------------------

#: Epoch persist count by profile (one coalesced persist per record plus
#: one commit per scope).
GPU_PINS = {"full": 2056, "smoke": 65}

_GPU_ANALYSIS = AnalysisConfig(
    coalescing=True, persist_granularity=64, tracking_granularity=64
)


def _gpu_prepare(seed: int, rep: int, size: Mapping[str, int]):
    return build_lane_machine(
        size["lanes"], size["records"], 8, 32, RandomScheduler(seed)
    )


def _gpu_execute(inputs):
    machine, _ = inputs
    trace = machine.run()
    return trace, analyze(trace, "epoch", _GPU_ANALYSIS)


def _gpu_report(inputs, result, seed: int, profile: str) -> Report:
    machine, lanes = inputs
    trace, analysis = result
    failures = []
    image = NvramImage.from_region(
        machine.memory.region("persistent"), blank=False
    )
    try:
        lanes.check(image)
    except RecoveryError as exc:
        failures.append(f"final image fails LaneWorkload.check: {exc}")
    if analysis.critical_path != lanes.records + 1:
        failures.append(
            f"critical path {analysis.critical_path} != records + 1 "
            f"({lanes.records + 1})"
        )
    if analysis.persist_count != GPU_PINS[profile]:
        failures.append(
            f"persist count {analysis.persist_count} differs from pin "
            f"{GPU_PINS[profile]}"
        )
    record = {
        "units": lanes.lanes * lanes.records,
        "attempted": 1,
        "events": len(trace),
    }
    return record, failures


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper",
            {
                "full": {"inserts_per_thread": 60},
                "smoke": {"inserts_per_thread": 4},
            },
            _paper_prepare,
            _paper_execute,
            _paper_report,
        ),
        Workload(
            "check-2lc",
            {"full": {"prefix_depth": 16}, "smoke": {"prefix_depth": 16}},
            _check_prepare,
            _check_execute,
            _check_report,
        ),
        Workload(
            "fuzz-minifs",
            {
                "full": {"budget": 400, "min_cuts": 3000},
                "smoke": {"budget": 40, "min_cuts": 200},
            },
            _fuzz_prepare,
            _fuzz_execute,
            _fuzz_report,
        ),
        Workload(
            "gpu-lanes",
            {
                "full": {"lanes": 256, "records": 8},
                "smoke": {"lanes": 32, "records": 2},
            },
            _gpu_prepare,
            _gpu_execute,
            _gpu_report,
        ),
    )
}
