"""What the end-to-end benchmark measures, and how it summarises samples.

The workload and metric lists here are the benchmark's contract: they
must equal the lists in the repository's ``BENCHMARK.json`` (the
self-tests check this).  Importing this module loads nothing from
``repro``, so the parent process that schedules repetitions stays light.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class WorkloadInfo:
    """A named workload, the unit its throughput counts, and why it is here."""

    name: str
    unit: str
    why: str


@dataclass(frozen=True)
class Metric:
    """A reported metric.  ``bound`` is the allowed worsening of its
    median as a share of the parent's median (end-to-end metrics only)."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None


WORKLOADS = (
    WorkloadInfo(
        "paper",
        "inserts",
        "the paper's own evaluation: Table 1 and Figs 2-5 over six long "
        "1-8 thread queue traces; sim-bound, batch analysis, no cuts",
    ),
    WorkloadInfo(
        "check-2lc",
        "schedules",
        "DPOR model check of the buggy 2LC queue: thousands of snapshot "
        "replays and tiny analyses, almost all deduplicated",
    ),
    WorkloadInfo(
        "fuzz-minifs",
        "cuts checked",
        "minifs fuzz campaign run case by case: cut imaging and recovery "
        "judging dominate, DPOR is bypassed",
    ),
    WorkloadInfo(
        "gpu-lanes",
        "lane records",
        "256 spinning lanes on the default Machine.run path, then one "
        "epoch analysis: scheduling cost grows with thread count",
    ),
)

WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)

#: Figure 3 break-even latencies the paper reports (EXPERIMENTS.md); the
#: ``paper`` workload prints its own next to them.
PAPER_BREAKEVENS_S = {"strict": 17e-9, "epoch": 119e-9, "strand": 6e-6}

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    Metric("units_per_s", "1/s", "higher", 0.25),
)

#: Traced spans: one per layer boundary, plus ``driver``, the root span
#: whose self time is the workload driver's own work (the harness, the
#: checker loop, the fuzz case loop or the lane driver).
SPANS = (
    "driver",
    "sim.run",
    "sim.replay",
    "check.pick",
    "check.dedup",
    "core.analysis",
    "core.recovery.cuts",
    "core.recovery.image",
    "fuzz.judge",
)

#: Spans every workload enters.  Only these report a self time: a layer
#: a workload never calls would report a time of exactly zero on every
#: run, which reads like a stuck clock rather than a measurement.
ALWAYS_ACTIVE = ("driver", "sim.run", "core.analysis")

#: Ratios the workloads read from the stats objects the public calls
#: return (``CheckStats``, ``HarnessStats``); zero where not applicable.
RESULT_RATIOS = (
    Metric("check.dag_useful_ratio", "ratio", "higher"),
    Metric("check.cut_memo_hit_ratio", "ratio", "higher"),
    Metric("check.imaging_ratio", "ratio", "lower"),
    Metric("harness.analysis_hit_ratio", "ratio", "higher"),
)


def _per_layer() -> List[Metric]:
    metrics: List[Metric] = []
    for span in SPANS:
        if span != "driver":
            metrics.append(Metric(f"{span}.calls", "count", "lower"))
        if span in ALWAYS_ACTIVE:
            metrics.append(Metric(f"{span}.self_s", "s", "lower"))
        metrics.append(Metric(f"{span}.share", "%", "lower"))
    metrics += [
        Metric("sim.events", "count", "lower"),
        Metric("sim.events_per_s", "1/s", "higher"),
        Metric("core.analysis.events", "count", "lower"),
        Metric("core.analysis.events_per_s", "1/s", "higher"),
        Metric("core.analysis.ms_per_call", "ms", "lower"),
        Metric("core.recovery.image.per_s", "1/s", "higher"),
    ]
    metrics += RESULT_RATIOS
    metrics += [
        Metric("setup.import_s", "s", "lower"),
        Metric("trace.overhead_pct", "%", "lower"),
    ]
    return metrics


PER_LAYER = tuple(_per_layer())

_EMPTY_SPAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def layer_metrics(
    spans: Mapping[str, Mapping[str, float]],
    work: Mapping[str, int],
    wall_s: float,
    import_s: float,
    ratios: Mapping[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` maps span name to its calls, self and total seconds (see
    ``Tracer.spans``); ``work`` holds the events simulated (``sim.run``)
    and analysed (``core.analysis``).  ``trace.overhead_pct`` needs the
    untraced repetitions, so ``run.py`` adds it.
    """
    values: Dict[str, float] = {}
    for span in SPANS:
        entry = spans.get(span, _EMPTY_SPAN)
        if span != "driver":
            values[f"{span}.calls"] = entry["calls"]
        if span in ALWAYS_ACTIVE:
            values[f"{span}.self_s"] = entry["self_s"]
        values[f"{span}.share"] = 100.0 * entry["self_s"] / wall_s
    sim = spans.get("sim.run", _EMPTY_SPAN)
    analysis = spans.get("core.analysis", _EMPTY_SPAN)
    image = spans.get("core.recovery.image", _EMPTY_SPAN)
    values["sim.events"] = work.get("sim.run", 0)
    values["sim.events_per_s"] = _rate(values["sim.events"], sim["self_s"])
    values["core.analysis.events"] = work.get("core.analysis", 0)
    values["core.analysis.events_per_s"] = _rate(
        values["core.analysis.events"], analysis["total_s"]
    )
    values["core.analysis.ms_per_call"] = 1000.0 * _rate(
        analysis["total_s"], analysis["calls"]
    )
    values["core.recovery.image.per_s"] = _rate(
        image["calls"], image["total_s"]
    )
    for metric in RESULT_RATIOS:
        values[metric.name] = ratios.get(metric.name, 0.0)
    values["setup.import_s"] = import_s
    return values


def _rate(amount: float, per: float) -> float:
    return amount / per if per else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    summary = summarize(values)
    if not summary["value"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def worsening(metric: Metric, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it
    (negative when it is better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if metric.better == "lower" else -delta
