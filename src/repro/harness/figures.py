"""Figures 2-5: series generators.

Each generator returns plain data (named series of (x, y) points) plus a
CSV writer and a coarse ASCII rendering, so benchmarks can both assert on
shapes and leave plottable artifacts without a plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analysis import AnalysisConfig, analyze_graph
from repro.harness.metrics import (
    FIG3_MAX_LATENCY,
    FIG3_MIN_LATENCY,
    ThroughputPoint,
)
from repro.harness.runner import TABLE1_COLUMNS, ExperimentRunner

_PathLike = Union[str, Path]

#: Figure 3's model set and the program variant each analyzes.
FIG3_MODELS = ("strict", "epoch", "strand")

#: Figures 4/5 compare the two models the paper plots.
GRANULARITY_MODELS = ("strict", "epoch")

#: Paper sweep for Figures 4 and 5.
GRANULARITIES = (8, 16, 32, 64, 128, 256)


@dataclass
class Series:
    """One named line of a figure."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def ys(self) -> List[float]:
        """The y values in x order."""
        return [y for _, y in self.points]


@dataclass
class Figure:
    """A set of series plus axis labels."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: Dict[str, float] = field(default_factory=dict)

    def by_name(self, name: str) -> Series:
        """Look a series up by name."""
        for entry in self.series:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_svg(
        self,
        path: _PathLike,
        log_x: Optional[bool] = None,
        log_y: bool = False,
    ) -> None:
        """Write the figure as a standalone SVG chart (no dependencies)."""
        from repro.harness.svg import figure_to_svg

        figure_to_svg(self, path, log_x=log_x, log_y=log_y)

    def to_csv(self, path: _PathLike) -> None:
        """Write ``x,<series...>`` rows (series must share x values)."""
        xs = [x for x, _ in self.series[0].points]
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(
                ",".join([self.x_label] + [s.name for s in self.series]) + "\n"
            )
            for index, x in enumerate(xs):
                row = [repr(x)] + [
                    repr(s.points[index][1]) for s in self.series
                ]
                stream.write(",".join(row) + "\n")

    def render(self, width: int = 72) -> str:
        """Coarse ASCII rendering: one row per x, bars scaled to width."""
        lines = [self.title, f"  y = {self.y_label}"]
        peak = max(
            (y for s in self.series for _, y in s.points if y > 0),
            default=1.0,
        )
        for entry in self.series:
            lines.append(f"  {entry.name}:")
            for x, y in entry.points:
                bar = "#" * max(1, int(width * y / peak)) if y > 0 else ""
                lines.append(f"    {x:>12.3e}  {y:>12.4g}  {bar}")
        for key, value in self.notes.items():
            lines.append(f"  note: {key} = {value:.4g}")
        return "\n".join(lines)


def log_space(lo: float, hi: float, count: int) -> List[float]:
    """``count`` log-spaced values from ``lo`` to ``hi`` inclusive."""
    if count < 2:
        return [lo]
    ratio = math.log(hi / lo)
    return [lo * math.exp(ratio * i / (count - 1)) for i in range(count)]


def figure3_latency_sweep(
    runner: ExperimentRunner,
    design: str = "cwl",
    threads: int = 1,
    latencies: Optional[Sequence[float]] = None,
    models: Sequence[str] = FIG3_MODELS,
) -> Figure:
    """Figure 3: achievable insert rate vs persist latency (log sweep).

    One critical-path analysis per model serves every latency; only the
    persist-bound rate depends on latency.  Break-even latencies are
    recorded in the figure notes.
    """
    latencies = list(
        latencies
        if latencies is not None
        else log_space(FIG3_MIN_LATENCY, FIG3_MAX_LATENCY, 25)
    )
    figure = Figure(
        title=(
            f"Figure 3: achievable rate vs persist latency "
            f"({design}, {threads} thread(s))"
        ),
        x_label="persist_latency_s",
        y_label="inserts_per_second",
    )
    for column in models:
        base = runner.point(design, threads, column, latencies[0])
        series = Series(name=column)
        for latency in latencies:
            point = ThroughputPoint(
                model=column,
                persist_latency=latency,
                critical_path=base.critical_path,
                operations=base.operations,
                instruction_rate=base.instruction_rate,
            )
            series.points.append((latency, point.achievable))
        figure.series.append(series)
        figure.notes[f"breakeven_{column}_s"] = base.breakeven
    return figure


def _granularity_figure(
    runner: ExperimentRunner,
    title: str,
    sweep_field: str,
    design: str,
    threads: int,
    granularities: Sequence[int],
    models: Sequence[str],
) -> Figure:
    """Shared sweep for Figures 4 and 5."""
    figure = Figure(
        title=title,
        x_label=f"{sweep_field}_bytes",
        y_label="persist_critical_path_per_insert",
    )
    for column in models:
        model, racing = TABLE1_COLUMNS[column]
        inserts = runner.total_inserts(design, threads, racing)
        series = Series(name=column)
        for granularity in granularities:
            config = AnalysisConfig(**{sweep_field: granularity})
            analysis = runner.analysis(design, threads, racing, model, config)
            series.points.append(
                (
                    float(granularity),
                    analysis.critical_path_per(inserts),
                )
            )
        figure.series.append(series)
    return figure


def figure4_persist_granularity(
    runner: ExperimentRunner,
    design: str = "cwl",
    threads: int = 1,
    granularities: Sequence[int] = GRANULARITIES,
    models: Sequence[str] = GRANULARITY_MODELS,
) -> Figure:
    """Figure 4: critical path per insert vs atomic persist granularity.

    Larger atomic persists let adjacent data-segment persists coalesce;
    the paper finds this closes strict persistency's gap to epoch
    persistency by 256 bytes while leaving relaxed models unchanged.
    """
    return _granularity_figure(
        runner,
        f"Figure 4: atomic persist size ({design}, {threads} thread(s))",
        "persist_granularity",
        design,
        threads,
        granularities,
        models,
    )


def figure5_tracking_granularity(
    runner: ExperimentRunner,
    design: str = "cwl",
    threads: int = 1,
    granularities: Sequence[int] = GRANULARITIES,
    models: Sequence[str] = GRANULARITY_MODELS,
) -> Figure:
    """Figure 5: critical path per insert vs dependence-tracking granularity.

    Coarse conflict tracking introduces persistent false sharing, which
    reintroduces the constraints relaxed persistency removed; the paper
    finds epoch persistency degrades to strict by 256-byte tracking.
    """
    return _granularity_figure(
        runner,
        f"Figure 5: persistent false sharing ({design}, {threads} thread(s))",
        "tracking_granularity",
        design,
        threads,
        granularities,
        models,
    )


@dataclass
class DependenceSummary:
    """Figure 2 quantified: persist ordering constraints by model.

    The paper's Figure 2 classifies CWL/2LC persist dependences into
    required constraints, class "A" (serialised data persists, removed by
    epoch persistency) and class "B" (serialised inserts, removed by
    strand persistency).  We measure total ordering constraints — ordered
    pairs in the persist partial order's transitive closure — on a small
    fixed-size run (pair counts grow quadratically with run length, so
    the run size is pinned for comparability), per insert.  The deltas
    between models quantify the removed constraint classes.
    """

    design: str
    threads: int
    inserts: int
    constraints_per_insert: Dict[str, float]

    @property
    def removed_by_epoch(self) -> float:
        """Class "A": constraints strict imposes that epoch removes."""
        return (
            self.constraints_per_insert["strict"]
            - self.constraints_per_insert["epoch"]
        )

    @property
    def removed_by_strand(self) -> float:
        """Class "B": constraints epoch imposes that strand removes."""
        return (
            self.constraints_per_insert["epoch"]
            - self.constraints_per_insert["strand"]
        )


def figure2_dependences(
    runner: ExperimentRunner,
    design: str = "cwl",
    threads: int = 1,
    inserts: int = 8,
) -> DependenceSummary:
    """Quantify Figure 2's dependence classes on a real (small) trace."""
    from repro.queue.workload import run_insert_workload

    constraints: Dict[str, float] = {}
    for column in ("strict", "epoch", "strand"):
        model, racing = TABLE1_COLUMNS[column]
        workload = run_insert_workload(
            design=design,
            threads=threads,
            inserts_per_thread=-(-inserts // threads),
            entry_size=runner.entry_size,
            racing=racing,
            lock_kind=runner.lock_kind,
            seed=runner.base_seed,
        )
        graph = analyze_graph(workload.trace, model).graph
        ordered_pairs = sum(len(graph.ancestors(n.pid)) for n in graph.nodes)
        constraints[column] = ordered_pairs / workload.total_inserts
    return DependenceSummary(
        design=design,
        threads=threads,
        inserts=inserts,
        constraints_per_insert=constraints,
    )
