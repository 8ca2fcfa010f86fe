"""Experiment harness: cost models, metrics, runner, result store,
parallel grid execution, tables, and figures."""

from repro.harness.cache import (
    HarnessStats,
    ResultStore,
    analysis_from_payload,
    analysis_to_payload,
    content_digest,
)
from repro.harness.figures import (
    FIG3_MODELS,
    GRANULARITIES,
    DependenceSummary,
    Figure,
    Series,
    figure2_dependences,
    figure3_latency_sweep,
    figure4_persist_granularity,
    figure5_tracking_granularity,
    log_space,
)
from repro.harness.instr import DEFAULT_COST_MODEL, InstructionCostModel
from repro.harness.metrics import (
    PAPER_PERSIST_LATENCY,
    ThroughputPoint,
    achievable_rate,
    breakeven_latency,
    normalized_throughput,
    persist_bound_rate,
)
from repro.harness.parallel import (
    GridCell,
    dedup_cells,
    fan_out,
    figure_cells,
    run_grid,
    table1_cells,
)
from repro.harness.runner import TABLE1_COLUMNS, ExperimentRunner, derive_seed
from repro.harness.svg import figure_to_svg, render_line_chart
from repro.harness.wear import WearProfile, wear_profile
from repro.harness.tables import (
    COLUMN_LABELS,
    DESIGN_LABELS,
    Table1,
    build_table1,
    format_table1,
    table1_rows,
)

__all__ = [
    "HarnessStats",
    "ResultStore",
    "content_digest",
    "analysis_to_payload",
    "analysis_from_payload",
    "GridCell",
    "table1_cells",
    "figure_cells",
    "dedup_cells",
    "run_grid",
    "fan_out",
    "derive_seed",
    "InstructionCostModel",
    "DEFAULT_COST_MODEL",
    "PAPER_PERSIST_LATENCY",
    "ThroughputPoint",
    "persist_bound_rate",
    "normalized_throughput",
    "achievable_rate",
    "breakeven_latency",
    "ExperimentRunner",
    "TABLE1_COLUMNS",
    "Table1",
    "build_table1",
    "format_table1",
    "table1_rows",
    "COLUMN_LABELS",
    "DESIGN_LABELS",
    "Figure",
    "Series",
    "DependenceSummary",
    "figure2_dependences",
    "figure3_latency_sweep",
    "figure4_persist_granularity",
    "figure5_tracking_granularity",
    "FIG3_MODELS",
    "GRANULARITIES",
    "log_space",
    "WearProfile",
    "wear_profile",
    "render_line_chart",
    "figure_to_svg",
]
