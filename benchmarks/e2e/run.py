"""End-to-end benchmark of the repro toolkit, with a per-layer stage ledger.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out LEDGER.json]

Runs each workload (all four by default) in fresh single-threaded
``python`` processes, one per repetition, round-robin across workloads,
until each has had ``--seconds`` of measuring time (at least three
repetitions; one with ``--smoke``).  Every repetition's outputs are
checked against pins.  Prints each metric by name and unit with its
median, quartiles and sample count; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones, which
come from traced repetitions interleaved with untraced ones).  With
several workloads the metric keys are ``<workload>:<metric>``.
``--out`` appends the run, every repetition included, to a ledger file
that ``compare.py`` reads.  Exits 1 when any output check fails, and 2
when ``src/repro`` is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from catalog import (
    END_TO_END,
    PAPER_BREAKEVENS_S,
    PER_LAYER,
    WORKLOAD_NAMES,
    WORKLOADS,
    summarize,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

MIN_REPS = 3
REP_TIMEOUT_S = 150

#: Environment of every repetition: the checkout's sources, one thread
#: in every numeric library, and a fixed hash seed so set iteration
#: order (and with it the interpreter's work) repeats across processes.
_REP_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_rep(
    workload: str, seed: int, rep: int, profile: str, traced: bool
) -> dict:
    """Run repetition ``rep`` in a fresh interpreter; return its record.

    A repetition that crashes or times out counts as one failed unit.
    """
    args = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "profile": profile,
        "traced": traced,
        "spawned_at": time.time(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(args)],
            cwd=ROOT,
            env=dict(os.environ, **_REP_ENV),
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        error = f"repetition timed out after {REP_TIMEOUT_S} s"
    else:
        lines = proc.stdout.splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        error = f"repetition exited {proc.returncode}: {tail}"
    return {"traced": traced, "attempted": 1, "failures": [error]}


def collect(
    names: List[str], seed: int, profile: str, seconds: float, trace: bool
) -> Dict[str, List[dict]]:
    """Repetitions per workload, interleaved round-robin so a slow spell
    on a shared machine hits every workload alike."""
    reps: Dict[str, List[dict]] = {name: [] for name in names}
    deadline = time.perf_counter() + seconds * len(names)
    modes = (False, True) if trace else (False,)
    rounds = 0
    while True:
        for name in names:
            for traced in modes if rounds % 2 == 0 else modes[::-1]:
                reps[name].append(run_rep(name, seed, rounds, profile, traced))
        rounds += 1
        if profile == "smoke" or (
            rounds >= MIN_REPS and time.perf_counter() >= deadline
        ):
            return reps


def summarise(reps: List[dict]) -> dict:
    """Failure counts and metric summaries of one workload's repetitions."""
    plain = [rep for rep in reps if "wall_s" in rep and not rep["traced"]]
    traced = [rep for rep in reps if "layers" in rep]
    summary = {
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(
            min(rep["attempted"], len(rep["failures"])) for rep in reps
        ),
        "failures": [failure for rep in reps for failure in rep["failures"]],
        "metrics": {},
        "per_layer": {},
    }
    if plain:
        for metric in END_TO_END:
            values = [rep[metric.name] for rep in plain]
            summary["metrics"][metric.name] = dict(
                summarize(values), unit=metric.unit
            )
    if plain and traced:
        untraced_wall = statistics.median(rep["wall_s"] for rep in plain)
        for rep in traced:
            rep["layers"]["trace.overhead_pct"] = 100.0 * (
                rep["wall_s"] / untraced_wall - 1.0
            )
        for metric in PER_LAYER:
            values = [rep["layers"][metric.name] for rep in traced]
            summary["per_layer"][metric.name] = dict(
                summarize(values), unit=metric.unit
            )
    return summary


def _latency(seconds: float) -> str:
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    return f"{seconds * 1e6:.2f} us"


def _notes(name: str, reps: List[dict]) -> List[str]:
    """Workload outputs worth reading next to the metrics."""
    done = [rep for rep in reps if "units" in rep]
    if not done:
        return []
    first = done[0]
    if name == "paper":
        measured = first["breakevens_s"]
        return [
            "accuracy: Fig 3 break-even latency "
            + ", ".join(
                f"{model} {_latency(measured[model])} "
                f"(paper {_latency(paper)})"
                for model, paper in PAPER_BREAKEVENS_S.items()
            )
        ]
    if name == "check-2lc":
        schedules, cuts, violations = first["counts"]
        return [
            f"outputs: {schedules} schedules, {cuts} cuts checked, "
            f"{violations} distinct violations"
        ]
    if name == "fuzz-minifs":
        cases, events, cuts = first["totals"]
        notes = [
            f"outputs: {cases} cases, {events} events, {cuts} cuts checked"
        ]
        latencies = [
            ms for rep in done if not rep["traced"] for ms in rep["case_ms"]
        ]
        if len(latencies) > 1:
            p95 = statistics.quantiles(latencies, n=20)[-1]
            notes.append(
                f"case latency: p50 {statistics.median(latencies):.1f} ms, "
                f"p95 {p95:.1f} ms (n={len(latencies)}, "
                f"{sum(ms > p95 for ms in latencies)} beyond p95)"
            )
        return notes
    return [
        f"outputs: {first['events']} events simulated (not pinned: spin "
        f"polls depend on the interleaving)"
    ]


def _print_table(title: str, rows: Dict[str, dict]) -> None:
    if not rows:
        return
    print(f"  {title}")
    print(
        f"    {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'n':>3}"
    )
    for metric, row in rows.items():
        print(
            f"    {metric:<30} {row['unit']:<6} {row['value']:>12.6g} "
            f"{row['q1']:>12.6g} {row['q3']:>12.6g} {row['n']:>3}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measuring time per workload (default: 25)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: interleave traced repetitions and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one repetition per workload",
    )
    parser.add_argument(
        "--out", type=Path, help="ledger file to append the run to"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_NAMES)
    profile = "smoke" if args.smoke else "full"
    reps = collect(names, args.seed, profile, args.seconds, bool(args.trace))

    summaries = {name: summarise(reps[name]) for name in names}
    units = {workload.name: workload.unit for workload in WORKLOADS}
    for name in names:
        summary = summaries[name]
        print(
            f"== {name} (units_per_s counts {units[name]}; "
            f"seed {args.seed}; {len(reps[name])} repetitions) =="
        )
        _print_table("end-to-end (untraced repetitions)", summary["metrics"])
        _print_table("per layer (traced repetitions)", summary["per_layer"])
        for note in _notes(name, reps[name]):
            print(f"  {note}")
        print(f"  failed {summary['failed']} of {summary['attempted']} units")
        for failure in summary["failures"][:10]:
            print(f"  FAIL {failure}")

    key = "per_layer" if args.trace else "metrics"
    expected = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name in names:
        for metric, row in summaries[name][key].items():
            label = metric if len(names) == 1 else f"{name}:{metric}"
            metrics[label] = {"value": row["value"], "unit": row["unit"]}
    attempted = sum(summary["attempted"] for summary in summaries.values())
    failed = sum(summary["failed"] for summary in summaries.values())
    complete = len(metrics) == len(names) * len(expected)

    if args.out is not None:
        ledger = {"sets": []}
        if args.out.exists():
            ledger = json.loads(args.out.read_text())
        ledger["sets"].append(
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "profile": profile,
                "trace": bool(args.trace),
                "host": {
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                },
                "workloads": {
                    name: dict(summaries[name], reps=reps[name])
                    for name in names
                },
            }
        )
        text = json.dumps(ledger, indent=1, sort_keys=True)
        args.out.write_text(text + "\n")

    correct = failed == 0 and complete
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
