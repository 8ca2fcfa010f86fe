"""Compare two benchmark ledgers, metric by metric and workload by workload.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each argument is a ledger written by ``run.py --out``; ``FILE@N`` takes
only its N-th run (counting from 0), a bare ``FILE`` pools every run in
it.  For each (workload, end-to-end metric) it prints both sides'
median, quartiles and sample count over untraced repetitions, and a
verdict:

* ``unresolved``: either side's quartile spread is wider than the
  metric's bound, and not every change repetition reads better than
  every parent one;
* ``worse than bound``: the change's median is worse than the parent's
  by more than the bound;
* ``within bound`` otherwise.

A gain is claimed only with at least ten pairs (repetition i of each
side), the change winning at least nine tenths of them (ties count for
neither), and the medians further apart than the distance between the
parent's quartiles.  When both sides hold traced repetitions, the
per-layer medians follow side by side, without verdicts.  Exits 1 when a
row is worse than its bound or unresolved, or when the change fails a
larger share of its units than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from catalog import (
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    spread,
    summarize,
    worsening,
)


def load(argument: str) -> List[dict]:
    """The runs a ``FILE`` or ``FILE@N`` argument names."""
    path, _, index = argument.partition("@")
    sets = json.loads(Path(path).read_text())["sets"]
    return [sets[int(index)]] if index else sets


def samples(
    sets: List[dict], workload: str, metric: str, traced: bool
) -> List[float]:
    """Per-repetition values of one metric, pooled over runs."""
    values = []
    for entry in sets:
        for rep in entry["workloads"].get(workload, {}).get("reps", []):
            if traced and "layers" in rep:
                values.append(rep["layers"][metric])
            elif not traced and "wall_s" in rep and not rep["traced"]:
                values.append(rep[metric])
    return values


def failed_share(sets: List[dict]) -> float:
    """Failed units over attempted units, pooled over runs."""
    summaries = [
        summary for entry in sets for summary in entry["workloads"].values()
    ]
    failed = sum(summary["failed"] for summary in summaries)
    return failed / sum(summary["attempted"] for summary in summaries)


def _better(metric, parent: float, change: float) -> bool:
    return worsening(metric, parent, change) < 0


def _median(values: List[float]) -> float:
    return summarize(values)["value"]


def claim(metric, parent: List[float], change: List[float]) -> str:
    """The gain claim for one row, or why there is none."""
    pairs = list(zip(parent, change))
    wins = sum(_better(metric, a, b) for a, b in pairs)
    a, b = summarize(parent), summarize(change)
    gain = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and _better(metric, a["value"], b["value"])
        and abs(b["value"] - a["value"]) > a["q3"] - a["q1"]
    )
    return f"{'gain' if gain else 'no gain'} ({wins}/{len(pairs)} pairs won)"


def verdict(metric, parent: List[float], change: List[float]) -> str:
    """``within bound``, ``worse than bound`` or ``unresolved``."""
    every_better = all(_better(metric, a, b) for a in parent for b in change)
    if max(spread(parent), spread(change)) > metric.bound and not every_better:
        return "unresolved"
    worse = worsening(metric, _median(parent), _median(change))
    return "worse than bound" if worse > metric.bound else "within bound"


def _cell(values: List[float]) -> str:
    row = summarize(values)
    return (
        f"{row['value']:>10.5g} [{row['q1']:.5g}, {row['q3']:.5g}] "
        f"n={row['n']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="ledger FILE or FILE@N of the parent")
    parser.add_argument("change", help="ledger FILE or FILE@N of the change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)

    bad = 0
    print(
        f"{'workload':<12} {'metric':<12} {'unit':<5} "
        f"{'parent median [q1, q3]':<38} {'change median [q1, q3]':<38} "
        f"{'change':>7}  verdict; claim"
    )
    for workload in WORKLOAD_NAMES:
        for metric in END_TO_END:
            a = samples(parent, workload, metric.name, traced=False)
            b = samples(change, workload, metric.name, traced=False)
            if not a or not b:
                continue
            delta = 100.0 * (_median(b) - _median(a)) / _median(a)
            row_verdict = verdict(metric, a, b)
            bad += row_verdict != "within bound"
            print(
                f"{workload:<12} {metric.name:<12} {metric.unit:<5} "
                f"{_cell(a):<38} {_cell(b):<38} {delta:>+6.1f}%  "
                f"{row_verdict}; {claim(metric, a, b)}"
            )

    for workload in WORKLOAD_NAMES:
        rows = []
        for metric in PER_LAYER:
            a = samples(parent, workload, metric.name, traced=True)
            b = samples(change, workload, metric.name, traced=True)
            if a and b and (any(a) or any(b)):
                rows.append((metric, _median(a), _median(b)))
        if rows:
            print(f"\nper layer, {workload} (traced medians, no verdicts)")
            for metric, a, b in rows:
                print(
                    f"  {metric.name:<30} {metric.unit:<6} "
                    f"{a:>12.5g} {b:>12.5g}"
                )

    parent_failed, change_failed = failed_share(parent), failed_share(change)
    if change_failed > parent_failed:
        print(
            f"\nchange fails {change_failed:.2%} of its units, "
            f"parent {parent_failed:.2%}"
        )
        bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
