"""Litmus harness benchmark: corpus wall-time and pinned differential counts.

Times one full differential sweep — the default corpus under every
registered model in both DAG domains — and records the summary counters
to ``benchmarks/out/litmus_summary.json``.  Everything in the sweep is
deterministic (hand-written corpus, seeded generator, DPOR order), so
the counts here are the same pins the CI ``smoke-litmus`` job asserts
on the CLI output; a drift means a model's semantics or the corpus
changed, not noise.
"""

import json

from repro.core.model import MODELS
from repro.litmus import LitmusConfig, default_corpus, run_corpus

#: The smoke-litmus pins (re-derive with
#: ``repro litmus run --all-models --cross-domains`` after any corpus
#: or model change).
EXPECTED = {
    "programs": 25,
    "schedules": 87,
    "allowed": 1232,
    "forbidden": 130,
    "disagreement_pairs": 158,
    "programs_with_disagreements": 21,
    "domain_mismatches": 0,
}


def run_sweep():
    return run_corpus(
        default_corpus(),
        LitmusConfig(tuple(sorted(MODELS)), domains=("bitset", "graph")),
    )


def test_corpus_sweep(out_dir, benchmark):
    report = benchmark(run_sweep)
    summary = report["summary"]

    for key, expected in EXPECTED.items():
        assert summary[key] == expected, (key, summary[key], expected)

    # The two acceptance disagreements must be present as full reports.
    programs = {p["name"]: p for p in report["programs"]}
    weak = programs["mp-clflushopt"]
    pairs = {
        frozenset((d["left"], d["right"])) for d in weak["disagreements"]
    }
    assert frozenset(("px86", "dpox86")) in pairs
    barrier = programs["mp-barrier"]
    pairs = {
        frozenset((d["left"], d["right"])) for d in barrier["disagreements"]
    }
    assert frozenset(("px86", "epoch")) in pairs

    (out_dir / "litmus_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
