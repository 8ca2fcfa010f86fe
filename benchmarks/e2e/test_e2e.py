"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import catalog
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_names_are_valid_and_match_benchmark_json():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in catalog.WORKLOADS
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def _fake_clock(*ticks):
    return iter(float(tick) for tick in ticks).__next__


def test_self_time_subtracts_child_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 8] > a [6, 7]
    tracer = Tracer(clock=_fake_clock(0, 1, 2, 3, 4, 5, 6, 7, 8, 10))
    root = tracer.enter("root")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    a = tracer.enter("a")
    inner = tracer.enter("a")
    tracer.exit(inner)
    tracer.exit(a)
    tracer.exit(root)
    spans = tracer.spans()
    assert spans["root"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    # The nested "a" is inside the layer already: not a second entry.
    assert spans["a"] == {"calls": 2, "self_s": 5.0, "total_s": 6.0}
    assert spans["b"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert sum(entry["self_s"] for entry in spans.values()) == 10.0


def test_generator_spans_cover_each_next():
    tracer = Tracer(clock=_fake_clock(0, 1, 2, 3, 4, 5))

    def numbers():
        yield 1
        yield 2

    assert list(tracer.wrap("gen", numbers)()) == [1, 2]
    assert tracer.spans()["gen"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}


def _all_bindings():
    """Every module attribute, and every attribute of the classes each
    module defines, by identity."""
    bindings = {}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            bindings[(id(module), key)] = id(value)
            if isinstance(value, type) and getattr(
                value, "__module__", None
            ) == namespace.get("__name__"):
                for attr, member in list(vars(value).items()):
                    bindings[(id(value), attr)] = id(member)
    return bindings


def test_tracer_wraps_aliases_and_restores_every_binding():
    import workloads  # loads every module the workloads call into
    from repro.check import checker
    from repro.core import analysis, recovery
    from repro.fuzz.targets import TargetRun
    from repro.sim.machine import Machine

    originals = {
        "analyze": analysis.analyze,
        "image_at_cut": recovery.image_at_cut,
        "run": vars(Machine)["run"],
        "init": vars(TargetRun)["__init__"],
    }
    before = _all_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert analysis.analyze is not originals["analyze"]
        assert workloads.analyze is analysis.analyze
        assert checker.image_at_cut is recovery.image_at_cut
        assert recovery.image_at_cut is not originals["image_at_cut"]
        assert vars(Machine)["run"] is not originals["run"]
        assert vars(TargetRun)["__init__"] is not originals["init"]
    finally:
        tracer.restore()
    assert analysis.analyze is originals["analyze"]
    assert workloads.analyze is originals["analyze"]
    assert checker.image_at_cut is originals["image_at_cut"]
    assert vars(TargetRun)["__init__"] is originals["init"]
    assert _all_bindings() == before


def test_smoke_run_passes_every_output_check(tmp_path):
    ledger = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(ledger)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {
        f"{workload}:{metric.name}"
        for workload in catalog.WORKLOAD_NAMES
        for metric in catalog.PER_LAYER
    }
    run = json.loads(ledger.read_text())["sets"][0]["workloads"]
    for workload in catalog.WORKLOAD_NAMES:
        metrics = run[workload]["metrics"]
        assert set(metrics) == {m.name for m in catalog.END_TO_END}
        assert all(row["value"] > 0 for row in metrics.values())
    layers = {name: run[name]["per_layer"] for name in run}
    assert layers["check-2lc"]["sim.replay.calls"]["value"] > 0
    assert layers["check-2lc"]["check.pick.calls"]["value"] > 0
    assert layers["fuzz-minifs"]["fuzz.judge.calls"]["value"] > 0
    assert layers["fuzz-minifs"]["core.recovery.cuts.calls"]["value"] > 0
    assert layers["paper"]["harness.analysis_hit_ratio"]["value"] > 0

    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), f"{ledger}@0", str(ledger)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "worse than bound" not in same.stdout


def test_run_without_sources_fails_without_a_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
