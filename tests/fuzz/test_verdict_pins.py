"""Verdict pins: byte-level digests of every path that judges a cut.

Each digest is a sha256 over canonical JSON of what one judging path
reports: campaign outcomes in their wire format, minimized repro cases
and their work counters, corpus replay results, and model-checker
distinct-violation keys.  The campaigns are small but reach every
verdict branch — invariant violations, DL/BDL conditions, fault
classification (masked, detected, undetected), and the
crash-during-recovery oracles with and without a fault plan — so a
change to how cuts are judged shows up here as a changed digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.check import CheckConfig, check_target
from repro.fuzz import (
    CampaignConfig,
    ReproCase,
    execute_spec,
    minimize_finding,
    replay_case,
    run_campaign,
    run_case,
    sample_specs,
)
from repro.schema import encode


def digest(payload) -> str:
    """sha256 of the payload's canonical JSON."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Small seed-0 campaigns, one per verdict branch.
CAMPAIGNS = {
    "minifs-invariant": dict(target="minifs", budget=3),
    "minifs-racy-invariant": dict(target="minifs-racy", budget=4),
    "queue-2lc-faithful-dl": dict(
        target="queue-2lc-faithful", budget=16, oracle="dl"
    ),
    "queue-2lc-faithful-bdl": dict(
        target="queue-2lc-faithful", budget=12, oracle="bdl"
    ),
    "minifs-racy-crash2": dict(
        target="minifs-racy", budget=2, crash_recovery=2
    ),
    "log-repair-buggy-crash2": dict(
        target="log-repair-buggy", budget=3, crash_recovery=2
    ),
    "log-repair-buggy-crash2-corrupt": dict(
        target="log-repair-buggy",
        budget=3,
        crash_recovery=2,
        faults=("corrupt",),
    ),
    "kv-torn-corrupt": dict(
        target="kv", budget=4, faults=("torn", "corrupt")
    ),
    "queue-2lc-corrupt": dict(
        target="queue-2lc", budget=4, faults=("corrupt",)
    ),
    "queue-2lc-faithful-torn": dict(
        target="queue-2lc-faithful", budget=8, faults=("torn",)
    ),
    "log-torn": dict(target="log", budget=4, faults=("torn",)),
}

#: Campaigns whose first finding is minimized and replayed.
MINIMIZED = (
    "minifs-racy-invariant",
    "queue-2lc-faithful-dl",
    "minifs-racy-crash2",
    "log-repair-buggy-crash2",
    "log-repair-buggy-crash2-corrupt",
)


def campaign_digest(name: str, stop_at_first: bool = False) -> str:
    """Digest of every case outcome of one pinned campaign."""
    config = CampaignConfig(seed=0, **CAMPAIGNS[name])
    return digest(
        [
            encode(run_case(spec, index=index, stop_at_first=stop_at_first))
            for index, spec in enumerate(sample_specs(config))
        ]
    )


def minimize_first_finding(name: str):
    """Minimize the first finding of one pinned campaign."""
    config = CampaignConfig(seed=0, jobs=1, **CAMPAIGNS[name])
    return minimize_finding(run_campaign(config).findings[0])


def replay_variants(case: ReproCase):
    """The minimized case plus edits that exercise each replay branch."""
    variants = [case, replace(case, cut=()), replace(case, choices=(7,))]
    if case.condition is not None:
        variants.append(replace(case, condition="dl"))
        variants.append(replace(case, oracle="bdl"))
    if case.crash is not None:
        variants.append(replace(case, crash="convergence"))
        variants.append(replace(case, crash="preservation"))
        variants.append(replace(case, crash_recovery=0))
    if case.faults is not None:
        variants.append(replace(case, faults=None))
    return variants


def replay_digest(case: ReproCase) -> str:
    """Digest of the replay results of one case and its variants."""
    results = []
    for variant in replay_variants(case):
        replay = replay_case(variant)
        results.append([replay.reproduced, replay.detail, replay.condition])
    return digest(results)


def fault_replay_digest() -> str:
    """Digest of fault-plan replays at the full cut (report branch)."""
    results = []
    for kind in ("torn", "corrupt", "dropped"):
        spec = sample_specs(
            CampaignConfig(target="kv", budget=1, seed=5, faults=(kind,))
        )[0]
        execution = execute_spec(spec)
        case = ReproCase(
            target=spec.target,
            threads=spec.threads,
            ops=spec.ops,
            sched=spec.sched,
            sched_seed=spec.sched_seed,
            model=spec.model,
            cut=tuple(sorted(node.pid for node in execution.graph.nodes)),
            choices=execution.choices,
            error="",
            faults=spec.faults,
        )
        replay = replay_case(case)
        results.append(
            [
                replay.reproduced,
                replay.detail,
                replay.condition,
                None if replay.report is None else repr(replay.report),
            ]
        )
    return digest(results)


#: Checker runs per oracle: the subtree under thread 0's first 26
#: steps (203 schedules) still holds both distinct 2LC violations.
CHECKS = {
    "invariant": CheckConfig(
        models=("epoch", "strand"), forced_prefix=(0,) * 26
    ),
    "dl": CheckConfig(
        models=("strand",), forced_prefix=(0,) * 26, oracle="dl"
    ),
}


def check_digest(oracle: str) -> str:
    """Digest of the checker's distinct violation keys and counters."""
    config = CHECKS[oracle]
    result = check_target("queue-2lc-faithful", 2, 1, config)
    return digest(
        {
            "keys": sorted(list(key) for key in result.distinct),
            "conditions": result.condition_counts,
            "stats": result.stats.describe(),
        }
    )


#: Digests recorded before the judging code was unified; every caller
#: must keep reporting exactly what it reported then.
CAMPAIGN_PINS = {
    "kv-torn-corrupt": "755830b5dac506a01df7e044f0d65203103edb98a0321dbd49a910ca1a306a46",
    "log-repair-buggy-crash2": "1c2126b526c9f339c23d6055ab1853bc3d06edf6b73856904a04ee4bacbe787e",
    "log-repair-buggy-crash2-corrupt": "2e047cd72eca67a9e5591ccb8b471d15de25d90ec1d6201b61b47b872fcfef88",
    "log-torn": "38a48ba25516120e7699762114512492b0fe5ede48c4c72e678602c7ad209da4",
    "minifs-invariant": "d3084910ac946d27173e76b7c08dec8b09e171bd737297e0b3367897055a2f8c",
    "minifs-racy-crash2": "956f8d2e7e85bd43f64bfa14a2f0d9599d6dca35dc86a19af0cb3e40e0ba9513",
    "minifs-racy-invariant": "cdb7a06dc520a363ee329a0d7d1ebff6db83f1cce982b2c6e8f4db7689884b60",
    "queue-2lc-corrupt": "0a7bfdea94942be31f16eb62afadf92b6bca7265a0b08b38e0578a7cc45742b4",
    "queue-2lc-faithful-bdl": "67a17432aad4ef371b430a29c370d1a6e0efab5ccb7e987ba86ff56b6629717b",
    "queue-2lc-faithful-dl": "71bc83b20556aacc86c18256177082339135a15dc76d230bf2fab0cd5d3d7f40",
    "queue-2lc-faithful-torn": "9d28fef41abe92c4558abfe794af1c12129ac79f2b0ab4f3df13d03591cf3517",
}

STOP_AT_FIRST_PINS = {
    "kv-torn-corrupt": "755830b5dac506a01df7e044f0d65203103edb98a0321dbd49a910ca1a306a46",
    "log-repair-buggy-crash2": "c38db36ca4f9ab293a3f15b2976205172f891a088156870dbb01e0956db5cafb",
    "log-repair-buggy-crash2-corrupt": "c1f59172d2839fe5b9af51d9545852e5222f65d334719a1cefbfdd3b263ac84a",
    "log-torn": "38a48ba25516120e7699762114512492b0fe5ede48c4c72e678602c7ad209da4",
    "minifs-invariant": "d3084910ac946d27173e76b7c08dec8b09e171bd737297e0b3367897055a2f8c",
    "minifs-racy-crash2": "5a42198f3e39fd148ce013c412a8f97747f391a4819d3b43d0499ff49c533002",
    "minifs-racy-invariant": "93779651565654f82b888a83112bd65b3f7e6ec38ef861fdf89480191fc379c3",
    "queue-2lc-corrupt": "0a7bfdea94942be31f16eb62afadf92b6bca7265a0b08b38e0578a7cc45742b4",
    "queue-2lc-faithful-bdl": "d0bc3358b94a050d5e2e9889f122ecc5b8b083940ab6f60eec1e632cc6aa276f",
    "queue-2lc-faithful-dl": "6ce41fd2f3cfff5ae4b12cf31e245154aebaf5f61d6b49987be8aa1a8cd4c8be",
    "queue-2lc-faithful-torn": "9d28fef41abe92c4558abfe794af1c12129ac79f2b0ab4f3df13d03591cf3517",
}

MINIMIZE_PINS = {
    "minifs-racy-invariant": "4d022ca292b15d34322f592498832e2e6d29c84a09f5a94cc51a51c5e848cb17",
    "queue-2lc-faithful-dl": "4587acee4c6c9da30e316ba26a48dd764b2b75c2763ebdb528d32373c8aa94d4",
    "minifs-racy-crash2": "0d715ed01c6bb97ab7c2884a71e84ed23e5084f2b74e7725281948d6fa2d4681",
    "log-repair-buggy-crash2": "4e0791f31303230ce208ed9ad63e4798d75a0ab209f9b3c5d85ee51eaf3d7d77",
    "log-repair-buggy-crash2-corrupt": "11f26bb3c942d4da61cf290b3801ed49752f325774c42c79407baab0306cdb8c",
}

REPLAY_PINS = {
    "minifs-racy-invariant": "d1b052572170177e139df6bdf81ca32a6fd1b38c84891c7cb0592a1fe362eb48",
    "queue-2lc-faithful-dl": "459fba5be44bb16ad6df8e8419da322d5bad19589a92b4d49131181a9d709f7a",
    "minifs-racy-crash2": "d1b052572170177e139df6bdf81ca32a6fd1b38c84891c7cb0592a1fe362eb48",
    "log-repair-buggy-crash2": "792df35895d3d046500ace623f1fd71dc569f7dc3153c3bcb5aa49c52f3537c8",
    "log-repair-buggy-crash2-corrupt": "abe1427be21220aaced69cf8718138f6746284f48cb33b046a249a33cfe9bffd",
}

FAULT_REPLAY_PIN = (
    "1d1ccaff7a14a8f265c2c34f0c41da0432d1d069e50901524b31a72d888c7e39"
)

CHECK_PINS = {
    "invariant": "d394bcc492129a0840309868f2ce3d983b8c088666801f8f7ec99d2f8977e3f7",
    "dl": "0a324c67d926ac03c09b655bec3743a5ba6383168cfcd8059823ea575d1ce238",
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_outcomes_pinned(name):
    assert campaign_digest(name) == CAMPAIGN_PINS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_stop_at_first_outcomes_pinned(name):
    pinned = STOP_AT_FIRST_PINS[name]
    assert campaign_digest(name, stop_at_first=True) == pinned


@pytest.fixture(scope="module")
def minimized():
    """Each pinned campaign's first finding, minimized once."""
    return {name: minimize_first_finding(name) for name in MINIMIZED}


@pytest.mark.parametrize("name", MINIMIZED)
def test_minimized_case_and_stats_pinned(minimized, name):
    result = minimized[name]
    stats = [result.stats.runs, result.stats.cut_checks]
    assert digest([result.case.describe(), stats]) == MINIMIZE_PINS[name]


@pytest.mark.parametrize("name", MINIMIZED)
def test_replay_results_pinned(minimized, name):
    assert replay_digest(minimized[name].case) == REPLAY_PINS[name]


def test_fault_plan_replay_pinned():
    assert fault_replay_digest() == FAULT_REPLAY_PIN


@pytest.mark.parametrize("oracle", ("invariant", "dl"))
def test_check_distinct_violations_pinned(oracle):
    assert check_digest(oracle) == CHECK_PINS[oracle]
