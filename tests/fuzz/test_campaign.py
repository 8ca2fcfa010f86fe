"""Tests for the campaign engine, including bug rediscovery."""

import json
from dataclasses import replace

import pytest

from repro.core import is_consistent_cut
from repro.errors import FuzzError
from repro.fuzz import (
    CUT_FAMILIES,
    CampaignConfig,
    CaseOutcome,
    CaseSpec,
    CaseViolation,
    execute_spec,
    fold_shards,
    plan_shards,
    run_campaign,
    run_case,
    sample_specs,
)
from repro.fuzz.campaign import _failed_shard
from repro.harness.cache import QUARANTINE_SUFFIX, ResultStore, shard_key
from repro.inject import FaultPlan
from repro.schema import encode
from repro.sim import SCHEDULER_KINDS

#: Known-violating specs (pinned from seed-0 campaign sampling) — the
#: printed 2LC under strand persistency and racy MiniFS under epoch.
FAITHFUL_2LC_SPEC = CaseSpec(
    target="queue-2lc-faithful",
    threads=3,
    ops=3,
    sched="strided2",
    sched_seed=2124,
    model="strand",
    cuts="minimal",
    cut_seed=0,
)
RACY_MINIFS_SPEC = CaseSpec(
    target="minifs-racy",
    threads=3,
    ops=3,
    sched="strided2",
    sched_seed=66150,
    model="epoch",
    cuts="extension",
    cut_seed=18316,
)


class TestCaseSpec:
    def test_round_trips_through_payload(self):
        spec = FAITHFUL_2LC_SPEC
        assert CaseSpec.from_payload(spec.describe()) == spec

    def test_malformed_payload_rejected(self):
        with pytest.raises(FuzzError):
            CaseSpec.from_payload({"target": "kv"})


def full_outcome() -> CaseOutcome:
    """An outcome with every field, its spec's and its violations' off
    their defaults."""
    violation = CaseViolation(
        cut=(0, 2, 5),
        error="lost append",
        silent=True,
        condition="dl+bdl",
        crash="idempotence",
        crash_schedule=((1, 2), (), (3,)),
    )
    return CaseOutcome(
        spec=CaseSpec(
            target="kv", threads=2, ops=3, sched="random", sched_seed=7,
            model="epoch", cuts="sample", cut_seed=9, cut_samples=4,
            faults=FaultPlan.for_kind("torn", seed=1).to_json(),
            oracle="dl", crash_recovery=2,
        ),
        index=5,
        events=120,
        persists=30,
        cuts_checked=4,
        violation_count=2,
        violations=(violation, replace(violation, cut=(1,), silent=False)),
        choices=(0, 1, 1),
        fault_images=3,
        faults_injected=4,
        fault_masked=1,
        fault_detected=2,
        fault_undetected=1,
        silent_violation_count=1,
        undetected=(CaseViolation(cut=(4,), error="stale root"),),
        condition_counts={"dl+bdl": 2},
        crash_repairs=6,
        crash_nested_cuts=8,
        crash_counts={"idempotence": 1},
        error="worker crashed",
    )


def stored_shard(edit) -> dict:
    """The JSON shard payload of :func:`full_outcome`, after ``edit``
    changes its decoded outcome dict in place."""
    outcome = json.loads(json.dumps(encode(full_outcome())))
    edit(outcome)
    return {"kind": "fuzz", "indices": [5], "outcomes": [outcome]}


class TestCaseOutcome:
    def test_round_trips_through_json(self):
        outcome = full_outcome()
        wire = json.loads(json.dumps(encode(outcome)))
        assert CaseOutcome.from_payload(wire) == outcome

    def test_error_key_only_on_failed_outcomes(self):
        assert "error" not in encode(replace(full_outcome(), error=None))

    def test_crashed_shard_folds_to_failed_cases(self):
        config = CampaignConfig(target="kv", budget=2)
        [task] = plan_shards(config, batch=2)
        payload = json.loads(json.dumps(_failed_shard(task, "timed out")))
        result = fold_shards(config, [payload])
        assert result.failed_cases == 2 and result.cuts_checked == 0
        assert [o.spec for o in result.outcomes] == sample_specs(config)
        assert {o.error for o in result.outcomes} == {"timed out"}

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("cuts_checked", lambda o: o.update(cuts_checked="3")),
            ("cut", lambda o: o["violations"][0].update(cut="x")),
            ("crash_schedule", lambda o: o["undetected"][0].update(
                crash_schedule=[[1.5]])),
            ("condition_counts", lambda o: o.update(
                condition_counts={"dl": "2"})),
            ("threads", lambda o: o["spec"].update(threads=True)),
        ],
    )
    def test_malformed_stored_outcome_names_the_key(self, key, edit):
        config = CampaignConfig(target="kv", budget=1)
        with pytest.raises(FuzzError, match=f"'{key}'"):
            fold_shards(config, [stored_shard(edit)])


class TestSampling:
    def test_deterministic_for_seed(self):
        config = CampaignConfig(target="kv", budget=20, seed=3)
        assert sample_specs(config) == sample_specs(config)

    def test_respects_target_and_config_ranges(self):
        config = CampaignConfig(
            target="kv",
            budget=50,
            seed=1,
            models=("epoch",),
            schedulers=("random", "strided2"),
        )
        target_threads = (1, 4)
        for spec in sample_specs(config):
            assert spec.target == "kv"
            assert target_threads[0] <= spec.threads <= target_threads[1]
            assert spec.model == "epoch"
            assert spec.sched in ("random", "strided2")
            assert spec.cuts in CUT_FAMILIES

    def test_bad_configs_rejected(self):
        with pytest.raises(FuzzError):
            sample_specs(CampaignConfig(target="kv", budget=0))
        with pytest.raises(FuzzError):
            sample_specs(CampaignConfig(target="kv", models=()))
        with pytest.raises(FuzzError):
            sample_specs(CampaignConfig(target="nope"))

    @pytest.mark.parametrize("batch", [0, -1])
    def test_shard_batch_below_one_rejected(self, batch):
        config = CampaignConfig(target="minifs", budget=4)
        with pytest.raises(FuzzError, match="batch must be at least 1"):
            plan_shards(config, batch=batch)


class TestRunCase:
    def test_known_bad_spec_violates(self):
        outcome = run_case(FAITHFUL_2LC_SPEC)
        assert outcome.violation_count > 0
        assert outcome.choices  # recorded schedule travels with findings
        for violation in outcome.violations:
            assert violation.error

    def test_violation_cuts_are_consistent(self):
        outcome = run_case(FAITHFUL_2LC_SPEC)
        execution = execute_spec(FAITHFUL_2LC_SPEC)
        for violation in outcome.violations:
            assert is_consistent_cut(execution.graph, violation.cut)

    def test_fixed_variant_of_same_case_is_clean(self):
        spec = CaseSpec.from_payload(
            {**FAITHFUL_2LC_SPEC.describe(), "target": "queue-2lc"}
        )
        outcome = run_case(spec)
        assert outcome.violation_count == 0
        assert outcome.choices is None

    def test_stop_at_first_short_circuits(self):
        full = run_case(FAITHFUL_2LC_SPEC)
        early = run_case(FAITHFUL_2LC_SPEC, stop_at_first=True)
        assert early.violation_count == 1
        assert early.cuts_checked <= full.cuts_checked

    def test_unknown_cut_family_rejected(self):
        spec = CaseSpec.from_payload(
            {**FAITHFUL_2LC_SPEC.describe(), "cuts": "antichain"}
        )
        with pytest.raises(FuzzError):
            run_case(spec)


class TestCampaign:
    def test_rediscovers_printed_2lc_bug(self):
        """The fuzzer must find the paper-faithful 2LC hole from scratch."""
        result = run_campaign(
            CampaignConfig(target="queue-2lc-faithful", budget=24, seed=0)
        )
        assert result.violations > 0
        assert result.findings
        finding = result.findings[0]
        assert finding.choices and finding.cut and finding.error

    def test_rediscovers_minifs_lock_race(self):
        """The fuzzer must find the barriers-around-locks omission."""
        result = run_campaign(
            CampaignConfig(target="minifs-racy", budget=8, seed=0)
        )
        assert result.violations > 0

    @pytest.mark.parametrize("target", ["queue-2lc", "minifs"])
    def test_fixed_variants_stay_clean(self, target):
        result = run_campaign(
            CampaignConfig(target=target, budget=12, seed=0)
        )
        assert result.violations == 0
        assert result.findings == []
        assert result.cases == 12
        assert result.cuts_checked > 0

    def test_parallel_matches_serial(self):
        serial = run_campaign(
            CampaignConfig(target="counter", budget=8, seed=2, jobs=1)
        )
        parallel = run_campaign(
            CampaignConfig(target="counter", budget=8, seed=2, jobs=2)
        )
        assert [o.spec for o in serial.outcomes] == [
            o.spec for o in parallel.outcomes
        ]
        assert [o.cuts_checked for o in serial.outcomes] == [
            o.cuts_checked for o in parallel.outcomes
        ]
        assert serial.violations == parallel.violations == 0

    def test_undecodable_stored_outcome_is_quarantined_and_rerun(
        self, tmp_path
    ):
        """A stored shard whose digest is right but whose outcome does
        not decode is a miss: set aside, its case re-run."""
        config = CampaignConfig(target="counter", budget=2, seed=0)
        fresh = run_campaign(config)
        store = ResultStore(tmp_path / "store")
        run_campaign(config, store=store)
        key = shard_key(plan_shards(config)[0])
        payload = store.load(key)
        payload["outcomes"][0]["cuts_checked"] = "3"
        store.store(key, payload)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_campaign(config, store=store)
        assert result.summary() == fresh.summary()
        assert result.outcomes == fresh.outcomes
        path = store.path_for(key)
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
        assert store.load(key) is not None  # the re-run was stored

    def test_summary_mentions_target_and_counts(self):
        result = run_campaign(
            CampaignConfig(target="counter", budget=4, seed=0)
        )
        summary = result.summary()
        assert "counter" in summary
        assert "violation" in summary


class TestCampaignModels:
    """Campaign models are checked by the helper every engine config
    shares; an unknown one used to validate and then fail every case."""

    def test_unknown_model_fails_before_any_case_runs(self):
        config = CampaignConfig(target="minifs", budget=2, models=("nosuch",))
        with pytest.raises(FuzzError, match="unknown persistency model"):
            run_campaign(config)

    @pytest.mark.parametrize(
        "models, message",
        [((), "at least one"), (("epoch", "epoch"), "duplicate")],
    )
    def test_empty_and_duplicate_models_rejected(self, models, message):
        with pytest.raises(FuzzError, match=message):
            CampaignConfig(target="minifs", models=models).validate()
