"""Tests for the campaign engine, including bug rediscovery."""

import pytest

from repro.core import is_consistent_cut
from repro.errors import FuzzError
from repro.fuzz import (
    CUT_FAMILIES,
    CampaignConfig,
    CaseSpec,
    execute_spec,
    run_campaign,
    run_case,
    sample_specs,
)
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
