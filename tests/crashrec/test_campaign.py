"""End-to-end crash-recovery axis: campaign, minimizer, corpus, CLI.

The acceptance path the ISSUE pins: hardened targets stay clean at
depth 2, the seeded non-idempotent log repair is rediscovered, its
finding minimizes with the crash oracle pinned, and the resulting
corpus entry replays deterministically with the nested-crash schedule
carried in the repro file.
"""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz.campaign import (
    CampaignConfig,
    CaseOutcome,
    CaseSpec,
    run_case,
    run_campaign,
)
from repro.fuzz.corpus import Corpus, ReproCase, replay_case
from repro.fuzz.minimize import minimize_finding
from repro.schema import encode


def buggy_config(budget=4, **overrides):
    return CampaignConfig(
        target="log-repair-buggy",
        budget=budget,
        seed=0,
        crash_recovery=2,
        **overrides,
    )


@pytest.fixture(scope="module")
def buggy_result():
    return run_campaign(buggy_config())


@pytest.fixture(scope="module")
def crash_finding(buggy_result):
    findings = [f for f in buggy_result.findings if f.crash is not None]
    assert findings, "seeded buggy repair must surface a crash finding"
    return findings[0]


@pytest.fixture(scope="module")
def minimized(crash_finding):
    return minimize_finding(crash_finding)


class TestCampaignAxis:
    def test_non_repairable_target_is_rejected(self):
        config = CampaignConfig(
            target="publish-pair", budget=1, crash_recovery=1
        )
        with pytest.raises(FuzzError, match="repair"):
            config.validate()

    def test_negative_depth_is_rejected(self):
        config = CampaignConfig(target="log", budget=1, crash_recovery=-1)
        with pytest.raises(FuzzError):
            config.validate()

    def test_buggy_repair_is_rediscovered(self, buggy_result):
        assert buggy_result.crash_violations > 0
        assert buggy_result.crash_counts.get("idempotence", 0) > 0
        assert buggy_result.crash_repairs > 0

    def test_summary_reports_the_crash_axis(self, buggy_result):
        summary = buggy_result.summary()
        assert "crash-recovery depth=2" in summary
        assert "breaks idempotence" in summary

    def test_invariant_mode_summary_has_no_crash_lines(self):
        result = run_campaign(
            CampaignConfig(target="log", budget=2, seed=0)
        )
        assert "crash-recovery" not in result.summary()

    def test_hardened_queue_is_clean_at_depth_two(self):
        result = run_campaign(
            CampaignConfig(
                target="queue-2lc-faithful",
                budget=3,
                seed=0,
                crash_recovery=2,
            )
        )
        assert result.crash_violations == 0

    def test_outcome_wire_round_trips_crash_fields(self, buggy_result):
        outcome = next(
            o for o in buggy_result.outcomes if o.crash_counts
        )
        rebuilt = CaseOutcome.from_payload(
            json.loads(json.dumps(encode(outcome)))
        )
        assert rebuilt == outcome

    def test_run_case_rejects_non_repairable_spec(self):
        spec = CaseSpec(
            target="publish-pair",
            threads=2,
            ops=1,
            sched="random",
            sched_seed=0,
            model="epoch",
            cuts="sample",
            cut_seed=0,
            cut_samples=4,
            crash_recovery=1,
        )
        with pytest.raises(FuzzError, match="repair"):
            run_case(spec)


class TestMinimizeAndCorpus:
    def test_minimized_case_pins_the_crash_oracle(
        self, crash_finding, minimized
    ):
        case = minimized.case
        assert case.crash == crash_finding.crash
        assert case.crash_recovery == crash_finding.spec.crash_recovery
        assert case.minimized
        # Shrunk at least down the cut family, typically the workload.
        assert case.threads <= crash_finding.spec.threads
        assert case.ops <= crash_finding.spec.ops

    def test_corpus_round_trip_preserves_crash_fields(
        self, minimized, tmp_path
    ):
        corpus = Corpus(tmp_path)
        path = corpus.add(minimized.case)
        loaded = corpus.load(path)
        assert loaded == minimized.case

    def test_minimized_case_replays(self, minimized):
        replay = replay_case(minimized.case)
        assert replay.reproduced, replay.detail
        assert minimized.case.crash in ("idempotence", "convergence")

    def test_replay_is_stale_when_repair_disappears(self, minimized):
        # Same violation retargeted at a structure with no repair
        # procedure: replay must degrade to a stale diagnosis.
        case = ReproCase(
            target="publish-pair",
            threads=2,
            ops=1,
            sched="random",
            sched_seed=0,
            model="epoch",
            cut=(),
            choices=(),
            error="x",
            crash="idempotence",
            crash_recovery=1,
        )
        replay = replay_case(case)
        assert not replay.reproduced
        assert "repair" in replay.detail

    def test_pre_crash_payloads_still_load(self, minimized):
        payload = minimized.case.describe()
        for key in ("crash", "crash_schedule", "crash_recovery"):
            del payload[key]
        loaded = ReproCase.from_payload(payload)
        assert loaded.crash is None
        assert loaded.crash_schedule is None
        assert loaded.crash_recovery == 0
