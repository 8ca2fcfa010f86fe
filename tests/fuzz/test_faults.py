"""Fault-injection campaigns: detect-and-degrade recovery end to end.

The contract under test (ISSUE: device-level fault injection):

* hardened targets (per-record checksums) must never return silently
  wrong recovered state under any injected fault — every fault is
  masked or detected-and-quarantined;
* unhardened targets document their undetectable exposure (counted,
  never a campaign failure);
* a serialized fault plan replays to the identical
  :class:`~repro.inject.report.RecoveryReport`;
* campaigns resumed from a result store report byte-identical summaries.
"""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz import (
    CampaignConfig,
    CaseSpec,
    Corpus,
    ReproCase,
    TARGETS,
    replay_case,
    run_campaign,
    run_case,
    sample_specs,
)
from repro.fuzz import campaign as campaign_module
from repro.fuzz.campaign import plan_shards
from repro.harness.cache import ResultStore
from repro.inject import FAULT_KINDS, FaultPlan

#: Small per-target sizes so the full matrix stays fast.
SMALL = {"budget": 3, "seed": 7, "cut_samples": 12}

#: Hardened targets that are correct by construction: zero silent
#: corruption AND zero violations of any kind under faults.
CLEAN_HARDENED = [
    name
    for name, target in sorted(TARGETS.items())
    if target.hardened and not target.known_broken
]


def small_config(target, kind):
    return CampaignConfig(target=target, faults=(kind,), **SMALL)


class TestSpecFaults:
    def test_spec_payload_round_trips_plan(self):
        plan = FaultPlan.for_kind("torn", seed=9)
        spec = CaseSpec(
            target="kv", threads=2, ops=2, sched="random", sched_seed=1,
            model="epoch", cuts="sample", cut_seed=2, faults=plan.to_json(),
        )
        rebuilt = CaseSpec.from_payload(spec.describe())
        assert rebuilt == spec
        assert rebuilt.plan() == plan

    def test_payload_without_faults_field_still_loads(self):
        payload = CaseSpec(
            target="kv", threads=2, ops=2, sched="random", sched_seed=1,
            model="epoch", cuts="sample", cut_seed=2,
        ).describe()
        del payload["faults"]
        assert CaseSpec.from_payload(payload).faults is None

    def test_clean_spec_has_no_plan(self):
        spec = sample_specs(CampaignConfig(target="kv", budget=1))[0]
        assert spec.faults is None and spec.plan() is None

    def test_fault_axis_assigns_plans_of_requested_kinds(self):
        config = CampaignConfig(
            target="kv", budget=12, seed=0, faults=("torn", "corrupt")
        )
        kinds = set()
        for spec in sample_specs(config):
            plan = spec.plan()
            assert plan is not None
            assert len(plan.kinds) == 1
            kinds.update(plan.kinds)
        assert kinds == {"torn", "corrupt"}

    def test_fault_axis_does_not_perturb_clean_sampling(self):
        clean = sample_specs(CampaignConfig(target="kv", budget=6, seed=3))
        faulted = sample_specs(
            CampaignConfig(target="kv", budget=6, seed=3, faults=("torn",))
        )
        for before, after in zip(clean, faulted):
            assert before == CaseSpec.from_payload(
                {**after.describe(), "faults": None}
            )

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(FuzzError):
            CampaignConfig(target="kv", faults=("bitrot",)).validate()


class TestHardenedTargets:
    @pytest.mark.parametrize("target", CLEAN_HARDENED)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_no_silent_corruption_under_any_fault_kind(self, target, kind):
        result = run_campaign(small_config(target, kind))
        assert result.silent_corruptions == 0
        assert result.violations == 0
        assert result.fault_undetected == 0
        # Every faulted image is accounted for: masked or detected.
        if result.fault_images:
            assert result.fault_masked + result.fault_detected > 0

    def test_torn_writes_are_detected_not_just_masked(self):
        # The CI smoke job's property: a hardened target's checksums
        # must actually catch seeded torn writes, not coincide with
        # them being harmless.
        result = run_campaign(small_config("log", "torn"))
        assert result.fault_images > 0
        assert result.fault_detected > 0


class TestUnhardenedTargets:
    @pytest.mark.parametrize(
        "target",
        [n for n, t in sorted(TARGETS.items()) if not t.hardened
         and not t.known_broken],
    )
    def test_exposure_is_documented_never_silent(self, target):
        result = run_campaign(small_config(target, "corrupt"))
        # Unhardened targets may mis-recover (counted as undetected
        # exposure) but never produce the silent-corruption verdict,
        # and genuine ordering violations must not appear.
        assert result.silent_corruptions == 0
        assert result.violations == 0

    def test_queue_payload_corruption_is_the_documented_exposure(self):
        result = run_campaign(
            CampaignConfig(
                target="queue-2lc", budget=4, seed=1, faults=("corrupt",)
            )
        )
        assert result.fault_images > 0
        assert result.silent_corruptions == 0


class TestKnownBrokenTargets:
    @pytest.mark.parametrize(
        "target", [n for n, t in sorted(TARGETS.items()) if t.known_broken]
    )
    def test_fault_campaigns_still_classify_cleanly(self, target):
        result = run_campaign(small_config(target, "torn"))
        # Genuine ordering bugs may fire (clean image fails too); the
        # accounting must stay coherent regardless.
        assert result.fault_masked + result.fault_undetected <= (
            result.fault_images
        )
        for outcome in result.outcomes:
            assert outcome.silent_violation_count <= outcome.violation_count

    def test_genuine_violations_strip_fault_plans_from_findings(self):
        config = CampaignConfig(
            target="queue-2lc-faithful", budget=12, seed=0,
            faults=("dropped",),
        )
        result = run_campaign(config)
        if result.violations:
            for finding in result.findings:
                if not any(
                    v.silent
                    for o in result.outcomes
                    if o.spec == finding.spec
                    for v in o.violations
                ):
                    assert finding.spec.faults is None


class TestReplayDeterminism:
    def build_fault_case(self, kind):
        spec = sample_specs(
            CampaignConfig(target="kv", budget=1, seed=5, faults=(kind,))
        )[0]
        outcome = run_case(spec)
        assert outcome.cuts_checked > 0
        # The full cut is always consistent, so replay it.
        from repro.fuzz import execute_spec

        execution = execute_spec(spec)
        cut = tuple(
            sorted(node.pid for node in execution.graph.nodes)
        )
        return ReproCase(
            target=spec.target,
            threads=spec.threads,
            ops=spec.ops,
            sched=spec.sched,
            sched_seed=spec.sched_seed,
            model=spec.model,
            cut=cut,
            choices=execution.choices,
            error="",
            faults=spec.faults,
        )

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_serialized_plan_replays_to_identical_report(self, kind, tmp_path):
        case = self.build_fault_case(kind)
        corpus = Corpus(tmp_path)
        path = corpus.add(case)
        loaded = corpus.load(path)
        assert loaded == case
        first = replay_case(loaded)
        second = replay_case(loaded)
        assert first.reproduced == second.reproduced
        assert first.detail == second.detail
        if first.report is not None:
            assert first.report == second.report
            assert first.report.quarantined == second.report.quarantined

    def test_corpus_payload_without_faults_loads_as_clean(self, tmp_path):
        case = self.build_fault_case("torn")
        payload = case.describe()
        del payload["faults"]
        assert ReproCase.from_payload(payload).faults is None


class TestCheckpointing:
    """Campaign resume through the content-addressed result store."""

    CONFIG = dict(target="counter", budget=6, seed=2, cut_samples=8)

    def test_resume_is_byte_identical(self, tmp_path):
        config = CampaignConfig(**self.CONFIG)
        straight = run_campaign(config).summary()
        store = ResultStore(tmp_path / "store")
        assert run_campaign(config, store=store).summary() == straight
        entries = sorted(store.root.glob("*.result.json"))
        assert len(entries) == self.CONFIG["budget"]
        # Drop half the stored cases to simulate an interrupt.
        for path in entries[::2]:
            path.unlink()
        resumed = ResultStore(store.root)
        assert run_campaign(config, store=resumed).summary() == straight
        assert resumed.stats.store_hits == resumed.stats.store_misses == 3
        # The store healed back to the full campaign.
        assert len(resumed) == self.CONFIG["budget"]

    def test_resume_skips_completed_cases(self, tmp_path, monkeypatch):
        config = CampaignConfig(**self.CONFIG)
        store = ResultStore(tmp_path / "store")
        straight = run_campaign(config, store=store).summary()
        hits, pending = store.resolve(plan_shards(config))
        assert sorted(hits) == list(range(self.CONFIG["budget"]))
        assert pending == {}

        def boom(task):
            raise AssertionError("a stored shard was re-run")

        monkeypatch.setattr(campaign_module, "run_shard", boom)
        result = run_campaign(config, store=store)
        assert result.failed_cases == 0
        assert result.summary() == straight

    def test_different_config_ignores_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(CampaignConfig(**self.CONFIG), store=store)
        other = CampaignConfig(**{**self.CONFIG, "seed": 3})
        shared = ResultStore(store.root)
        result = run_campaign(other, store=shared)
        # Different cases, different keys: nothing resumes wrongly.
        assert shared.stats.store_hits == 0
        assert result.summary() == run_campaign(other).summary()
        assert len(shared) == 2 * self.CONFIG["budget"]

    def test_parallelism_does_not_change_checkpoint_identity(self):
        serial = CampaignConfig(**self.CONFIG, jobs=1)
        parallel = CampaignConfig(
            **self.CONFIG, jobs=4, task_timeout=30.0, task_retries=2
        )
        assert plan_shards(serial) == plan_shards(parallel)

    def test_corrupt_checkpoint_quarantined_and_rerun(self, tmp_path):
        config = CampaignConfig(**self.CONFIG)
        store = ResultStore(tmp_path / "store")
        straight = run_campaign(config, store=store).summary()
        victim = sorted(store.root.glob("*.result.json"))[0]
        victim.write_bytes(b'{"kind": "fuzz", "outc')
        rerun = ResultStore(store.root)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_campaign(config, store=rerun)
        assert result.summary() == straight
        assert rerun.stats.store_misses == rerun.stats.cache_evictions == 1
        assert victim.with_name(victim.name + ".quarantined").exists()
        assert len(rerun) == self.CONFIG["budget"]  # recomputed and stored

    @pytest.mark.parametrize("edit", ["bare", "payload"])
    def test_edited_checkpoint_is_recomputed(self, tmp_path, edit):
        # A well-formed JSON object that is not what the shard computed
        # (an older bare payload, or a payload edited after it was
        # stored) must fail the store's digest check and recompute,
        # never reach fold_shards.
        config = CampaignConfig(**self.CONFIG)
        store = ResultStore(tmp_path / "store")
        straight = run_campaign(config, store=store).summary()
        victim = sorted(store.root.glob("*.result.json"))[0]
        if edit == "bare":
            victim.write_text(json.dumps({"kind": "fuzz"}))
        else:
            entry = json.loads(victim.read_text())
            entry["payload"]["outcomes"][0]["events"] += 1
            victim.write_text(json.dumps(entry))
        rerun = ResultStore(store.root)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_campaign(config, store=rerun)
        assert result.summary() == straight
        assert rerun.stats.store_misses == rerun.stats.cache_evictions == 1
        assert len(rerun) == self.CONFIG["budget"]
