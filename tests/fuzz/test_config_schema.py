"""Campaign configs and corpus cases through the one job description.

A ``CampaignConfig`` spec round-trips through the schema codec, and a
``ReproCase`` converts to and from the campaign's ``CaseSpec`` without a
hand-kept field list that could drop an axis.
"""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.fuzz import CampaignConfig, CaseSpec, Finding
from repro.fuzz.corpus import ReproCase
from repro.fuzz.judge import Verdict
from repro.schema import decode, encode


class TestCampaignSpec:
    def test_describe_is_the_encoded_spec_and_decodes_back(self):
        config = CampaignConfig(
            target="kv", budget=7, models=("epoch",), seed=3,
            faults=("torn",), crash_recovery=1, jobs=4, task_retries=2,
        )
        spec = config.describe()
        assert spec == encode(config)
        assert "jobs" not in spec and "task_retries" not in spec
        rebuilt = decode(CampaignConfig, spec)
        assert rebuilt.describe() == spec

    def test_decode_rejects_a_string_for_a_list(self):
        with pytest.raises(ReproError, match="'faults' must be a list"):
            decode(CampaignConfig, {"target": "kv", "faults": "torn"})


#: A case with every axis away from its default, so a conversion that
#: dropped one would show.
CASE = ReproCase(
    target="queue-2lc",
    threads=2,
    ops=3,
    sched="strided2",
    sched_seed=17,
    model="strand",
    cut=(4, 1, 2),
    choices=(0, 1, 1, 0),
    error="lost insert",
    minimized=True,
    oracle="dl",
    condition="dl+bdl",
    crash="idempotence",
    crash_schedule=((1,), (0, 2)),
    crash_recovery=2,
)


class TestCaseConversion:
    def test_to_finding_carries_every_axis(self):
        finding = CASE.to_finding()
        assert isinstance(finding, Finding)
        spec = finding.spec
        assert spec == CaseSpec(
            target="queue-2lc", threads=2, ops=3, sched="strided2",
            sched_seed=17, model="strand", cuts="minimal", cut_seed=0,
            faults=None, oracle="dl", crash_recovery=2,
        )
        assert (finding.cut, finding.error, finding.choices) == (
            CASE.cut, CASE.error, CASE.choices
        )
        assert (finding.condition, finding.crash, finding.crash_schedule) == (
            "dl+bdl", "idempotence", ((1,), (0, 2))
        )

    def test_from_verdict_inverts_to_finding(self):
        finding = CASE.to_finding()
        verdict = Verdict(
            kind="crash",
            error=CASE.error,
            condition=CASE.condition,
            crash=CASE.crash,
            schedule=CASE.crash_schedule,
        )
        rebuilt = ReproCase.from_verdict(
            finding.spec, finding.cut, finding.choices, verdict
        )
        # The minimizer's case records its cut sorted.
        assert rebuilt == replace(CASE, cut=(1, 2, 4))

    def test_fault_plan_crosses_both_ways(self):
        faulted = replace(
            CASE, oracle="invariant", condition=None, faults='{"kind": "torn"}'
        )
        spec = faulted.to_finding().spec
        assert spec.faults == faulted.faults
        rebuilt = ReproCase.from_verdict(
            spec, faulted.cut, faulted.choices,
            Verdict(kind="crash", error=faulted.error, crash=faulted.crash,
                    schedule=faulted.crash_schedule),
        )
        assert rebuilt.faults == faulted.faults
