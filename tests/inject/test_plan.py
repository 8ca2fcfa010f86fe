"""Tests for serializable fault plans."""

import pytest

from repro.errors import FuzzError
from repro.inject import DROP_SCOPES, FAULT_KINDS, FaultPlan


class TestValidation:
    def test_default_plan_enables_nothing_and_fails_validation(self):
        with pytest.raises(FuzzError):
            FaultPlan().validate()

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_for_kind_produces_single_kind_plans(self, kind):
        plan = FaultPlan.for_kind(kind, seed=7)
        plan.validate()
        assert plan.kinds == (kind,)
        assert plan.seed == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(FuzzError):
            FaultPlan.for_kind("gamma-ray")

    @pytest.mark.parametrize(
        "bad",
        [
            {"torn": 1.5},
            {"dropped": -0.1},
            {"torn": 0.5, "corrupt": -1},
            {"torn": 0.5, "tear_granularity": 3},
            {"torn": 0.5, "tear_granularity": 0},
            {"dropped": 0.5, "drop_scope": "everything"},
            {"torn": 0.5, "max_faults": 0},
        ],
    )
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(FuzzError):
            FaultPlan(**bad).validate()

    def test_drop_scopes_are_closed(self):
        for scope in DROP_SCOPES:
            FaultPlan(dropped=0.5, drop_scope=scope).validate()


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42, torn=0.25, dropped=0.1, corrupt=3,
            tear_granularity=2, drop_scope="any", wear_bias=False,
            max_faults=6,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_integral_probability_reads_as_float(self):
        plan = FaultPlan(torn=1.0)
        payload = {**plan.describe(), "torn": 1}
        assert FaultPlan.from_payload(payload).to_json() == plan.to_json()

    def test_canonical_json_is_stable(self):
        plan = FaultPlan.for_kind("torn", seed=1)
        assert plan.to_json() == plan.to_json()
        assert " " not in plan.to_json()

    def test_unparsable_json_rejected(self):
        with pytest.raises(FuzzError):
            FaultPlan.from_json("{truncated")
        with pytest.raises(FuzzError):
            FaultPlan.from_json("[1, 2]")

    def test_invalid_payload_rejected(self):
        with pytest.raises(FuzzError):
            FaultPlan.from_payload({"seed": 0})
        with pytest.raises(FuzzError):
            FaultPlan.from_payload(
                {**FaultPlan.for_kind("torn").describe(), "torn": 2.0}
            )
