"""Tests for the repro corpus and deterministic replay."""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz import Corpus, ReproCase, minimize_finding, replay_case
from repro.inject import FaultPlan

from tests.fuzz.test_campaign import FAITHFUL_2LC_SPEC
from tests.fuzz.test_minimize import finding_for


@pytest.fixture(scope="module")
def minimized_case():
    """One minimized, replayable case (expensive: built once per module)."""
    return minimize_finding(finding_for(FAITHFUL_2LC_SPEC)).case


#: Cases that between them set every field off its default (a history
#: oracle and a fault plan may not be combined).
FULL_CASES = [
    ReproCase(
        target="kv", threads=2, ops=3, sched="random", sched_seed=7,
        model="epoch", cut=(0, 2), choices=(1, 0), error="lost append",
        minimized=True, oracle="dl", condition="dl+bdl",
        crash="idempotence", crash_schedule=((1, 2), (), (3,)),
        crash_recovery=2,
    ),
    ReproCase(
        target="kv", threads=2, ops=3, sched="random", sched_seed=7,
        model="epoch", cut=(0, 2), choices=(1, 0), error="torn root",
        faults=FaultPlan.for_kind("torn", seed=1).to_json(),
    ),
]


class TestReproCase:
    def test_round_trips_through_payload(self, minimized_case):
        payload = minimized_case.describe()
        assert ReproCase.from_payload(payload) == minimized_case
        for case in FULL_CASES:
            wire = json.loads(json.dumps(case.describe()))
            assert ReproCase.from_payload(wire) == case

    def test_float_in_crash_schedule_names_the_key(self, tmp_path):
        path = tmp_path / "edited.repro.json"
        payload = {**FULL_CASES[0].describe(), "crash_schedule": [[1, 2.0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(FuzzError, match="'crash_schedule'"):
            Corpus(tmp_path).load(path)

    def test_key_is_stable_and_content_addressed(self, minimized_case):
        assert minimized_case.key() == minimized_case.key()
        other = ReproCase.from_payload(
            {**minimized_case.describe(), "sched_seed": 99}
        )
        assert other.key() != minimized_case.key()

    def test_malformed_payload_rejected(self):
        with pytest.raises(FuzzError):
            ReproCase.from_payload({"target": "kv"})

    def test_wrong_version_rejected(self, minimized_case):
        payload = {**minimized_case.describe(), "version": 999}
        with pytest.raises(FuzzError):
            ReproCase.from_payload(payload)


class TestCorpus:
    def test_add_load_round_trip(self, tmp_path, minimized_case):
        corpus = Corpus(tmp_path)
        path = corpus.add(minimized_case)
        assert path.name.endswith(".repro.json")
        assert corpus.load(path) == minimized_case

    def test_add_is_idempotent(self, tmp_path, minimized_case):
        corpus = Corpus(tmp_path)
        assert corpus.add(minimized_case) == corpus.add(minimized_case)
        assert len(corpus.entries()) == 1

    def test_entries_sorted(self, tmp_path, minimized_case):
        corpus = Corpus(tmp_path)
        corpus.add(minimized_case)
        variant = ReproCase.from_payload(
            {**minimized_case.describe(), "error": "another"}
        )
        corpus.add(variant)
        entries = corpus.entries()
        assert entries == sorted(entries)
        assert len(entries) == 2

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.repro.json"
        path.write_text("{not json")
        with pytest.raises(FuzzError):
            Corpus(tmp_path).load(path)

    def test_byte_truncated_file_raises_fuzz_error(
        self, tmp_path, minimized_case
    ):
        """Truncation mid-token must never leak a raw JSONDecodeError."""
        corpus = Corpus(tmp_path)
        path = corpus.add(minimized_case)
        data = path.read_bytes()
        for cut in (1, len(data) // 3, len(data) // 2):
            path.write_bytes(data[:cut])
            with pytest.raises(FuzzError, match="cannot read repro file"):
                corpus.load(path)

    def test_non_utf8_file_raises_fuzz_error(self, tmp_path):
        path = tmp_path / "binary.repro.json"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(FuzzError, match="cannot read repro file"):
            Corpus(tmp_path).load(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.repro.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FuzzError, match="JSON object"):
            Corpus(tmp_path).load(path)

    def test_load_or_quarantine_renames_and_warns(
        self, tmp_path, minimized_case
    ):
        corpus = Corpus(tmp_path)
        good = corpus.add(minimized_case)
        bad = tmp_path / "half.repro.json"
        bad.write_bytes(good.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="quarantin"):
            assert corpus.load_or_quarantine(bad) is None
        assert not bad.exists()
        assert bad.with_name(bad.name + ".quarantined").exists()
        # The good entry is untouched and still loads.
        assert corpus.load_or_quarantine(good) == minimized_case

    def test_replay_all_skips_quarantined_entries(
        self, tmp_path, minimized_case
    ):
        corpus = Corpus(tmp_path)
        good = corpus.add(minimized_case)
        bad = tmp_path / "torn.repro.json"
        bad.write_bytes(b"\x80\x81\x82")
        with pytest.warns(RuntimeWarning):
            results = corpus.replay_all()
        assert [path for path, _ in results] == [good]
        assert results[0][1].reproduced

    def test_written_file_is_valid_json(self, tmp_path, minimized_case):
        corpus = Corpus(tmp_path)
        path = corpus.add(minimized_case)
        payload = json.loads(path.read_text())
        assert payload["target"] == minimized_case.target


class TestReplay:
    def test_minimized_case_reproduces(self, minimized_case):
        replay = replay_case(minimized_case)
        assert replay.reproduced
        assert replay.detail

    def test_divergent_choices_reported_stale(self, minimized_case):
        stale = ReproCase.from_payload(
            {**minimized_case.describe(), "choices": [999999]}
        )
        replay = replay_case(stale)
        assert not replay.reproduced
        assert "stale" in replay.detail

    def test_inconsistent_cut_reported_stale(self, minimized_case):
        stale = ReproCase.from_payload(
            {**minimized_case.describe(), "cut": [10_000_000]}
        )
        replay = replay_case(stale)
        assert not replay.reproduced
        assert "stale" in replay.detail

    def test_fixed_target_does_not_reproduce(self, minimized_case):
        """The same schedule and cut against the fixed 2LC must be clean."""
        fixed = ReproCase.from_payload(
            {**minimized_case.describe(), "target": "queue-2lc"}
        )
        replay = replay_case(fixed)
        assert not replay.reproduced


def _torn_plan() -> str:
    from repro.inject.plan import FaultPlan

    return FaultPlan.for_kind("torn", seed=1).to_json()


#: Payload edits that combine axes a campaign rejects, with the message
#: each must be rejected with on load.
AXIS_EDITS = {
    "faults-with-history-oracle": (
        {"oracle": "dl", "condition": "dl+bdl", "faults": _torn_plan()},
        "mutually exclusive",
    ),
    "negative-crash-depth": ({"crash_recovery": -1}, "non-negative"),
    "misspelled-crash-oracle": (
        {"crash": "idempotance", "crash_recovery": 2},
        "unknown crash oracle",
    ),
    "unknown-oracle": ({"oracle": "dlx"}, "unknown oracle"),
    "crash-without-repair": (
        {"target": "publish-pair", "crash": "idempotence"},
        "no repair procedure",
    ),
}


class TestAxisValidation:
    """Corpus entries are held to the axis rules campaigns are."""

    @pytest.mark.parametrize("edit", sorted(AXIS_EDITS))
    def test_load_rejects_combinations_campaigns_reject(
        self, tmp_path, minimized_case, edit
    ):
        fields, message = AXIS_EDITS[edit]
        path = tmp_path / "edited.repro.json"
        path.write_text(json.dumps({**minimized_case.describe(), **fields}))
        with pytest.raises(FuzzError, match=message):
            Corpus(tmp_path).load(path)

    def test_replay_all_quarantines_rejected_entries(
        self, tmp_path, minimized_case
    ):
        corpus = Corpus(tmp_path)
        good = corpus.add(minimized_case)
        fields, _ = AXIS_EDITS["faults-with-history-oracle"]
        bad = tmp_path / "edited.repro.json"
        bad.write_text(json.dumps({**minimized_case.describe(), **fields}))
        with pytest.warns(RuntimeWarning, match="quarantin"):
            results = corpus.replay_all()
        assert [path for path, _ in results] == [good]
        assert bad.with_name(bad.name + ".quarantined").exists()

    def test_cli_replay_exits_2_on_rejected_entry(
        self, tmp_path, minimized_case, capsys
    ):
        from repro.cli import main

        fields, _ = AXIS_EDITS["negative-crash-depth"]
        path = tmp_path / "edited.repro.json"
        path.write_text(json.dumps({**minimized_case.describe(), **fields}))
        code = main(["fuzz", "replay", "--corpus-dir", str(tmp_path)])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
