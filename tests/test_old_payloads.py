"""Entries written before the payload types shared one codec still load.

``tests/fixtures/parent-payloads`` holds one fuzz shard result store
entry, one corpus repro file and one serve journal entry, each written
by commit 7208b01 (the last with hand-written codecs), next to the
``repr`` of the object that commit built from it.  Each must load to an
equal object, under its unchanged store key, file name or journal id,
and re-encode to the same bytes.  The one change in memory: an
outcome's recorded violations are tuples, where that commit kept lists.
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import (
    CampaignConfig,
    CaseOutcome,
    CaseSpec,
    CaseViolation,
    Corpus,
    ReproCase,
    fold_shards,
    plan_shards,
)
from repro.harness.cache import ResultStore
from repro.serve import JobRecord, load_records

FIXTURES = Path(__file__).parent / "fixtures" / "parent-payloads"

#: The campaign whose first violating shard the store entry holds.
CONFIG = CampaignConfig(
    target="log-repair-buggy",
    budget=3,
    seed=0,
    crash_recovery=2,
    faults=("corrupt",),
)


@pytest.fixture
def fixtures(tmp_path):
    """A private copy (a failed load may quarantine an entry)."""
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    return tmp_path


def built(path: Path):
    """The object the writing commit built, from its ``repr``."""
    names = {
        cls.__name__: cls
        for cls in (CaseOutcome, CaseSpec, CaseViolation, ReproCase, JobRecord)
    }
    return eval(path.read_text(), names)  # noqa: S307 - committed fixture


def test_stored_fuzz_shard_loads(fixtures):
    hits, pending = ResultStore(fixtures / "store").resolve(
        plan_shards(CONFIG)
    )
    assert list(hits) == [0] and len(pending) == 2
    [outcome] = fold_shards(CONFIG, hits.values()).outcomes
    expected = built(fixtures / "store" / "outcome.repr")
    assert outcome == replace(
        expected,
        violations=tuple(expected.violations),
        undetected=tuple(expected.undetected),
    )
    assert outcome.violations[0].crash_schedule == ()


def test_corpus_entry_loads(fixtures):
    [path] = Corpus(fixtures / "corpus").entries()
    case = Corpus(fixtures / "corpus").load(path)
    assert case == built(fixtures / "corpus" / "case.repr")
    assert path.name == f"{case.key()[:16]}{Corpus.SUFFIX}"
    text = json.dumps(case.describe(), sort_keys=True, indent=2) + "\n"
    assert text == path.read_text()


def test_journal_entry_loads(fixtures):
    [record] = load_records(fixtures / "jobs")
    assert record == built(fixtures / "jobs" / "record.repr")
    path = fixtures / "jobs" / f"{record.id}.json"
    assert json.dumps(record.to_payload(), sort_keys=True) == path.read_text()
