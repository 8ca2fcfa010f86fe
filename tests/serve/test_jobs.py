"""Tests for job specs, planning, merging, and the durable journal."""

import json

import pytest

from repro.check import CheckConfig, check_target_sharded, shard_tasks
from repro.cli import main
from repro.errors import ReproError, ServeError
from repro.fuzz.campaign import CampaignConfig, case_tasks
from repro.harness.cache import ResultStore, content_digest, shard_key
from repro.litmus import LitmusConfig, corpus_by_name, run_corpus
from repro.serve import (
    JOB_KINDS,
    JobRecord,
    execute_shard,
    job_id,
    load_records,
    merge_job,
    plan_job,
    save_record,
    validate_spec,
)

CHECK_SPEC = {"kind": "check", "target": "queue-cwl", "threads": 2, "ops": 1}
FUZZ_SPEC = {
    "kind": "fuzz",
    "target": "queue-2lc-faithful",
    "budget": 4,
    "seed": 0,
}

LITMUS_SPEC = {"kind": "litmus", "programs": ["mp-clflush"]}

PAPER_SPEC = {"kind": "paper", "inserts_per_thread": 6, "threads": [1, 2]}

MALFORMED_SPECS = [
    ({**FUZZ_SPEC, "models": ["nosuch"]}, "unknown persistency model 'nosuch'"),
    ({**CHECK_SPEC, "models": ["nosuch"]}, "unknown persistency model 'nosuch'"),
    ({**LITMUS_SPEC, "models": ["nosuch"]}, "unknown persistency model 'nosuch'"),
    ({**FUZZ_SPEC, "models": "epoch"}, "'models' must be a list"),
    ({**CHECK_SPEC, "models": "epoch"}, "'models' must be a list"),
    ({**LITMUS_SPEC, "models": "epoch"}, "'models' must be a list"),
    ({**LITMUS_SPEC, "domains": ["level"]}, "unknown dependency domain 'level'"),
    ({**LITMUS_SPEC, "domains": "bitset"}, "'domains' must be a list"),
    ({**LITMUS_SPEC, "programs": "mp-clflush"}, "'programs' must be a list"),
    ({**CHECK_SPEC, "stop_at_first": "false"}, "'stop_at_first' must be a boolean"),
    ({**CHECK_SPEC, "stop_at_first": 0}, "'stop_at_first' must be a boolean"),
    ({**CHECK_SPEC, "max_schedules": "abc"}, "'max_schedules' must be an integer"),
    ({**LITMUS_SPEC, "max_schedules": "abc"}, "'max_schedules' must be an integer"),
    ({**LITMUS_SPEC, "cut_limit": 1.5}, "'cut_limit' must be an integer"),
    ({**FUZZ_SPEC, "budget": "abc"}, "'budget' must be an integer"),
    ({**FUZZ_SPEC, "seed": "0"}, "'seed' must be an integer"),
    ({**FUZZ_SPEC, "crash_recovery": True}, "'crash_recovery' must be an integer"),
    ({**FUZZ_SPEC, "batch": "x"}, "'batch' must be an integer"),
    ({**CHECK_SPEC, "threads": 2.0}, "'threads' must be an integer"),
    ({**CHECK_SPEC, "threads": "x"}, "'threads' must be an integer"),
    ({**CHECK_SPEC, "oracle": "nope"}, "unknown oracle 'nope'"),
    ({**CHECK_SPEC, "target": "ext4"}, "unknown fuzz target 'ext4'"),
    # Not shardable, so not a check job key.
    ({**CHECK_SPEC, "reduction": "none"}, "unknown key.*reduction"),
    ({**CHECK_SPEC, "prefix": [0]}, "unknown key.*prefix"),
    # A paper job sets what `repro table1` sets, and only sensible sizes.
    ({**PAPER_SPEC, "inserts_per_thread": 0},
     "invalid paper job spec: inserts_per_thread must be positive"),
    ({**PAPER_SPEC, "inserts_per_thread": -3},
     "invalid paper job spec: inserts_per_thread must be positive"),
    ({**PAPER_SPEC, "threads": [1, 0]},
     "invalid paper job spec: thread counts must be positive"),
    ({**PAPER_SPEC, "threads": []},
     "invalid paper job spec: thread counts must be positive"),
    ({**PAPER_SPEC, "threads": 2}, "'threads' must be a list"),
    ({**PAPER_SPEC, "base_seed": 1.5}, "'base_seed' must be an integer"),
    ({**PAPER_SPEC, "entry_size": 48}, "unknown key.*entry_size"),
    ({**PAPER_SPEC, "lock_kind": "ticket"}, "unknown key.*lock_kind"),
    ({**PAPER_SPEC, "clock_hz": 1e9}, "unknown key.*clock_hz"),
]


class TestValidateSpec:
    def test_valid_specs_pass_through(self):
        assert validate_spec(CHECK_SPEC) is CHECK_SPEC
        assert validate_spec(FUZZ_SPEC) is FUZZ_SPEC
        assert validate_spec({"kind": "litmus", "programs": ["mp-clflush"]})

    def test_non_object_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            validate_spec(["check"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            validate_spec({"kind": "race"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServeError, match="wibble"):
            validate_spec({**CHECK_SPEC, "wibble": 1})

    def test_missing_target_rejected(self):
        with pytest.raises(ServeError, match="missing 'target'"):
            validate_spec({"kind": "fuzz"})
        with pytest.raises(ServeError, match="missing"):
            validate_spec({"kind": "check", "target": "queue-cwl"})

    def test_engine_rejections_become_serve_errors(self):
        with pytest.raises(ServeError, match="invalid fuzz job spec"):
            validate_spec({"kind": "fuzz", "target": "no-such-target"})

    def test_unknown_litmus_program_rejected(self):
        with pytest.raises(ServeError, match="unknown litmus program"):
            validate_spec({"kind": "litmus", "programs": ["nope"]})

    def test_bad_batch_rejected(self):
        with pytest.raises(ServeError, match="batch"):
            validate_spec({**FUZZ_SPEC, "batch": 0})

    @pytest.mark.parametrize("spec, message", MALFORMED_SPECS)
    def test_malformed_spec_rejected_at_submit(self, spec, message):
        # Everything the engines would reject at run time fails the
        # submit instead, as a ServeError naming the key.
        with pytest.raises(ServeError, match=message):
            validate_spec(spec)


class TestPlanJob:
    def test_check_plan_matches_shard_tasks(self):
        planned = plan_job(CHECK_SPEC)
        direct = shard_tasks("queue-cwl", 2, 1, CheckConfig(), shard_depth=2)
        for task in direct:
            task["kind"] = "check"
        assert planned == direct

    def test_fuzz_plan_batches_case_tasks_in_order(self):
        config = CampaignConfig(
            target="queue-2lc-faithful", budget=4, seed=0
        )
        cases = case_tasks(config)
        singles = plan_job(FUZZ_SPEC)
        assert [task["cases"] for task in singles] == [[c] for c in cases]
        pairs = plan_job({**FUZZ_SPEC, "batch": 3})
        assert [task["cases"] for task in pairs] == [cases[:3], cases[3:]]

    def test_litmus_plan_is_one_shard_per_program(self):
        planned = plan_job(
            {
                "kind": "litmus",
                "programs": ["mp-clflush", "sb-mfence"],
                "models": ["epoch"],
            }
        )
        assert [task["program"] for task in planned] == [
            "mp-clflush",
            "sb-mfence",
        ]
        assert all(task["kind"] == "litmus" for task in planned)

    def test_plans_are_deterministic(self):
        assert plan_job(FUZZ_SPEC) == plan_job(dict(FUZZ_SPEC))


class TestMergeJob:
    def test_check_merge_matches_sharded_cli_path(self):
        payloads = [execute_shard(task) for task in plan_job(CHECK_SPEC)]
        summary = merge_job(CHECK_SPEC, payloads)
        result, reports = check_target_sharded(
            "queue-cwl", 2, 1, CheckConfig(), jobs=1, shard_depth=2
        )
        assert summary["violations"] == len(result.distinct)
        assert summary["schedules"] == result.stats.schedules
        assert summary["cuts_checked"] == result.stats.cuts_checked
        assert summary["shards"] == len(reports)

    def test_check_merge_surfaces_overrun_failures(self):
        spec = {**CHECK_SPEC, "max_schedules": 1}
        payloads = [execute_shard(task) for task in plan_job(spec)]
        assert any(p["error"] for p in payloads)
        with pytest.raises(ReproError, match="shard"):
            merge_job(spec, payloads)

    def test_fuzz_merge_counts_cases_in_order(self):
        payloads = [execute_shard(task) for task in plan_job(FUZZ_SPEC)]
        summary = merge_job(FUZZ_SPEC, list(reversed(payloads)))
        assert summary["cases"] == 4
        assert summary["violations"] >= 0
        assert "fuzz campaign" in summary["text"]

    def test_litmus_merge_aggregates_reports(self):
        spec = {
            "kind": "litmus",
            "programs": ["mp-clflush"],
            "models": ["strict", "epoch"],
        }
        payloads = [execute_shard(task) for task in plan_job(spec)]
        summary = merge_job(spec, payloads)
        assert summary["programs"] == 1
        assert summary["violations"] == 0  # no domain mismatches
        assert summary["schedules"] > 0

    def test_litmus_merge_matches_corpus_summary_under_truncation(self):
        spec = {"kind": "litmus", "programs": ["mp-clflush"], "cut_limit": 1}
        payloads = [execute_shard(task) for task in plan_job(spec)]
        summary = merge_job(spec, payloads)
        corpus = run_corpus(
            [corpus_by_name()["mp-clflush"]], LitmusConfig(cut_limit=1)
        )["summary"]
        assert {key: summary[key] for key in corpus} == corpus
        assert summary["cut_limit_exceeded"] >= 1
        assert "lower bounds" in summary["text"]


#: One small spec per registered job kind: registering a kind means
#: adding its spec here, and the test below then runs it end to end.
SMALL_SPECS = {
    "check": {"kind": "check", "target": "publish-pair", "threads": 2,
              "ops": 1, "shard_depth": 1},
    "fuzz": {"kind": "fuzz", "target": "minifs", "budget": 2, "seed": 0},
    "litmus": {"kind": "litmus", "programs": ["mp-clflush"],
               "models": ["epoch"]},
    "paper": {"kind": "paper", "inserts_per_thread": 2, "threads": [1]},
}


class TestJobKinds:
    @pytest.mark.parametrize("name", sorted(JOB_KINDS))
    def test_registered_kind_runs_a_small_job(self, name):
        """validate -> plan -> execute every shard -> merge, with tasks,
        payloads and summary crossing JSON as they do in the daemon."""
        spec = SMALL_SPECS[name]
        assert validate_spec(spec) is spec
        tasks = json.loads(json.dumps(plan_job(spec)))
        assert tasks and all(task["kind"] == name for task in tasks)
        payloads = [
            json.loads(json.dumps(execute_shard(task))) for task in tasks
        ]
        summary = merge_job(spec, payloads)
        assert json.loads(json.dumps(summary))["kind"] == name
        assert isinstance(summary["text"], str) and summary["text"]
        assert isinstance(summary["violations"], int)
        assert summary["violations"] >= 0


#: A finished job with every field off its default.
FULL_RECORD = JobRecord(
    id=job_id("bob", 4, CHECK_SPEC),
    tenant="bob",
    seq=4,
    spec=CHECK_SPEC,
    state="failed",
    shards_total=4,
    shards_done=3,
    store_hits=2,
    store_misses=1,
    violations=1,
    summary={"kind": "check", "violations": 1, "stats": {"schedules": 9}},
    error="1 shard(s) failed",
    submitted_at=1760000000.25,
    started_at=1760000001.5,
    finished_at=1760000004.75,
)


class TestJobRecord:
    def test_payload_roundtrip(self):
        record = JobRecord(
            id=job_id("alice", 0, CHECK_SPEC),
            tenant="alice",
            seq=0,
            spec=CHECK_SPEC,
        )
        for record in (record, FULL_RECORD):
            rebuilt = JobRecord.from_payload(
                json.loads(json.dumps(record.to_payload()))
            )
            assert rebuilt == record

    @pytest.mark.parametrize(
        "key, value",
        [("shards_done", "1"), ("state", "paused"), ("summary", [1])],
    )
    def test_malformed_field_names_the_key(self, key, value):
        payload = {**FULL_RECORD.to_payload(), key: value}
        with pytest.raises(ServeError, match=f"'{key}'"):
            JobRecord.from_payload(payload)

    def test_digest_guard_rejects_edited_spec(self):
        record = JobRecord(
            id=job_id("alice", 0, CHECK_SPEC),
            tenant="alice",
            seq=0,
            spec=CHECK_SPEC,
        )
        payload = record.to_payload()
        payload["spec"] = {**CHECK_SPEC, "ops": 99}
        with pytest.raises(ServeError, match="digest mismatch"):
            JobRecord.from_payload(payload)

    def test_journal_roundtrip_and_corrupt_entry_skipped(self, tmp_path):
        good = JobRecord(
            id=job_id("alice", 0, CHECK_SPEC),
            tenant="alice",
            seq=0,
            spec=CHECK_SPEC,
        )
        save_record(tmp_path, good)
        (tmp_path / "deadbeef.json").write_text("{not json")
        tampered = JobRecord(
            id=job_id("bob", 1, FUZZ_SPEC),
            tenant="bob",
            seq=1,
            spec=FUZZ_SPEC,
        )
        save_record(tmp_path, tampered)
        payload = json.loads((tmp_path / f"{tampered.id}.json").read_text())
        payload["tenant"] = "mallory"
        (tmp_path / f"{tampered.id}.json").write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning):
            records = load_records(tmp_path)
        assert records == [good]

    def test_eta_projects_from_throughput(self):
        record = JobRecord(id="x" * 16, tenant="t", seq=0, spec=CHECK_SPEC)
        assert record.eta_seconds() is None  # not started
        record.state = "running"
        record.started_at = record.submitted_at - 10
        record.shards_total = 4
        record.shards_done = 2
        eta = record.eta_seconds()
        assert eta is not None and eta > 0


# -- plan pins ----------------------------------------------------------------
#
# sha256 of each spec's ``plan_job`` task list (canonical JSON, the
# encoding ``shard_key`` digests), recorded before the spec codec
# replaced the hand-kept key sets.  Equal digests mean every task dict,
# and so every shard's store key, is unchanged.

PINNED_PLAN_SPECS = {
    "ci-check": {"kind": "check", "target": "queue-cwl", "threads": 2,
                 "ops": 1},
    "ci-fuzz": {"kind": "fuzz", "target": "queue-2lc-faithful",
                "budget": 8, "seed": 0},
    "ci-resume": {"kind": "fuzz", "target": "queue-2lc-faithful",
                  "budget": 256, "seed": 1},
    "doc-check": {"kind": "check", "target": "queue-cwl", "threads": 2,
                  "ops": 1, "models": ["epoch", "strand"],
                  "max_schedules": 20000, "max_cuts": 200000,
                  "stop_at_first": False, "oracle": "invariant",
                  "shard_depth": 2},
    "doc-fuzz": {"kind": "fuzz", "target": "queue-2lc-faithful",
                 "budget": 200, "seed": 0, "models": ["epoch", "strand"],
                 "schedulers": ["random"], "cut_samples": 32, "faults": [],
                 "oracle": "invariant", "crash_recovery": 0, "batch": 1},
    "doc-litmus": {"kind": "litmus", "programs": ["mp-clflush", "sb-mfence"],
                   "models": ["strict", "epoch", "strand", "px86", "dpox86"],
                   "domains": ["bitset"], "max_schedules": 20000,
                   "cut_limit": 50000},
    "fuzz-faults": {"kind": "fuzz", "target": "queue-2lc", "budget": 7,
                    "seed": 3, "faults": ["torn", "corrupt"],
                    "crash_recovery": 1, "batch": 3},
    "fuzz-oracle": {"kind": "fuzz", "target": "queue-2lc", "budget": 7,
                    "seed": 3, "oracle": "dl", "crash_recovery": 1,
                    "batch": 3},
    "litmus-default": {"kind": "litmus"},
    "paper-default": {"kind": "paper"},
    "paper-small": PAPER_SPEC,
}

PINNED_PLAN_SHA256 = {
    "ci-check": "65dfcf61f6909fabb2354936754677d87593feb87584a51024dfda1511234450",
    "ci-fuzz": "d2f47a5133bad8eb9d19a50efbf8b3c17f7600faf0f7b74d7149b14dc5523c2f",
    "ci-resume": "4c8ab750e61bd26bc80d53cde24f511264b85dc167d814e3eb21bccbd138312e",
    "doc-check": "b1ac3035c60c0774c6166815455ed147de5b25b4fbe5609ab629afb20d770f1c",
    "doc-fuzz": "c84d550b7666e893b82f17d79742bad80aa585dae9db5f3b534a51ba7392e2ef",
    "doc-litmus": "dd67063a5fea209939ce740f534dffa25e21d56aead3080a9a894ab57dc62eba",
    "fuzz-faults": "b30af90fea2ccd0b177ea2d2602b26ace7205525ce56a68401b6f132dd28d3cb",
    "fuzz-oracle": "820b9743f6aa4e52f907c84bb57444bcd4ffdef379b4ba5d81439c1f7407d3fa",
    "litmus-default": "e8ac0725da1dfbda2ac3345e3d69045c31b80d44b999ba565a54df628178f166",
    # Digests of plan_variants(ExperimentRunner(inserts_per_thread=125 or
    # 6, base_seed=1), table1_cells((1, 8) or (1, 2))) before the paper
    # job existed: a paper job plans the very shards `repro table1` does.
    "paper-default": "dfc1aa989c49917da8988840b292c91921519b9bfd75ec0ceb229c8b4d400f37",
    "paper-small": "83c2847f6a0b7a26d0b9ff5b8c076688f46dc1f6773ff558d2953689772c6963",
}


def plan_digest(spec):
    import hashlib

    canonical = json.dumps(plan_job(spec), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestPlanPins:
    @pytest.mark.parametrize("name", sorted(PINNED_PLAN_SPECS))
    def test_plan_is_byte_identical_to_the_pin(self, name):
        spec = PINNED_PLAN_SPECS[name]
        assert validate_spec(spec) is spec
        assert plan_digest(spec) == PINNED_PLAN_SHA256[name]


class TestPaperJob:
    """A paper job computes, shard for shard, what `repro table1` does."""

    @pytest.mark.parametrize(
        "spec, flags",
        [
            (PAPER_SPEC, ["--inserts", "6", "--threads", "1", "2"]),
            # No keys means no flags: one set of defaults.
            ({"kind": "paper"}, []),
        ],
    )
    def test_merge_prints_repro_table1(self, tmp_path, capsys, spec, flags):
        store = ResultStore(tmp_path / "store")
        assert main(["table1", *flags, "--cache-dir", str(store.root)]) == 0
        printed = capsys.readouterr().out
        tasks = plan_job(spec)
        hits, pending = store.resolve(tasks)
        assert not pending  # the CLI stored every shard the job plans
        summary = merge_job(spec, [hits[i] for i in range(len(tasks))])
        assert summary["text"] + "\n" == printed
        assert (summary["kind"], summary["violations"]) == ("paper", 0)

    def test_daemon_shards_are_the_stored_bytes(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["table1", "--inserts", "6", "--threads", "1", "2",
                     "--cache-dir", str(root)]) == 0
        for task in plan_job(PAPER_SPEC):
            entry = json.loads(ResultStore(root).path_for(shard_key(task))
                               .read_text())
            payload = execute_shard(task)
            assert payload == entry["payload"]
            assert content_digest(payload) == entry["sha256"]
