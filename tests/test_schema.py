"""The schema codec: one field description drives specs, tasks and flags."""

import pytest

from repro.check import CheckConfig, shard_tasks
from repro.cli import build_parser
from repro.errors import ReproError
from repro.fuzz import CampaignConfig
from repro.harness import ExperimentRunner
from repro.litmus import LitmusConfig
from repro.schema import (
    Option,
    decode,
    encode,
    from_args,
    options,
    options_of,
)
from repro.serve import JOB_CONFIGS, JOB_KEYS


class TestParse:
    @pytest.mark.parametrize(
        "option, value, expected",
        [
            (Option(int), 3, 3),
            (Option(float), 2, 2),
            (Option(float), 0.5, 0.5),
            (Option(bool), False, False),
            (Option(int, optional=True), None, None),
            (Option(int, many=True), [1, 2], (1, 2)),
            (Option(int, many=2), [[1], []], ((1,), ())),
            (Option(int, keyed=True), {"dl": 2}, {"dl": 2}),
            (Option(object, keyed=True), {"a": [1, "b"]}, {"a": [1, "b"]}),
        ],
    )
    def test_accepts_well_typed_values(self, option, value, expected):
        assert option.parse(value) == expected

    def test_float_field_reads_an_integral_number_as_a_float(self):
        assert type(Option(float).parse(2)) is float

    @pytest.mark.parametrize(
        "option, value, message",
        [
            (Option(int), True, "an integer"),
            (Option(int), 2.0, "an integer"),
            (Option(int), "2", "an integer"),
            (Option(bool), 1, "a boolean"),
            (Option(bool), "false", "a boolean"),
            (Option(float), True, "a number"),
            (Option(int), None, "an integer"),
            (Option(many=True), "abc", "a list of strings"),
            (Option(many=True), ["a", 1], "a string"),
            (Option(choices=("a", "b"), noun="letter"), "c", "unknown letter"),
            (Option(int, many=2), [[1, 2.0]], "an integer"),
            (Option(int, many=2), [1], "a list of integers"),
            (Option(int, keyed=True), {"dl": "2"}, "an integer"),
            (Option(int, keyed=True), [2], "an object of integers"),
            (Option(object, keyed=True), "x", "an object of values"),
        ],
    )
    def test_rejects_malformed_values(self, option, value, message):
        bound = options_of(field=option)["field"]
        with pytest.raises(ReproError, match=message) as info:
            bound.parse(value)
        assert "'field'" in str(info.value)


class TestCodec:
    def test_unknown_and_missing_keys(self):
        with pytest.raises(ReproError, match="unknown key.*wibble"):
            decode(LitmusConfig, {"wibble": 1})
        with pytest.raises(ReproError, match="missing 'target'"):
            decode(CampaignConfig, {"budget": 3})

    def test_decode_validates(self):
        with pytest.raises(ReproError, match="duplicate"):
            decode(LitmusConfig, {"models": ["epoch", "epoch"]})

    @pytest.mark.parametrize(
        "config",
        [
            CheckConfig(models=("px86",), max_schedules=None, oracle="dl"),
            CampaignConfig(target="kv", budget=5, schedulers=("random",)),
            LitmusConfig(models=("epoch",), domains=("bitset", "graph")),
        ],
    )
    def test_encode_decode_round_trip(self, config):
        assert decode(type(config), encode(config)) == config

    def test_extra_keys_belong_to_the_caller(self):
        spec = {**encode(CheckConfig()), "target": "kv", "prefix": [0]}
        config = decode(CheckConfig, spec, extra=("target", "prefix"),
                        forced_prefix=(0,))
        assert config.forced_prefix == (0,)


class TestShardable:
    NOT_SHARDABLE = {"reduction", "forced_prefix", "replay", "graph_domain"}

    def test_marked_fields_have_no_spec_key(self):
        marked = {n for n, o in options(CheckConfig).items() if not o.shardable}
        assert marked == self.NOT_SHARDABLE
        keys = set(encode(CheckConfig()))
        assert keys == {"models", "max_schedules", "max_cuts",
                        "stop_at_first", "oracle"}

    @pytest.mark.parametrize(
        "field, value",
        [("reduction", "none"), ("replay", "reexecute"),
         ("graph_domain", "graph"), ("forced_prefix", (0,))],
    )
    def test_sharding_rejects_marked_fields_off_default(self, field, value):
        config = CheckConfig(**{field: value})
        with pytest.raises(ReproError, match="not supported with --jobs"):
            shard_tasks("counter", 2, 1, config, shard_depth=1)


class TestSettable:
    """Fields no job sets still travel in the tasks built from a config."""

    def test_no_spec_key_and_no_flag(self):
        opts = options(ExperimentRunner)
        assert {n: o.key for n, o in opts.items()} == {
            "inserts_per_thread": "inserts_per_thread",
            "entry_size": None,
            "lock_kind": None,
            "base_seed": "base_seed",
        }
        assert [o.flag for o in opts.values()] == [
            "--inserts", None, None, "--seed"
        ]

    def test_tasks_carry_them(self):
        runner = ExperimentRunner(
            inserts_per_thread=6, entry_size=48, lock_kind="ticket"
        )
        task = encode(runner)
        assert task == {"inserts_per_thread": 6, "entry_size": 48,
                        "lock_kind": "ticket", "base_seed": 1}
        with pytest.raises(ReproError, match="unknown key.*entry_size"):
            decode(ExperimentRunner, task)
        assert encode(decode(ExperimentRunner, task, task=True)) == task


class TestArguments:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_crashrec_overrides_shared_campaign_fields(self):
        args = self.parse(["crashrec", "--target", "queue-2lc"])
        assert (args.depth, args.budget, args.cut_samples) == (2, 50, 16)
        args = self.parse(["fuzz", "run", "--target", "queue-2lc"])
        assert (args.crash_recovery, args.budget, args.cut_samples) == (
            0, 200, 32
        )

    def test_from_args_reads_the_config_back(self):
        config = from_args(self.parse(
            ["crashrec", "--target", "queue-2lc", "--depth", "1",
             "--models", "epoch"]
        ))
        assert (config.crash_recovery, config.models) == (1, ("epoch",))
        config = from_args(self.parse(["litmus", "run", "--domain", "graph"]))
        assert config.domains == ("graph",)
        config = from_args(self.parse(["check", "--target", "kv"]))
        assert config == CheckConfig()

    def test_table1_defaults_are_the_paper_job_defaults(self):
        args = self.parse(["table1"])
        assert encode(from_args(args)) == encode(
            decode(ExperimentRunner, {})
        )
        assert tuple(args.threads) == JOB_KEYS["paper"]["threads"].default

    def test_unset_list_flags_keep_config_defaults(self):
        config = from_args(self.parse(["fuzz", "run", "--target", "kv"]))
        assert config.describe() == CampaignConfig(target="kv").describe()


def test_every_job_kind_has_a_config_and_job_keys():
    assert set(JOB_CONFIGS) == set(JOB_KEYS) == {
        "check", "fuzz", "litmus", "paper"
    }
    for kind, config in JOB_CONFIGS.items():
        overlap = set(JOB_KEYS[kind]) & {
            o.key for o in options(config).values()
        }
        assert not overlap, (kind, overlap)
