"""``CheckConfig.validate``: bad models or domains fail before any schedule.

A check run with no models, a repeated or unknown model, or a domain
that builds no persist DAG used to be accepted and then either report a
clean target with 0 cuts checked or fail deep in the first schedule.
The config now rejects them up front, for the library, the CLI (exit 2)
and ``repro serve`` submissions.
"""

import pytest

from repro.check import CheckConfig, check_runs
from repro.cli import main
from repro.errors import ReproError, ServeError
from repro.serve import validate_spec

CHECK_SPEC = {"kind": "check", "target": "queue-cwl", "threads": 2, "ops": 1}

BAD_CONFIGS = [
    (CheckConfig(models=()), "at least one"),
    (CheckConfig(models=("epoch", "epoch")), "duplicate"),
    (CheckConfig(models=("nope",)), "unknown persistency model 'nope'"),
    (CheckConfig(graph_domain="level"), "cannot build persist DAGs"),
    (CheckConfig(graph_domain="nope"), "cannot build persist DAGs"),
]


def test_default_config_is_valid():
    CheckConfig().validate()
    CheckConfig(models=("px86", "dpox86"), graph_domain="graph").validate()


@pytest.mark.parametrize("config, message", BAD_CONFIGS)
def test_validate_rejects(config, message):
    with pytest.raises(ReproError, match=message):
        config.validate()


@pytest.mark.parametrize("config, message", BAD_CONFIGS)
def test_check_runs_rejects_before_any_schedule(config, message):
    calls = []

    def run(scheduler):
        calls.append(scheduler)
        raise AssertionError("no schedule may run")

    with pytest.raises(ReproError, match=message):
        check_runs(
            run,
            trace_of=lambda result: result,
            base_of=lambda result: result,
            checker_of=lambda result: result,
            config=config,
        )
    assert not calls


class TestCli:
    ARGS = ["check", "--target", "queue-cwl", "--no-export"]

    def test_level_domain_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--domain", "level"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'level'" in capsys.readouterr().err

    def test_duplicate_model_exits_2(self, capsys):
        code = main(self.ARGS + ["--model", "epoch", "--model", "epoch"])
        assert code == 2
        assert "duplicate persistency models" in capsys.readouterr().err


class TestServeSpec:
    def test_empty_models_rejected(self):
        with pytest.raises(ServeError, match="at least one"):
            validate_spec({**CHECK_SPEC, "models": []})

    def test_unknown_model_rejected(self):
        with pytest.raises(ServeError, match="unknown persistency model"):
            validate_spec({**CHECK_SPEC, "models": ["nope"]})

    def test_duplicate_model_rejected(self):
        with pytest.raises(ServeError, match="duplicate"):
            validate_spec({**CHECK_SPEC, "models": ["epoch", "epoch"]})

    def test_valid_models_accepted(self):
        spec = {**CHECK_SPEC, "models": ["epoch", "px86"]}
        assert validate_spec(spec) is spec
