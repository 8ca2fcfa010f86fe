"""docs/service.md stays in step with the job-spec schema.

Every JSON job spec the page shows must pass ``validate_spec``, and the
"Accepted keys" line of each kind must list exactly the keys the schema
accepts: the kind's engine-config spec keys plus its job-level keys.
"""

import json
import re
from pathlib import Path

import pytest

from repro.schema import options
from repro.serve import JOB_KINDS, validate_spec

DOC = (Path(__file__).resolve().parents[2] / "docs" / "service.md").read_text(
    encoding="utf-8"
)


def schema_keys(kind):
    job_kind = JOB_KINDS[kind]
    config_keys = {
        opt.key for opt in options(job_kind.config).values() if opt.key
    }
    return config_keys | set(job_kind.keys)


def documented_keys(kind):
    """The backticked names of the kind's "Accepted keys:" paragraph."""
    section = DOC.split(f"**`{kind}`**", 1)[1]
    paragraph = section.split("Accepted keys:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(\w+)`", paragraph))


def json_examples():
    return [
        json.loads(block)
        for block in re.findall(r"```json\n(.*?)```", DOC, flags=re.S)
    ]


def test_every_json_example_is_a_valid_spec():
    examples = json_examples()
    assert {spec["kind"] for spec in examples} == set(JOB_KINDS)
    for spec in examples:
        assert validate_spec(spec) is spec


@pytest.mark.parametrize("kind", JOB_KINDS)
def test_documented_keys_match_the_schema(kind):
    assert documented_keys(kind) == schema_keys(kind)


@pytest.mark.parametrize("kind", JOB_KINDS)
def test_each_example_uses_only_accepted_keys(kind):
    (example,) = [spec for spec in json_examples() if spec["kind"] == kind]
    assert set(example) - {"kind"} <= schema_keys(kind)
