"""The memoized minifs judge against a memo-free one, in lockstep.

Recovery verifies file checksums through a bounded content-keyed memo
(``minifs._memo_checksum``).  Every image of four minifs campaigns is
judged twice, by the production ``recover``/``recover_report`` and
again with the memo replaced by the per-byte reference ``checksum``;
both judges must return the same files, or raise the same exception.
"""

import pytest

from repro.core.recovery import FailureInjector
from repro.fuzz.campaign import (
    CampaignConfig,
    execute_spec,
    iter_case_images,
    sample_specs,
)
from repro.structures import minifs


def _outcome(judge, image):
    """What ``judge(image)`` returned, or the type and text it raised."""
    try:
        return judge(image)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


def _campaign_images(target, seed):
    """(filesystem, image) for every cut image of a budget-40 campaign."""
    config = CampaignConfig(target=target, budget=40, seed=seed)
    for spec in sample_specs(config):
        execution = execute_spec(spec)
        # The target's repair planner is a bound MiniFs method.
        fs = execution.run.repair.__self__
        injector = FailureInjector(execution.graph, execution.run.base_image)
        for _cut, image in iter_case_images(spec, injector):
            yield fs, image


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize("target", ["minifs", "minifs-racy"])
def test_memo_free_judge_agrees(monkeypatch, target, seed):
    images = torn = 0
    for fs, image in _campaign_images(target, seed):
        production = [
            _outcome(fs.recover, image),
            _outcome(fs.recover_report, image),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(minifs, "_memo_checksum", minifs.checksum)
            reference = [
                _outcome(fs.recover, image),
                _outcome(fs.recover_report, image),
            ]
        assert production == reference
        images += 1
        torn += "failed its checksum" in repr(production)
    assert images > 1000
    if target == "minifs-racy":
        assert torn > 0
    info = minifs._memo_checksum.cache_info()
    assert info.currsize <= info.maxsize == minifs.CHECKSUM_MEMO_SIZE
