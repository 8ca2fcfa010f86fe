"""Unit tests for interleaving policies."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import (
    SCHEDULER_KINDS,
    ChoiceRecordingScheduler,
    Machine,
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    StridedScheduler,
    make_scheduler,
)
from repro.sim.machine import _DRAIN_BASE


class TestRoundRobin:
    def test_cycles_in_id_order(self):
        scheduler = RoundRobinScheduler()
        picks = [scheduler.pick([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_blocked_threads(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.pick([0, 2]) == 0
        assert scheduler.pick([0, 2]) == 2
        assert scheduler.pick([0, 2]) == 0

    def test_single_runnable(self):
        scheduler = RoundRobinScheduler()
        assert [scheduler.pick([3]) for _ in range(3)] == [3, 3, 3]

    def test_wraps_past_highest_id(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.pick([1, 4]) == 1
        assert scheduler.pick([1, 4]) == 4
        assert scheduler.pick([1, 4]) == 1

    def test_last_pick_leaving_runnable_set(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.pick([0, 1, 2]) == 0
        assert scheduler.pick([0, 1, 2]) == 1
        # Thread 1 blocks: the next id greater than 1 is still chosen.
        assert scheduler.pick([0, 2]) == 2
        assert scheduler.pick([0, 2]) == 0

    def test_matches_linear_scan_reference(self):
        """Pick-order regression: identical to the historical
        linear scan (smallest id greater than the previous choice, else
        the smallest runnable id) on random sorted runnable sets."""
        import random

        rng = random.Random(0)
        scheduler = RoundRobinScheduler()
        last = -1
        for _ in range(500):
            runnable = sorted(
                rng.sample(range(12), rng.randint(1, 12))
            )
            expected = next(
                (tid for tid in runnable if tid > last), runnable[0]
            )
            pick = scheduler.pick(runnable)
            assert pick == expected, (runnable, last)
            last = pick

    def test_tso_drain_agents_follow_every_thread(self):
        """On TSO the machine lists ``[0, D+0, 1, D+1, ...]``, which is
        not sorted; round-robin still takes the smallest id above its
        last pick, so each cycle runs every thread before any drain."""

        def body(ctx, base):
            for index in range(3):
                yield from ctx.store(base + 8 * index, index + 1)

        recorder = ChoiceRecordingScheduler(RoundRobinScheduler())
        machine = Machine(scheduler=recorder, consistency="tso")
        for _ in range(2):
            machine.spawn(body, machine.volatile_heap.malloc(64))
        machine.run()
        d0, d1 = _DRAIN_BASE, _DRAIN_BASE + 1
        assert recorder.choices == [0, 1] + [0, 1, d0, d1] * 3


class TestRandom:
    def test_deterministic_per_seed(self):
        a = RandomScheduler(seed=4)
        b = RandomScheduler(seed=4)
        runnable = [0, 1, 2, 3]
        assert [a.pick(runnable) for _ in range(50)] == [
            b.pick(runnable) for _ in range(50)
        ]

    def test_covers_all_threads(self):
        scheduler = RandomScheduler(seed=0)
        picks = {scheduler.pick([0, 1, 2, 3]) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_only_picks_runnable(self):
        scheduler = RandomScheduler(seed=1)
        for _ in range(100):
            assert scheduler.pick([2, 5]) in (2, 5)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_draws_exactly_as_random_choice(self, seed):
        """Pick for pick, and in the generator state it leaves behind,
        ``pick`` equals ``random.Random(seed).choice`` on the same lists
        (lengths 1-300), so every seeded schedule stays as it was."""
        lists = random.Random(1000 + seed)
        scheduler = RandomScheduler(seed=seed)
        reference = random.Random(seed)
        for _ in range(10_000):
            length = lists.randint(1, 300)
            runnable = list(range(3 * length, 4 * length))
            assert scheduler.pick(runnable) == reference.choice(runnable)
        assert scheduler._rng.getstate() == reference.getstate()


class TestStrided:
    def test_runs_stride_consecutive_ops(self):
        scheduler = StridedScheduler(stride=4, seed=0)
        picks = [scheduler.pick([0, 1]) for _ in range(8)]
        assert picks[0:4] == [picks[0]] * 4
        assert picks[4:8] == [picks[4]] * 4

    def test_switches_when_current_blocked(self):
        scheduler = StridedScheduler(stride=100, seed=0)
        first = scheduler.pick([0, 1])
        other = 1 - first
        # Current thread no longer runnable: must switch immediately.
        assert scheduler.pick([other]) == other

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            StridedScheduler(stride=0)

    def test_quantum_resets_when_thread_removed_mid_quantum(self):
        """A thread removed from ``runnable`` mid-quantum abandons its
        leftover quantum: the replacement gets a full stride, and so does
        the original thread when it is eventually re-picked."""
        scheduler = StridedScheduler(stride=4, seed=0)
        first = scheduler.pick([0, 1])
        assert scheduler.pick([0, 1]) == first  # mid-quantum (2 of 4)
        other = 1 - first
        # ``first`` blocks with two picks left; the switch must grant
        # ``other`` a full four-pick quantum, not the stale remainder.
        picks = [scheduler.pick([other]) for _ in range(4)]
        assert picks == [other] * 4
        # ``first`` is runnable again; with ``other`` exhausted the next
        # dispatch of ``first`` restarts at a full quantum too.
        resumed = [scheduler.pick([first]) for _ in range(4)]
        assert resumed == [first] * 4

    def test_interrupted_quantum_never_resumes(self):
        """After an interruption the old counter is dead: consecutive
        same-thread runs are always full quanta, never a stale leftover
        shared across picks."""
        scheduler = StridedScheduler(stride=3, seed=2)
        current = scheduler.pick([0, 1, 2])
        scheduler.pick([0, 1, 2])  # 2 of 3 consumed
        blocked_set = [tid for tid in (0, 1, 2) if tid != current]
        replacement = scheduler.pick(blocked_set)
        # Replacement's quantum is exactly stride long from its dispatch.
        assert [scheduler.pick(blocked_set) for _ in range(2)] == (
            [replacement] * 2
        )
        runs, last, length = [], None, 0
        for _ in range(60):
            pick = scheduler.pick([0, 1, 2])
            if pick == last:
                length += 1
            else:
                if last is not None:
                    runs.append(length)
                last, length = pick, 1
        # Every completed run of consecutive picks is at most one stride
        # (adjacent same-thread quanta may merge into multiples of 3).
        assert all(run % 3 == 0 or run <= 3 for run in runs)


class TestChoiceRecording:
    def test_records_inner_choices(self):
        inner = RandomScheduler(seed=9)
        recorder = ChoiceRecordingScheduler(RandomScheduler(seed=9))
        expected = [inner.pick([0, 1, 2]) for _ in range(30)]
        observed = [recorder.pick([0, 1, 2]) for _ in range(30)]
        assert observed == expected
        assert recorder.choices == expected


class TestReplay:
    def test_replays_recording_exactly(self):
        recorder = ChoiceRecordingScheduler(RandomScheduler(seed=3))
        picks = [recorder.pick([0, 1]) for _ in range(20)]
        replay = ReplayScheduler(recorder.choices)
        assert [replay.pick([0, 1]) for _ in range(20)] == picks
        assert replay.steps_replayed == 20

    def test_divergent_choice_rejected(self):
        replay = ReplayScheduler([1])
        with pytest.raises(SimulationError):
            replay.pick([0, 2])

    def test_exhausted_recording_rejected(self):
        replay = ReplayScheduler([0])
        assert replay.pick([0]) == 0
        with pytest.raises(SimulationError):
            replay.pick([0])


class TestRegistry:
    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_every_kind_constructs_and_picks(self, kind):
        scheduler = make_scheduler(kind, seed=5)
        assert scheduler.pick([0, 1, 2]) in (0, 1, 2)

    def test_same_seed_same_schedule(self):
        for kind in SCHEDULER_KINDS:
            a, b = make_scheduler(kind, seed=7), make_scheduler(kind, seed=7)
            assert [a.pick([0, 1, 2]) for _ in range(40)] == [
                b.pick([0, 1, 2]) for _ in range(40)
            ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            make_scheduler("fifo")
