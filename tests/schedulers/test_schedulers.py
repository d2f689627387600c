"""Unit tests for the scheduler zoo."""

import itertools

import pytest

from repro.errors import ScheduleError
from repro.schedulers import (
    AlternatingScheduler,
    BernoulliScheduler,
    BlockRoundRobinScheduler,
    BurstScheduler,
    ConcatScheduler,
    GeometricRateScheduler,
    InterleaveScheduler,
    LateWakeupScheduler,
    RoundRobinScheduler,
    SlowChainScheduler,
    SoloScheduler,
    StaggeredScheduler,
    SynchronousScheduler,
    UniformSubsetScheduler,
)


def take(schedule, n, k):
    return list(itertools.islice(schedule.steps(n), k))


class TestSynchronous:
    def test_everyone_every_step(self):
        steps = take(SynchronousScheduler(), 4, 5)
        assert all(s == frozenset(range(4)) for s in steps)

    def test_horizon(self):
        assert len(list(SynchronousScheduler(horizon=7).steps(2))) == 7


class TestRoundRobin:
    def test_rotation(self):
        steps = take(RoundRobinScheduler(), 3, 6)
        assert steps == [frozenset({i % 3}) for i in range(6)]

    def test_offset(self):
        steps = take(RoundRobinScheduler(offset=2), 3, 2)
        assert steps == [frozenset({2}), frozenset({0})]


class TestBlockRoundRobin:
    def test_blocks(self):
        steps = take(BlockRoundRobinScheduler(2), 4, 2)
        assert steps == [frozenset({0, 1}), frozenset({2, 3})]

    def test_wraps(self):
        steps = take(BlockRoundRobinScheduler(3), 4, 2)
        assert steps[1] == frozenset({3, 0, 1})

    def test_block_larger_than_n(self):
        steps = take(BlockRoundRobinScheduler(10), 3, 1)
        assert steps[0] == frozenset({0, 1, 2})

    def test_invalid(self):
        with pytest.raises(ScheduleError):
            BlockRoundRobinScheduler(0)


class TestBernoulli:
    def test_deterministic_given_seed(self):
        a = take(BernoulliScheduler(p=0.5, seed=3), 6, 20)
        b = take(BernoulliScheduler(p=0.5, seed=3), 6, 20)
        assert a == b

    def test_never_empty(self):
        steps = take(BernoulliScheduler(p=0.05, seed=1), 4, 50)
        assert all(s for s in steps)

    def test_p_one_is_synchronous(self):
        steps = take(BernoulliScheduler(p=1.0, seed=0), 3, 4)
        assert all(s == frozenset({0, 1, 2}) for s in steps)

    def test_invalid_p(self):
        with pytest.raises(ScheduleError):
            BernoulliScheduler(p=0)
        with pytest.raises(ScheduleError):
            BernoulliScheduler(p=1.5)


class TestUniformSubset:
    def test_nonempty_and_valid(self):
        for s in take(UniformSubsetScheduler(seed=4), 5, 50):
            assert s and s <= frozenset(range(5))

    def test_covers_sizes(self):
        sizes = {len(s) for s in take(UniformSubsetScheduler(seed=0), 5, 200)}
        assert sizes == {1, 2, 3, 4, 5}


class TestGeometricRate:
    def test_explicit_rates_validated(self):
        with pytest.raises(ScheduleError):
            GeometricRateScheduler(rates=[0.5, 1.5])

    def test_rate_count_checked_lazily(self):
        sched = GeometricRateScheduler(rates=[0.5])
        with pytest.raises(ScheduleError):
            take(sched, 3, 1)

    def test_slow_processes_rarely_activated(self):
        sched = GeometricRateScheduler(
            rates=[0.01, 0.99], seed=5,
        )
        steps = take(sched, 2, 300)
        slow = sum(1 for s in steps if 0 in s)
        fast = sum(1 for s in steps if 1 in s)
        assert slow < fast / 5


class TestSolo:
    def test_solo_prefix(self):
        steps = take(SoloScheduler(1, solo_steps=3), 3, 5)
        assert steps[:3] == [frozenset({1})] * 3
        assert steps[3] == frozenset({0, 1, 2})

    def test_pid_validated(self):
        with pytest.raises(ScheduleError):
            take(SoloScheduler(9, solo_steps=1), 3, 1)


class TestLateWakeup:
    def test_sleepers_absent_before_wake(self):
        sched = LateWakeupScheduler(sleepers=[0, 2], wake_time=4)
        steps = take(sched, 4, 6)
        assert steps[0] == frozenset({1, 3})
        assert steps[2] == frozenset({1, 3})
        assert steps[3] == frozenset({0, 1, 2, 3})


class TestSlowChain:
    def test_slow_only_on_multiples(self):
        sched = SlowChainScheduler(slow=[0], slowdown=3)
        steps = take(sched, 2, 6)
        assert [0 in s for s in steps] == [False, False, True, False, False, True]


class TestStaggered:
    def test_wakeup_times(self):
        steps = take(StaggeredScheduler(stagger=2), 3, 5)
        assert steps[0] == frozenset({0})
        assert steps[2] == frozenset({0, 1})
        assert steps[4] == frozenset({0, 1, 2})


class TestAlternating:
    def test_bipartition(self):
        steps = take(AlternatingScheduler(), 4, 4)
        assert steps[0] == frozenset({0, 2})
        assert steps[1] == frozenset({1, 3})
        assert steps[2] == frozenset({0, 2})


class TestComposite:
    def test_concat_phases(self):
        sched = ConcatScheduler([
            (RoundRobinScheduler(), 2),
            (SynchronousScheduler(), 2),
        ])
        steps = list(sched.steps(3))
        assert steps == [
            frozenset({0}), frozenset({1}),
            frozenset({0, 1, 2}), frozenset({0, 1, 2}),
        ]

    def test_concat_rejects_unbounded_middle(self):
        with pytest.raises(ScheduleError):
            ConcatScheduler([
                (SynchronousScheduler(), None),
                (RoundRobinScheduler(), 2),
            ])

    def test_burst(self):
        steps = take(BurstScheduler(burst=2), 2, 6)
        assert steps == [
            frozenset({0}), frozenset({0}),
            frozenset({1}), frozenset({1}),
            frozenset({0}), frozenset({0}),
        ]

    def test_burst_horizon(self):
        assert len(list(BurstScheduler(burst=3, horizon=7).steps(5))) == 7

    def test_interleave(self):
        sched = InterleaveScheduler(
            RoundRobinScheduler(horizon=2), SynchronousScheduler(horizon=2),
        )
        steps = list(sched.steps(2))
        assert steps == [
            frozenset({0}), frozenset({0, 1}),
            frozenset({1}), frozenset({0, 1}),
        ]


class TestStepsFast:
    """``steps_fast`` must replay ``steps`` exactly: same step sets in
    the same order, consuming the same RNG stream — it is the fast
    engine's view of the schedule, so any divergence here is an
    engine-equivalence bug waiting to happen."""

    CASES = [
        lambda: SynchronousScheduler(horizon=40),
        lambda: RoundRobinScheduler(offset=2, horizon=40),
        lambda: BlockRoundRobinScheduler(k=3, offset=1, horizon=40),
        lambda: BernoulliScheduler(p=0.3, seed=7, horizon=40),
        lambda: BernoulliScheduler(p=0.01, seed=5, horizon=25),  # redraw-heavy
        lambda: UniformSubsetScheduler(seed=9, horizon=40),
        lambda: GeometricRateScheduler(seed=2, horizon=40),
        lambda: SoloScheduler(pid=3, solo_steps=10, horizon=40),
        lambda: LateWakeupScheduler(sleepers=[0, 2], wake_time=12, horizon=40),
        lambda: SlowChainScheduler(slow=[1], slowdown=4, horizon=40),
        lambda: StaggeredScheduler(stagger=2, horizon=40),
        lambda: StaggeredScheduler(stagger=0, horizon=20),
        lambda: AlternatingScheduler(horizon=40),
        lambda: BurstScheduler(burst=3, horizon=40),
        lambda: ConcatScheduler(
            [(RoundRobinScheduler(), 5), (SynchronousScheduler(), 5)]
        ),
        lambda: InterleaveScheduler(
            BernoulliScheduler(p=0.4, seed=1, horizon=10),
            SynchronousScheduler(horizon=10),
        ),
    ]

    @pytest.mark.parametrize("factory", CASES)
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_matches_steps(self, factory, n):
        def collect(iterator):
            # Some (scheduler, n) pairs are invalid (e.g. a solo pid
            # outside 0..n-1); then both paths must raise the same way.
            try:
                return [frozenset(s) for s in itertools.islice(iterator, 60)]
            except ScheduleError:
                return ScheduleError

        slow = collect(factory().steps(n))
        fast = collect(factory().steps_fast(n))
        assert fast == slow

    @pytest.mark.parametrize("factory", CASES)
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_steps_wide_matches_steps(self, factory, n):
        """``steps_wide`` — the one-replica view of ``steps_batch`` that
        single plane-engine runs draw — replays ``steps`` too, whether
        its rows come as id sequences or boolean masks."""
        from repro.model.schedule import _row_to_ids

        def collect(iterator):
            try:
                return [frozenset(int(p) for p in _row_to_ids(s))
                        for s in itertools.islice(iterator, 60)]
            except ScheduleError:
                return ScheduleError

        assert collect(factory().steps_wide(n)) == collect(factory().steps(n))

    @pytest.mark.parametrize("factory", CASES)
    def test_steps_are_duplicate_free(self, factory):
        """The fast engine trusts steps_fast items to be duplicate-free
        (it counts one activation per listed process)."""
        for step in itertools.islice(factory().steps_fast(6), 60):
            listed = list(step)
            assert len(listed) == len(set(listed))

    def test_default_adapter_delegates_to_steps(self):
        """A scheduler that only implements ``steps`` still works."""
        from repro.model.schedule import FiniteSchedule

        sched = FiniteSchedule([{0, 1}, {2}])
        assert [frozenset(s) for s in sched.steps_fast(3)] == [
            frozenset({0, 1}), frozenset({2}),
        ]

    def test_bernoulli_redraw_keeps_rng_streams_synchronized(self):
        """Regression: empty-step redraws must consume the seeded RNG
        stream identically in ``steps`` and ``steps_fast``.

        With p small, most raw draws are empty and get re-drawn; if the
        two paths consumed different numbers of RNG values per redraw
        they would desynchronize after the first empty draw and emit
        different step streams for the same seed.
        """
        n, p, seed = 9, 0.02, 11  # ≈ (1-p)^n = 83% of raw draws empty
        slow = [frozenset(s) for s in itertools.islice(
            BernoulliScheduler(p=p, seed=seed).steps(n), 120)]
        fast = [frozenset(s) for s in itertools.islice(
            BernoulliScheduler(p=p, seed=seed).steps_fast(n), 120)]
        assert slow == fast
        # Sanity: the scenario actually triggered redraws (many steps,
        # all non-empty, at a rate only possible via redrawing).
        assert all(slow) and len(slow) == 120
