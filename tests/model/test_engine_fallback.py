"""Plane-engine declines: handled inside the engines, counted once.

``run_execution(engine="wide"/"batch")`` and :func:`run_batch` are the
only two places a plane-engine decline can happen.  Each decline runs
the fast engine instead, returns the reference result, stamps
``result.engine = "fast"`` and counts exactly one
``engine_fallback_total{requested,used,reason}`` plus one
``engine.fallback`` trace event.  A decline also consumes nothing of
the schedule stream: the fast run that replaces it sees the stream
from its first step, which is what lets callers hand the same schedule
objects to the engine without re-resolving them.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.core.coloring5 import FiveColoring
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import run_batch
from repro.model.execution import run_execution
from repro.model.schedule import Schedule
from repro.model.topology import Cycle, Torus
from repro.obs.metrics import collecting
from repro.obs.monitors import ActivationBudgetMonitor
from repro.obs.trace import FlightRecorder, TraceContext, tracing, use_context
from repro.schedulers import BernoulliScheduler, SynchronousScheduler


class Subclassed(FastFiveColoring):
    """Outside exact-type kernel dispatch."""


def fallbacks(registry):
    """``engine_fallback_total`` samples as ``{(requested, used, reason): n}``."""
    entry = registry.snapshot().get("engine_fallback_total") or {"samples": []}
    return {
        (s["labels"]["requested"], s["labels"]["used"], s["labels"]["reason"]):
            s["value"]
        for s in entry["samples"]
    }


def reference(algorithm, topology, ids, schedule, **kwargs):
    return run_execution(
        algorithm, topology, ids, schedule, max_time=20_000,
        engine="reference", **kwargs,
    )


IDS = random_distinct_ids(9, seed=4)

SINGLE_RUN_DECLINES = [
    ("trace", FastFiveColoring, Cycle(9), dict(record_trace=True), "observed"),
    ("registers", FastFiveColoring, Cycle(9), dict(record_registers=True),
     "observed"),
    ("monitors", FastFiveColoring, Cycle(9),
     dict(monitors=[ActivationBudgetMonitor(100)]), "observed"),
    ("subclass", Subclassed, Cycle(9), {}, "unregistered"),
    ("torus", FastFiveColoring, Torus(3, 3), {}, "declined"),
]


@pytest.mark.parametrize("requested", ["wide", "batch"])
@pytest.mark.parametrize(
    "factory, topology, kwargs, reason",
    [case[1:] for case in SINGLE_RUN_DECLINES],
    ids=[case[0] for case in SINGLE_RUN_DECLINES],
)
def test_single_run_decline_counted_once(requested, factory, topology,
                                         kwargs, reason):
    with collecting() as registry:
        got = run_execution(
            factory(), topology, IDS, SynchronousScheduler(),
            max_time=20_000, engine=requested, **kwargs,
        )
    assert got == reference(factory(), topology, IDS, SynchronousScheduler(),
                            **kwargs)
    assert got.engine == "fast"
    assert fallbacks(registry) == {(requested, "fast", reason): 1}


def test_batch_decline_on_disagreeing_green_light_flags():
    algorithms = [FastFiveColoring(), FastFiveColoring(green_light=False)]
    inputs_list = [random_distinct_ids(9, seed=s) for s in range(2)]
    with collecting() as registry:
        results = run_batch(
            algorithms, Cycle(9), inputs_list,
            [SynchronousScheduler(), SynchronousScheduler()], max_time=20_000,
        )
    for algorithm, ids, result in zip(algorithms, inputs_list, results):
        assert result == reference(
            type(algorithm)(green_light=algorithm.green_light), Cycle(9),
            ids, SynchronousScheduler(),
        )
        assert result.engine == "fast"
    assert fallbacks(registry) == {("batch", "fast", "declined"): 1}


def test_accepted_runs_count_no_fallback():
    inputs_list = [random_distinct_ids(9, seed=s) for s in range(3)]
    with collecting() as registry:
        for engine in ("wide", "batch"):
            result = run_execution(
                FastFiveColoring(), Cycle(9), IDS, SynchronousScheduler(),
                engine=engine,
            )
            assert result.engine == engine
        results = run_batch(
            [FastFiveColoring() for _ in inputs_list], Cycle(9), inputs_list,
            [BernoulliScheduler(p=0.5, seed=s) for s in range(3)],
        )
    assert [r.engine for r in results] == ["batch"] * 3
    assert fallbacks(registry) == {}


def test_auto_decline_counts_under_auto(monkeypatch):
    """A plane engine that ``auto`` selected and whose kernel declines
    counts as requested ``auto``, not as an explicit ``wide``."""
    import repro.model.select as select
    from repro.model.batch import numpy_accelerated

    if not numpy_accelerated():
        pytest.skip("auto selects wide only with numpy")
    monkeypatch.setattr(select, "WIDE_MIN_N", 1)
    monkeypatch.setattr(select, "WIDE_MIN_STEP_OCCUPANCY", 1)
    assert select.select_engine(
        FastFiveColoring(), Torus(3, 3), SynchronousScheduler()
    ) == "wide"
    with collecting() as registry:
        got = run_execution(
            FastFiveColoring(), Torus(3, 3), IDS, SynchronousScheduler(),
            max_time=20_000, engine="auto",
        )
    assert got == reference(FastFiveColoring(), Torus(3, 3), IDS,
                            SynchronousScheduler())
    assert got.engine == "fast"
    assert fallbacks(registry) == {("auto", "fast", "declined"): 1}


def test_decline_records_a_trace_event():
    recorder = FlightRecorder(1024)
    with tracing(recorder), use_context(TraceContext.new_root()):
        run_execution(
            Subclassed(), Cycle(9), IDS, SynchronousScheduler(), engine="wide",
        )
    (event,) = [r for r in recorder.snapshot() if r.name == "engine.fallback"]
    assert event.attributes == {
        "requested": "wide", "used": "fast", "reason": "unregistered",
    }
    assert event.duration == 0.0


# ----------------------------------------------------------------------
# A decline consumes no schedule stream
# ----------------------------------------------------------------------


class CountingSchedule(Schedule):
    """A fixed step list that counts opened streams and drawn steps."""

    def __init__(self, steps):
        self.rows = [frozenset(step) for step in steps]
        self.streams = 0
        self.drawn = 0

    def steps(self, n):
        self.streams += 1
        for row in self.rows:
            self.drawn += 1
            yield row


class CountingRandom(random.Random):
    """``random.Random`` that counts every double it hands out."""

    draws = 0

    def random(self):
        CountingRandom.draws += 1
        return super().random()


#: Each decline site: (label, replica algorithm factories, run) where
#: ``run(schedules)`` returns one result per replica.
DECLINING_RUNS = [
    ("wide", [Subclassed], lambda schedules: [run_execution(
        Subclassed(), Cycle(9), IDS, schedules[0], max_time=20_000,
        engine="wide")]),
    ("batch", [Subclassed], lambda schedules: [run_execution(
        Subclassed(), Cycle(9), IDS, schedules[0], max_time=20_000,
        engine="batch")]),
    ("run_batch", [FastFiveColoring, FiveColoring], lambda schedules: run_batch(
        [FastFiveColoring(), FiveColoring()], Cycle(9),
        [IDS, IDS], schedules, max_time=20_000)),
]


def fast_runs(factories, schedules):
    return [
        run_execution(factory(), Cycle(9), IDS, schedule,
                      max_time=20_000, engine="fast")
        for factory, schedule in zip(factories, schedules)
    ]


@pytest.mark.parametrize(
    "factories, run", [case[1:] for case in DECLINING_RUNS],
    ids=[case[0] for case in DECLINING_RUNS],
)
def test_decline_consumes_no_steps(factories, run):
    def make():
        return CountingSchedule([[0, 2, 4], [1, 3], list(range(9))] * 30)

    def consumed(schedules):
        return [(s.streams, s.drawn) for s in schedules]

    want = [make() for _ in factories]
    expected = fast_runs(factories, want)
    schedules = [make() for _ in factories]
    assert run(schedules) == expected
    assert consumed(schedules) == consumed(want)


@pytest.mark.parametrize(
    "factories, run", [case[1:] for case in DECLINING_RUNS],
    ids=[case[0] for case in DECLINING_RUNS],
)
def test_decline_consumes_no_rng_draw(monkeypatch, factories, run):
    import repro.schedulers.random_async as random_async

    monkeypatch.setattr(
        random_async, "random", SimpleNamespace(Random=CountingRandom)
    )

    def make():
        return [BernoulliScheduler(p=0.4, seed=7 + i)
                for i in range(len(factories))]

    CountingRandom.draws = 0
    expected = fast_runs(factories, make())
    fast_draws = CountingRandom.draws
    assert fast_draws > 0

    schedules = make()
    before = [dict(vars(s)) for s in schedules]
    CountingRandom.draws = 0
    assert run(schedules) == expected
    assert CountingRandom.draws == fast_draws
    assert [vars(s) for s in schedules] == before
