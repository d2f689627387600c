"""Generated stream equivalence: the adapters replay ``steps``.

``Schedule.steps_fast`` is the id stream the scalar kernels iterate.
For a scheduler that declares a vectorized ``steps_batch`` it is drawn
from that stream (Bernoulli masks from the ``MTBatch`` bank, the
synchronous ``range``) once ``n`` reaches ``VECTOR_STREAM_MIN_N``;
otherwise it is ``steps`` itself.  ``Schedule.steps_wide`` yields the
vectorized rows at every ``n``.  Hypothesis draws the family, ``n``
(small, or just past the threshold) and the horizon and checks, step
by step, that both adapters equal ``steps`` and that every scalar step
is duplicate-free — in the numpy tier and with the accelerator
disabled.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.batch import NUMPY_ENV_FLAG
from repro.model.faults import CrashPlan
from repro.model.schedule import VECTOR_STREAM_MIN_N, _row_to_ids
from repro.schedulers import (
    BernoulliScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
    UniformSubsetScheduler,
)

#: Activation probabilities: redraw-heavy (most raw draws of a small
#: ring come out empty and are redrawn), moderate, and exactly 1.
PROBABILITIES = st.one_of(
    st.floats(0.01, 0.05), st.floats(0.05, 1.0), st.just(1.0),
)


@st.composite
def schedule_factories(draw, n):
    """A zero-argument factory for one drawn schedule over ``n``
    processes; each call builds a fresh, identically seeded instance."""
    family = draw(st.sampled_from(
        ["sync", "bernoulli", "subset", "round-robin", "crash-bernoulli"]
    ))
    horizon = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "sync":
        return lambda: SynchronousScheduler(horizon=horizon)
    if family == "subset":
        return lambda: UniformSubsetScheduler(seed=seed, horizon=horizon)
    if family == "round-robin":
        offset = draw(st.integers(0, 2 * n))
        return lambda: RoundRobinScheduler(offset=offset, horizon=horizon)
    p = draw(PROBABILITIES)
    if family == "bernoulli":
        return lambda: BernoulliScheduler(p=p, seed=seed, horizon=horizon)
    pids = st.integers(0, n - 1)
    crash_times = draw(st.dictionaries(pids, st.integers(1, 80), max_size=3))
    crash_after = draw(st.dictionaries(pids, st.integers(0, 10), max_size=3))
    return lambda: CrashPlan(
        BernoulliScheduler(p=p, seed=seed, horizon=horizon),
        crash_times=crash_times, crash_after=crash_after,
    )


@pytest.mark.parametrize("tier", ["numpy", "pure"])
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_steps_fast_replays_steps(tier, monkeypatch, data):
    if tier == "pure":
        monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    else:
        monkeypatch.delenv(NUMPY_ENV_FLAG, raising=False)
    n = data.draw(st.one_of(
        st.integers(1, 64),
        st.integers(VECTOR_STREAM_MIN_N, VECTOR_STREAM_MIN_N + 64),
    ), label="n")
    factory = data.draw(schedule_factories(n), label="schedule")
    expected = list(factory().steps(n))
    fast = list(factory().steps_fast(n))
    for t, step in enumerate(fast, start=1):
        ids = list(step)
        assert len(ids) == len(set(ids)), f"step {t} lists a process twice"
        assert t <= len(expected) and frozenset(ids) == expected[t - 1], (
            f"steps_fast diverged at step {t}"
        )
    assert len(fast) == len(expected)
    wide = [frozenset(_row_to_ids(row)) for row in factory().steps_wide(n)]
    assert wide == expected, "steps_wide diverged"
