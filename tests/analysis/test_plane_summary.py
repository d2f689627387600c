"""The array branch of :func:`repro.analysis.verify.summarize`.

A plane-engine result (batch or wide) whose mappings are still lazy is
verified and counted on its plane rows; every other result, and every
plane result with a violation or cut by ``max_time``, takes the dict
path.  Each test runs one batch twice: the first run's results stay
lazy (array branch), the second's are materialized into plain dicts
(dict path).  Every consumer's view must agree, in field values and in
key order, and byte for byte once formatted.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.analysis.inputs import random_distinct_ids
from repro.analysis.verify import summarize, verify_execution
from repro.campaign.registry import resolve_algorithm, resolve_palette
from repro.campaign.worker import task_result_from_execution
from repro.model.batch import numpy_accelerated, run_batch
from repro.model.faults import crash_after_activations
from repro.model.schedule import FiniteSchedule
from repro.model.topology import Cycle, Path
from repro.obs.metrics import MetricsRegistry, record_execution
from repro.schedulers import (
    BernoulliScheduler,
    SynchronousScheduler,
    UniformSubsetScheduler,
)
from repro.service.schema import ColorRequest, ColorResponse

pytestmark = pytest.mark.skipif(
    not numpy_accelerated(), reason="plane rows exist on the numpy tier only"
)

ALGORITHMS = ("alg1", "alg2", "fast5", "fast6")
TOPOLOGIES = {"cycle": Cycle, "path": Path}
SCHEDULES = {
    "bernoulli": lambda s: BernoulliScheduler(p=0.4, seed=s),
    "subset": lambda s: UniformSubsetScheduler(seed=s),
    "sync": lambda s: SynchronousScheduler(),
}
MAPPINGS = ("outputs", "activations", "return_times", "final_states")


def run(algorithm, topology, seeds, schedule, max_time=100_000):
    """One batch; a run whose working set stays empty for 50 steps
    (only crashed processes left) stops."""
    n = topology.n
    return run_batch(
        [resolve_algorithm(algorithm)() for _ in seeds], topology,
        [random_distinct_ids(n, seed=s) for s in seeds],
        [schedule(s) for s in seeds], max_time=max_time, idle_limit=50,
    )


def materialized(result):
    """The result with plain-dict mappings: the dict path's input."""
    return dataclasses.replace(
        result, **{name: dict(getattr(result, name)) for name in MAPPINGS}
    )


def is_lazy(result):
    return all(getattr(result, name)._states is None for name in MAPPINGS)


def views(algorithm, topology_name, topology, result):
    """Every consumer's view of one result, key order included."""
    palette = resolve_palette(algorithm)
    summary = summarize(topology, result, palette)
    fields = {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in vars(summary).items()
    }
    types = {name: type(value) for name, value in vars(summary).items()}
    request = ColorRequest.build(
        algorithm, topology.n, topology=topology_name, schedule="sync"
    )
    row = task_result_from_execution(
        request.task_spec("batch"), topology, result, palette, 0.0
    ).to_dict()
    response = ColorResponse.from_execution(
        request, result, engine="batch", topology=topology
    )
    return fields, types, json.dumps(row), json.dumps(response.to_dict())


def check_equivalent(algorithm, topology_name, topology, arrays, dicts):
    for lazy, plain in zip(arrays, dicts):
        assert lazy.outputs.rows is not None  # the array branch applies
        got = views(algorithm, topology_name, topology, lazy)
        want = views(algorithm, topology_name, topology, plain)
        assert got == want


@seed(20_261_020)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    topology_name=st.sampled_from(sorted(TOPOLOGIES)),
    schedule=st.sampled_from(sorted(SCHEDULES)),
    n=st.integers(3, 40),
    base=st.integers(0, 2**40),
    replicas=st.integers(1, 4),
    max_time=st.sampled_from([1, 2, 3, 5, 100_000]),
)
def test_array_branch_matches_dict_path(
    algorithm, topology_name, schedule, n, base, replicas, max_time
):
    """Clean and cut runs of every kernel algorithm on cycles and paths:
    a cut run falls back, and every view is equal either way."""
    topology = TOPOLOGIES[topology_name](n)
    seeds = range(base, base + replicas)
    args = (algorithm, topology, seeds, SCHEDULES[schedule], max_time)
    arrays = run(*args)
    dicts = [materialized(r) for r in run(*args)]
    check_equivalent(algorithm, topology_name, topology, arrays, dicts)
    for result in arrays:
        assert is_lazy(result) != result.time_exhausted


@seed(20_261_021)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    topology_name=st.sampled_from(sorted(TOPOLOGIES)),
    n=st.integers(3, 24),
    data=st.data(),
)
def test_unreturned_processes(algorithm, topology_name, n, data):
    """Finite schedules and crash plans leave processes unreturned:
    edges to them impose nothing, on both paths.  A neighbour of a
    crashed process may work until ``max_time`` (Algorithms 2–3 can
    livelock), which the dict path then reports."""
    topology = TOPOLOGIES[topology_name](n)
    steps = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1), max_size=6
    ))
    crashes = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(0, 3), max_size=3
    ))
    schedules = (
        lambda s: FiniteSchedule(steps),
        lambda s: crash_after_activations(SynchronousScheduler(), crashes),
    )
    for schedule in schedules:
        args = (algorithm, topology, [0, 1], schedule, 2_000)
        arrays = run(*args)
        dicts = [materialized(r) for r in run(*args)]
        check_equivalent(algorithm, topology_name, topology, arrays, dicts)
        for result in arrays:
            assert is_lazy(result) != result.time_exhausted


def corrupt(result, how):
    """Overwrite one plane cell of a finished clean result: colour
    process 1 like process 0, or give it a colour outside the palette."""
    undone, colours, pair = result.outputs.rows
    assert not undone[0] and not undone[1]
    if how == "monochromatic":
        field = colours[0] & 63 if pair else colours[0]
    else:
        field = 63 if pair else 7
    colours[1] = (colours[1] & ~63) | field if pair else field


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("how", ["monochromatic", "out-of-palette"])
def test_violations_fall_back(algorithm, how):
    """A corrupted cell sends the result down the dict path, which
    reports the violation; every view still equals the dict path's."""
    topology = Cycle(16)
    arrays = run(algorithm, topology, [3], SCHEDULES["sync"])
    plain = run(algorithm, topology, [3], SCHEDULES["sync"])
    for result in arrays + plain:
        corrupt(result, how)
    dicts = [materialized(r) for r in plain]
    check_equivalent(algorithm, "cycle", topology, arrays, dicts)
    summary = summarize(topology, dicts[0], resolve_palette(algorithm))
    if how == "monochromatic":
        assert not summary.proper and (0, 1) in summary.monochromatic_edges
    else:
        assert not summary.palette_ok and 1 in summary.out_of_palette


def test_clean_result_stays_lazy():
    """Summarizing, verifying and counting a clean batch result builds
    none of its dicts."""
    topology = Cycle(64)
    results = run("fast5", topology, range(4), SCHEDULES["bernoulli"])
    registry = MetricsRegistry()
    for result in results:
        summary = summarize(topology, result, resolve_palette("fast5"))
        assert summary.ok and summary.all_terminated
        assert verify_execution(topology, result, range(5)).ok
        record_execution(registry, "batch", "FastFiveColoring", result)
        assert is_lazy(result)
        assert result.outputs.rows is not None
        assert result.activations.rows is not None


def test_engine_metrics_match_dict_results():
    """``record_execution`` counts a lazy plane result like its dicts."""
    topology = Path(30)
    lazy, registries = [], []
    for results in (
        run("alg1", topology, range(3), SCHEDULES["subset"]),
        [materialized(r) for r in run("alg1", topology, range(3),
                                      SCHEDULES["subset"])],
    ):
        registry = MetricsRegistry()
        for result in results:
            record_execution(registry, "batch", "SixColoring", result)
        registries.append(registry.deterministic_snapshot())
        lazy.append(results)
    assert registries[0] == registries[1]
    assert all(is_lazy(result) for result in lazy[0])
