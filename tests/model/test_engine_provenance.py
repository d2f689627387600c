"""The ``engine_run`` provenance the plane engine records.

Single runs through ``engine="wide"`` and ensembles through
:func:`repro.model.batch.run_batch` execute the same plane engine; the
``engine_run`` span is how traces, the benchmark and operators tell
which label ran, on which tier, over how many replicas.  These
attributes are an interface, so they are pinned here.
"""

import pytest

from repro.analysis.inputs import huge_ids, random_distinct_ids
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import numpy_accelerated, run_batch
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.obs.trace import FlightRecorder, TraceContext, tracing, use_context
from repro.schedulers import BernoulliScheduler, SynchronousScheduler


def engine_runs(run):
    """The ``engine_run`` span attributes recorded while ``run()`` ran."""
    recorder = FlightRecorder(1024)
    with tracing(recorder), use_context(TraceContext.new_root()):
        run()
    return [r.attributes for r in recorder.snapshot() if r.name == "engine_run"]


def wide_run(ids):
    return lambda: run_execution(
        FastFiveColoring(), Cycle(len(ids)), ids, SynchronousScheduler(),
        engine="wide",
    )


@pytest.mark.skipif(not numpy_accelerated(), reason="vector tier needs numpy")
def test_wide_small_ids_run_the_vector_tier():
    (attrs,) = engine_runs(wide_run(random_distinct_ids(64, seed=1)))
    assert attrs["engine"] == "wide"
    assert attrs["tier"] == "vector"
    assert attrs["dense_steps"] > 0
    assert attrs["sparse_steps"] == 0
    assert 0.0 < attrs["occupancy"] <= 1.0


def test_wide_huge_ids_run_the_scalar_tier():
    runs = [a for a in engine_runs(wide_run(huge_ids(64, seed=1)))
            if a["engine"] == "wide"]
    assert len(runs) == 1
    assert runs[0]["tier"] == "scalar"
    assert runs[0]["dense_steps"] == 0


def test_batch_records_its_replicas():
    n = 32

    def run():
        run_batch(
            [FastFiveColoring() for _ in range(3)], Cycle(n),
            [random_distinct_ids(n, seed=s) for s in range(3)],
            [BernoulliScheduler(p=0.5, seed=s) for s in range(3)],
        )

    runs = [a for a in engine_runs(run) if a["engine"] == "batch"]
    assert len(runs) == 1
    assert runs[0]["replicas"] == 3
    assert 0.0 <= runs[0]["occupancy"] <= 1.0


@pytest.mark.skipif(not numpy_accelerated(), reason="vector tier needs numpy")
def test_wide_largest_lane_id_runs_the_vector_tier():
    ids = random_distinct_ids(64, seed=1)
    ids[7] = 2**57 - 1
    (attrs,) = engine_runs(wide_run(ids))
    assert attrs["tier"] == "vector"
    assert attrs["dense_steps"] > 0


def test_wide_id_at_the_lane_limit_runs_the_scalar_tier():
    ids = random_distinct_ids(64, seed=1)
    ids[7] = 2**57
    runs = [a for a in engine_runs(wide_run(ids)) if a["engine"] == "wide"]
    assert len(runs) == 1
    assert runs[0]["tier"] == "scalar"
