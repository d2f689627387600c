"""The packing rule: :func:`repro.model.execution.run_executions`.

Every caller that runs several descriptions of one configuration
(ensembles, the campaign worker and batch backend, the service) goes
through this one function, so its rule is pinned here: ``"batch"``, or
``"auto"`` with more than one run, is exactly one ``run_batch`` call;
every other engine runs per run, lazily, and never calls ``run_batch``.
Whatever the rule picks, results equal the reference engine's.
"""

import pytest

from repro.core.fast_coloring5 import FastFiveColoring
from repro.errors import ExecutionError
from repro.model import batch, execution
from repro.model.execution import run_executions
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler

N = 24


def configuration(replicas):
    """``replicas`` runs of fast5 on C_N, distinct ids and seeds."""
    algorithms = [FastFiveColoring() for _ in range(replicas)]
    inputs = [[(7 * p + 3 * r) % 101 + 1000 * r for p in range(N)]
              for r in range(replicas)]
    schedules = [BernoulliScheduler(p=0.4, seed=r) for r in range(replicas)]
    return algorithms, Cycle(N), inputs, schedules


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``run_batch`` and ``run_execution`` calls."""
    counts = {"run_batch": 0, "run_execution": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(batch, "run_batch")
    counting(execution, "run_execution")
    return counts


@pytest.mark.parametrize(
    "engine, replicas, batches",
    [
        ("batch", 1, 1),
        ("batch", 3, 1),
        ("auto", 1, 0),
        ("auto", 3, 1),
        ("fast", 3, 0),
        ("wide", 3, 0),
        ("reference", 3, 0),
    ],
)
def test_run_batch_calls(calls, engine, replicas, batches):
    algorithms, topology, inputs, schedules = configuration(replicas)
    results = list(run_executions(
        algorithms, topology, inputs, schedules,
        max_time=50_000, engine=engine,
    ))
    assert len(results) == replicas
    assert calls["run_batch"] == batches
    assert calls["run_execution"] == (0 if batches else replicas)


@pytest.mark.parametrize("engine", ["fast", "wide", "reference", "auto"])
def test_per_run_path_runs_nothing_until_iterated(calls, engine):
    replicas = 3 if engine != "auto" else 1
    algorithms, topology, inputs, schedules = configuration(replicas)
    results = run_executions(
        algorithms, topology, inputs, schedules,
        max_time=50_000, engine=engine,
    )
    assert calls["run_execution"] == 0
    first = next(iter(results))
    assert first.all_terminated
    assert calls["run_execution"] == 1
    assert len(list(results)) == replicas - 1
    assert calls == {"run_batch": 0, "run_execution": replicas}


def test_unknown_engine_raises_at_call_time(calls):
    algorithms, topology, inputs, schedules = configuration(2)
    with pytest.raises(ExecutionError, match="unknown engine 'warp'"):
        run_executions(
            algorithms, topology, inputs, schedules,
            max_time=50_000, engine="warp",
        )
    assert calls == {"run_batch": 0, "run_execution": 0}


@pytest.mark.parametrize("engine", ["batch", "auto", "fast", "wide"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_results_equal_reference(engine, replicas):
    def run(engine):
        return list(run_executions(
            *configuration(replicas), max_time=50_000, engine=engine
        ))

    assert run(engine) == run("reference")
