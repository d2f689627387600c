"""Speed bars: the engines', the service's, the pool's and the campaign
backends' speed claims, as one table of bars.

Each row of :data:`BARS` names its workload, the baseline and candidate
legs it compares, the bound the candidate must reach and the condition
under which that bound binds.  A workload checks its legs' results
before it returns any rate (the engines must agree bit for bit, every
request must succeed), so a bar never credits a fast wrong answer; rows
that share a workload share one measurement.  Workload sizes, seeds and
repeat counts are fixed, so a row's ratio is comparable across commits.

``test_speed_bar[<row>]`` measures one row and asserts its bound where
it binds; a row that does not bind still runs its checks and reports its
ratio.  The module prints one table of every row it measured and writes
no file.  Run every row (a few minutes on a 2-vCPU box)::

    PYTHONPATH=src:. python -m pytest benchmarks/test_speed_bars.py -q -s

or one row by id, e.g. ``"benchmarks/test_speed_bars.py::test_speed_bar[wide-vs-fast]"``.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import pytest

from benchmarks.conftest import emit
from repro.analysis.inputs import monotone_ids, random_distinct_ids
from repro.analysis.verify import summarize
from repro.campaign import (
    CampaignSpec,
    PoolBackend,
    SequentialBackend,
    run_campaign,
)
from repro.campaign.registry import resolve_algorithm, resolve_inputs
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import numpy_accelerated, run_batch
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler, SynchronousScheduler
from repro.service.loadgen import build_mix, run_loadgen
from repro.service.server import ServerThread

CPUS = os.cpu_count() or 1
MAX_TIME = 100_000

#: A workload's measurement: leg name → rate (1/s), plus any context a
#: binding condition reads.
Legs = Dict[str, float]


def best_of(run, setup=tuple, repeats=3):
    """``(last value, best wall seconds)`` of ``repeats`` calls of
    ``run(*setup())``; ``setup`` builds fresh arguments, untimed."""
    best, value = float("inf"), None
    for _ in range(repeats):
        args = setup()
        started = time.perf_counter()
        value = run(*args)
        best = min(best, time.perf_counter() - started)
    return value, best


def fast5(topology, ids, schedule, engine):
    return run_execution(
        FastFiveColoring(), topology, ids, schedule,
        max_time=MAX_TIME, engine=engine,
    )


# -- workloads ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def engines_c10k() -> Legs:
    """fast5 on C_10^4, monotone ids, sync: the reference engine, then
    fast, best of 3 each; activations/s."""
    n = 10_000
    ids = monotone_ids(n)
    legs = {
        engine: best_of(lambda: fast5(Cycle(n), ids, SynchronousScheduler(), engine))
        for engine in ("reference", "fast")
    }
    (reference, _), (fast, _) = legs["reference"], legs["fast"]
    assert reference.all_terminated and fast.all_terminated
    assert fast == reference
    activations = sum(reference.activations.values())
    return {engine: activations / seconds for engine, (_, seconds) in legs.items()}


@functools.lru_cache(maxsize=None)
def batch_c2048() -> Legs:
    """24 seeds of fast5 on C_2048, random ids, Bernoulli(0.5): 24
    sequential fast runs, then one 24-replica batch, best of 3; runs/s."""
    n, seeds = 2048, range(24)

    def fresh():  # schedules are stateful: every repeat gets new ones
        return (
            [random_distinct_ids(n, seed=seed) for seed in seeds],
            [BernoulliScheduler(p=0.5, seed=seed) for seed in seeds],
        )

    sequential, sequential_s = best_of(
        lambda inputs, schedules: [
            fast5(Cycle(n), ids, schedule, "fast")
            for ids, schedule in zip(inputs, schedules)
        ],
        fresh,
    )
    batch, batch_s = best_of(
        lambda inputs, schedules, algorithms: run_batch(
            algorithms, Cycle(n), inputs, schedules, max_time=MAX_TIME
        ),
        lambda: fresh() + ([FastFiveColoring() for _ in seeds],),
    )
    assert all(r.engine == "batch" for r in batch), "batch engine declined"
    assert all(r.all_terminated for r in sequential)
    for i, (got, want) in enumerate(zip(batch, sequential)):
        assert got == want, f"replica {i}: batch result diverged"
    return {"sequential fast": len(seeds) / sequential_s, "batch": len(seeds) / batch_s}


@functools.lru_cache(maxsize=None)
def wide_c1e6() -> Legs:
    """fast5 on C_10^6, monotone ids, sync: fast, then wide, best of 3
    each on one pre-built topology; activations/s.  Full-result
    equality is checked at C_10^5 first; at C_10^6 the integer planes
    are compared, since comparing every state would dominate the run."""
    small = 100_000
    want, got = (
        fast5(Cycle(small), monotone_ids(small), SynchronousScheduler(), engine)
        for engine in ("fast", "wide")
    )
    assert got == want and got.all_terminated
    n = 1_000_000
    topology, ids = Cycle(n), monotone_ids(n)
    legs = {
        engine: best_of(lambda: fast5(topology, ids, SynchronousScheduler(), engine))
        for engine in ("fast", "wide")
    }
    (fast, _), (wide, _) = legs["fast"], legs["wide"]
    assert fast.all_terminated and wide.all_terminated
    assert wide.final_time == fast.final_time
    assert wide.outputs == fast.outputs
    assert wide.activations == fast.activations
    activations = sum(fast.activations.values())
    return {engine: activations / seconds for engine, (_, seconds) in legs.items()}


@functools.lru_cache(maxsize=None)
def summaries_c2048() -> Legs:
    """96 seeds of fast5 on C_2048, random ids, Bernoulli(0.5), one batch:
    ``summarize`` on the results' arrays, then on fresh results whose
    array views are dropped, so it builds and reads their dicts (every
    result's path before the array branch); best of 3; results/s.  The
    summaries must be equal, key order included."""
    n, seeds, palette = 2048, range(96), range(5)
    topology = Cycle(n)

    def fresh(array_views=True):
        results = run_batch(
            [FastFiveColoring() for _ in seeds], topology,
            [random_distinct_ids(n, seed=seed) for seed in seeds],
            [BernoulliScheduler(p=0.5, seed=seed) for seed in seeds],
            max_time=MAX_TIME,
        )
        assert all(r.engine == "batch" and r.outputs.rows is not None
                   for r in results)
        if not array_views:
            for result in results:
                result.outputs.rows = result.activations.rows = None
        return (results,)

    def summaries(results):
        return [summarize(topology, result, palette) for result in results]

    arrays, arrays_s = best_of(summaries, fresh)
    dicts, dicts_s = best_of(summaries, lambda: fresh(array_views=False))

    def ordered(summary):
        return [list(v.items()) if isinstance(v, dict) else v
                for v in vars(summary).values()]

    assert all(s.ok and s.all_terminated for s in dicts)
    assert [ordered(s) for s in arrays] == [ordered(s) for s in dicts]
    return {"dicts": len(seeds) / dicts_s, "arrays": len(seeds) / arrays_s}


def sequential_rate(requests) -> float:
    """Requests/s of uncached in-process solo fast runs of ``requests``."""
    def run():
        for request in requests:
            result = run_execution(
                resolve_algorithm(request.algorithm)(),
                Cycle(request.n),
                resolve_inputs(request.inputs, request.n, request.seed),
                BernoulliScheduler(p=0.4, seed=request.seed),
                max_time=request.max_time,
                engine="fast",
            )
            assert result.all_terminated

    _, seconds = best_of(run, repeats=1)
    return len(requests) / seconds


def burst(server, count, n, concurrency, seed_base=0):
    """One loadgen burst of ``count`` unique fast5 Bernoulli requests on
    C_n; every request must succeed."""
    summary = run_loadgen(
        port=server.port, requests=count, concurrency=concurrency,
        duplicates=0.0, n=n, max_time=MAX_TIME, seed_base=seed_base,
    )
    assert summary["statuses"] == {"200": count}
    assert summary["outcomes"]["errors"] == 0
    return summary


@functools.lru_cache(maxsize=None)
def pool_serving() -> Legs:
    """24 unique fast5 C_2048 Bernoulli requests over HTTP in solo
    groups (no coalescing), from max(2, CPUs) clients to as many
    executor threads, then as many pool workers; requests/s."""
    count, n, workers = 24, 2048, max(2, CPUS)
    legs = {}
    for leg, slots in (("thread executor", {"executor_workers": workers}),
                       ("pool", {"pool_workers": workers})):
        with ServerThread(coalesce_window=0.0, max_batch=1, **slots) as server:
            legs[leg] = burst(server, count, n, workers)["requests_per_sec"]
            registry = server.registry
    # Every pool-leg request ran in a worker process, and none restarted.
    assert registry.value("pool_tasks_total", kind="group", status="ok") == count
    assert registry.value("pool_worker_restarts_total") is None
    return legs


@functools.lru_cache(maxsize=None)
def service_legs() -> Legs:
    """32 unique fast5 C_1024 Bernoulli requests on one server (50 ms
    window): sent one at a time (cold), replayed by 4 clients (all
    cache hits), then a fresh burst from 32 clients at once (coalesced);
    against the same 32 runs in process; requests/s."""
    count, n = 32, 1024
    legs = {"sequential": sequential_rate(build_mix(count, n=n, max_time=MAX_TIME))}
    with ServerThread(coalesce_window=0.05, max_batch=count) as server:
        legs["cold"] = burst(server, count, n, 1)["requests_per_sec"]
        cached = burst(server, count, n, 4)
        coalesced = burst(server, count, n, count, seed_base=10_000)
        hits = server.registry.value("service_cache_hits_total")
        occupancy = server.registry.value("service_batch_occupancy") or {}
    assert cached["outcomes"]["cached"] == count
    assert hits is not None and hits >= count
    assert coalesced["outcomes"]["coalesced"] >= 2
    legs["cached"] = cached["requests_per_sec"]
    legs["coalesced"] = coalesced["requests_per_sec"]
    legs["max batch"] = occupancy.get("max", 0.0)
    return legs


def campaign_grid(n, seeds):
    return CampaignSpec.build(
        algorithms=["fast5"], ns=[n], input_families=["random"],
        schedules=["bernoulli"], seeds=range(seeds),
    )


@functools.lru_cache(maxsize=None)
def campaign_backends() -> Legs:
    """A 24-run fast5 C_2048 Bernoulli grid on the sequential backend,
    then on a pool of one worker per CPU; both reports must be equal;
    runs/s."""
    spec = campaign_grid(2048, 24)
    sequential = run_campaign(spec, backend=SequentialBackend())
    pool = run_campaign(spec, backend=PoolBackend(workers=CPUS), task_timeout=120.0)
    for outcome in (sequential, pool):
        assert outcome.all_ok and outcome.report.runs == spec.size
    assert pool.report == sequential.report
    return {
        "sequential": sequential.summary.runs_per_sec,
        "pool": pool.summary.runs_per_sec,
    }


@functools.lru_cache(maxsize=None)
def campaign_small() -> Legs:
    """A 10-run fast5 C_64 Bernoulli grid on the sequential backend,
    three times; the last time's runs/s."""
    spec = campaign_grid(64, 10)

    def run():
        outcome = run_campaign(spec, backend=SequentialBackend())
        assert outcome.all_ok
        return outcome.summary.runs_per_sec

    rate, _ = best_of(run)
    return {"sequential": rate}


# -- the table ---------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    """Candidate ≥ ``bound`` × baseline while ``binds(legs)``; with no
    baseline, the candidate's own rate must exceed ``bound``."""

    id: str
    workload: Callable[[], Legs]
    baseline: Optional[str]
    candidate: str
    bound: float
    when: str
    binds: Callable[[Legs], bool] = lambda legs: True

    def value(self, legs: Legs) -> float:
        rate = legs[self.candidate]
        return rate if self.baseline is None else rate / legs[self.baseline]

    def holds(self, legs: Legs) -> bool:
        value = self.value(legs)
        return value > self.bound if self.baseline is None else value >= self.bound


def with_numpy(legs):
    return numpy_accelerated()


BARS = (
    Bar("fast-vs-reference", engines_c10k, "reference", "fast", 3.0, "always"),
    Bar("batch-vs-fast", batch_c2048, "sequential fast", "batch", 5.0,
        "numpy", with_numpy),
    Bar("wide-vs-fast", wide_c1e6, "fast", "wide", 3.0, "numpy", with_numpy),
    Bar("summarize-array-vs-dict", summaries_c2048, "dicts", "arrays", 4.0,
        "numpy", with_numpy),
    Bar("pool-vs-thread", pool_serving, "thread executor", "pool", 1.8,
        ">= 2 CPUs", lambda legs: CPUS >= 2),
    Bar("service-cached", service_legs, "sequential", "cached", 5.0,
        ">= 2 CPUs", lambda legs: CPUS >= 2),
    Bar("service-coalesced", service_legs, "sequential", "coalesced", 2.0,
        ">= 2 CPUs, a batch of > 1 formed",
        lambda legs: CPUS >= 2 and legs["max batch"] > 1),
    Bar("campaign-pool", campaign_backends, "sequential", "pool", 1.2,
        "2-3 CPUs", lambda legs: 2 <= CPUS < 4),
    Bar("campaign-pool-4cpu", campaign_backends, "sequential", "pool", 2.0,
        ">= 4 CPUs", lambda legs: CPUS >= 4),
    Bar("campaign-sequential", campaign_small, None, "sequential", 50.0,
        "always"),
)


@pytest.fixture(scope="module")
def speed_table():
    rows = []
    yield rows
    emit(f"speed bars ({CPUS} CPUs, numpy {numpy_accelerated()})", rows)


@pytest.mark.parametrize("bar", BARS, ids=lambda bar: bar.id)
def test_speed_bar(bar, speed_table):
    legs = bar.workload()
    binds, holds = bar.binds(legs), bar.holds(legs)
    speed_table.append({
        "bar": bar.id,
        "baseline [1/s]": round(legs[bar.baseline], 1) if bar.baseline else "-",
        "candidate [1/s]": round(legs[bar.candidate], 1),
        "ratio": round(bar.value(legs), 2) if bar.baseline else "-",
        "bound": bar.bound,
        "binds when": bar.when,
        "binds": binds,
        "holds": holds,
        "other legs": ", ".join(
            f"{leg} {value:.1f}" for leg, value in legs.items()
            if leg not in (bar.baseline, bar.candidate)
        ),
    })
    if binds:
        assert holds, (
            f"{bar.id}: {bar.candidate} {bar.value(legs):.2f} "
            f"misses its bound {bar.bound} ({bar.when})"
        )


def test_bar_check_without_timing():
    """Every ratio bar fails when its candidate is only as fast as its
    baseline and holds exactly at its bound; the rate floor is strict."""
    for bar in BARS:
        if bar.baseline is None:
            assert not bar.holds({bar.candidate: bar.bound})
            assert bar.holds({bar.candidate: bar.bound + 1})
        else:
            assert not bar.holds({bar.baseline: 1.0, bar.candidate: 1.0})
            assert bar.holds({bar.baseline: 1.0, bar.candidate: bar.bound})
