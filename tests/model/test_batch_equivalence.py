"""Differential equivalence harness: batch engine vs per-run engines.

The batched lockstep engine (:mod:`repro.model.batch`) claims that
running ``B`` replicas through one structure-of-arrays kernel produces
results *bit-identical* to running each replica through the per-run
engines.  This suite enforces that claim replica by replica across
every registered algorithm, across scheduler families (including crash
plans and mixed schedule types inside one batch), across ragged
termination shapes, and across both numeric tiers (numpy-accelerated
and the pure-Python fallback selected by ``REPRO_BATCH_DISABLE_NUMPY``).

The per-run *fast* engine is itself pinned to the reference ``Executor``
by ``test_fastpath_equivalence.py``; here the reference engine is the
oracle so a batch bug cannot hide behind a matching fast-path bug.
"""

import random

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.campaign.registry import ALGORITHMS
from repro.model.batch import (
    MTBatch,
    NUMPY_ENV_FLAG,
    _LazyMapping,
    batched_steps,
    load_numpy,
    numpy_accelerated,
    run_batch,
)
from repro.model.execution import run_execution
from repro.model.faults import CrashPlan
from repro.model.schedule import FiniteSchedule, _row_to_ids
from repro.model.topology import Cycle, Path
from repro.schedulers import (
    BernoulliScheduler,
    GeometricRateScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
    UniformSubsetScheduler,
)

from tests.conftest import ENGINE_ALGORITHMS

#: Scheduler families swept against every algorithm.  Factories take
#: ``seed`` so random families get a fresh stream per replica while
#: deterministic ones ignore it.
SCHEDULER_FAMILIES = [
    ("sync", lambda seed: SynchronousScheduler()),
    ("bernoulli", lambda seed: BernoulliScheduler(p=0.35, seed=seed)),
    ("uniform-subset", lambda seed: UniformSubsetScheduler(seed=seed)),
    ("round-robin", lambda seed: RoundRobinScheduler(offset=seed % 5)),
    ("geometric", lambda seed: GeometricRateScheduler(seed=seed)),
]


def reference_results(factory, topology, inputs_list, schedule_factories,
                      *, max_time=20_000):
    """Oracle: each replica through the reference engine on its own."""
    return [
        run_execution(
            factory(), topology, list(inputs), make_schedule(),
            max_time=max_time, engine="reference",
        )
        for inputs, make_schedule in zip(inputs_list, schedule_factories)
    ]


def assert_replicas_identical(batch, oracle, label, engine="batch"):
    """Field-by-field equality, replica by replica, with a usable diff.

    ``engine`` is the engine every replica must have run on: equality
    ignores ``result.engine``, so without this check a silent fallback
    to the fast engine would pass as a batch run.
    """
    assert all(r.engine == engine for r in batch), (
        f"{label}: ran on {[r.engine for r in batch]}, expected {engine!r}"
    )
    assert len(batch) == len(oracle)
    for i, (got, want) in enumerate(zip(batch, oracle)):
        assert dict(got.outputs) == dict(want.outputs), f"{label} replica {i}: outputs"
        assert dict(got.activations) == dict(want.activations), (
            f"{label} replica {i}: activations"
        )
        assert dict(got.return_times) == dict(want.return_times), (
            f"{label} replica {i}: return_times"
        )
        assert got.final_time == want.final_time, f"{label} replica {i}: final_time"
        assert got.time_exhausted == want.time_exhausted, (
            f"{label} replica {i}: time_exhausted"
        )
        assert dict(got.final_states) == dict(want.final_states), (
            f"{label} replica {i}: final_states"
        )
        # Dataclass equality as the final word (covers every field at once,
        # and exercises _LazyMapping.__eq__ from the *left* side).
        assert got == want, f"{label} replica {i}: ExecutionResult diverged"


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
@pytest.mark.parametrize("sched_name,sched_factory", SCHEDULER_FAMILIES)
def test_batch_bit_identical_per_replica(alg_name, sched_name, sched_factory):
    """The headline sweep (Issue 4 acceptance criterion).

    Every registered algorithm × every scheduler family: a 12-replica
    batch with varying sizes-agnostic seeds must match twelve
    independent reference runs field for field.
    """
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 19
    batch_size = 12
    inputs_list = [random_distinct_ids(n, seed=seed) for seed in range(batch_size)]
    factories = [
        (lambda seed=seed: sched_factory(seed)) for seed in range(batch_size)
    ]

    batch = run_batch(
        [factory() for _ in range(batch_size)], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, f"{alg_name}/{sched_name}")
    # The sweep must exercise real executions, not vacuous ones.
    assert any(r.final_time > 0 for r in oracle)


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_batch_path_topology(alg_name):
    """Degree-1 endpoints (Path) through the batched kernels."""
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 14
    inputs_list = [random_distinct_ids(n, seed=s) for s in range(6)]
    factories = [(lambda s=s: BernoulliScheduler(p=0.5, seed=s)) for s in range(6)]
    batch = run_batch(
        [factory() for _ in range(6)], Path(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Path(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, f"{alg_name}/path")


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_batch_mixed_schedule_types_one_batch(alg_name):
    """One batch may mix schedule classes; streams must not cross-talk."""
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 11
    factories = [
        lambda: SynchronousScheduler(),
        lambda: BernoulliScheduler(p=0.3, seed=7),
        lambda: RoundRobinScheduler(offset=2),
        lambda: UniformSubsetScheduler(seed=3),
        lambda: BernoulliScheduler(p=0.8, seed=9),
    ]
    inputs_list = [random_distinct_ids(n, seed=40 + i) for i in range(len(factories))]
    batch = run_batch(
        [factory() for _ in factories], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, f"{alg_name}/mixed")


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_batch_crash_plans(alg_name):
    """Crashed processes stop mid-batch without disturbing neighbors."""
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 13
    factories = [
        (lambda i=i: CrashPlan(
            BernoulliScheduler(p=0.5, seed=100 + i),
            crash_times={0: 3, 5: 1 + i % 3},
        ))
        for i in range(5)
    ]
    inputs_list = [random_distinct_ids(n, seed=60 + i) for i in range(5)]
    batch = run_batch(
        [factory() for _ in factories], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, f"{alg_name}/crash")


def test_batch_ragged_termination_and_exhaustion():
    """Replicas retire at different lockstep rows; some exhaust max_time.

    A tight ``max_time`` leaves slow (low-p Bernoulli) replicas
    unterminated while synchronous ones finish — the per-replica
    retirement accounting must match the oracle in both regimes.
    """
    for alg_name, factory in sorted(ALGORITHMS.items()):
        n = 9
        factories = [
            lambda: SynchronousScheduler(),
            lambda: BernoulliScheduler(p=0.05, seed=1),
            lambda: BernoulliScheduler(p=0.9, seed=2),
            lambda: FiniteSchedule([list(range(n))] * 4),
        ]
        inputs_list = [random_distinct_ids(n, seed=80 + i) for i in range(len(factories))]
        batch = run_batch(
            [factory() for _ in factories], Cycle(n),
            inputs_list, [make() for make in factories], max_time=7,
        )
        oracle = reference_results(
            factory, Cycle(n), inputs_list, factories, max_time=7
        )
        assert_replicas_identical(batch, oracle, f"{alg_name}/ragged")
        # The shape must actually be ragged: a mix of exhausted and done.
        assert any(r.time_exhausted for r in oracle)
        assert any(not r.time_exhausted for r in oracle)


def assert_declined_batch_matches_reference(algs, reason):
    """A declined batch still answers, per replica, on the fast engine,
    and counts exactly one fallback."""
    from repro.obs.metrics import collecting

    inputs_list = [random_distinct_ids(7, seed=s) for s in range(len(algs))]
    with collecting() as registry:
        results = run_batch(
            algs, Cycle(7), inputs_list,
            [SynchronousScheduler() for _ in algs], max_time=20_000,
        )
    oracle = [
        run_execution(
            type(alg)(), Cycle(7), ids, SynchronousScheduler(),
            max_time=20_000, engine="reference",
        )
        for alg, ids in zip(algs, inputs_list)
    ]
    assert_replicas_identical(results, oracle, reason, engine="fast")
    (sample,) = registry.snapshot()["engine_fallback_total"]["samples"]
    assert sample["labels"] == {
        "requested": "batch", "used": "fast", "reason": reason,
    }
    assert sample["value"] == 1


def test_batch_declines_mixed_algorithm_types():
    """Heterogeneous algorithm types have no common kernel."""
    names = sorted(ALGORITHMS)
    algs = [ALGORITHMS[names[0]](), ALGORITHMS[names[1]]()]
    assert_declined_batch_matches_reference(algs, "mixed-types")


def test_batch_declines_unregistered_algorithm():
    """Subclasses fall outside exact-type dispatch, like the fast path."""
    from repro.core.fast_coloring5 import FastFiveColoring

    class Subclassed(FastFiveColoring):
        pass

    assert_declined_batch_matches_reference(
        [Subclassed(), Subclassed()], "unregistered"
    )


def test_engine_batch_single_run_matches_reference():
    """``run_execution(engine="batch")``: the plane engine at B = 1."""
    for alg_name, factory in sorted(ENGINE_ALGORITHMS.items()):
        ids = random_distinct_ids(10, seed=5)
        got = run_execution(
            factory(), Cycle(10), ids, BernoulliScheduler(p=0.4, seed=5),
            max_time=20_000, engine="batch",
        )
        want = run_execution(
            factory(), Cycle(10), ids, BernoulliScheduler(p=0.4, seed=5),
            max_time=20_000, engine="reference",
        )
        assert got.engine == "batch", f"{alg_name}: engine='batch' declined"
        assert got == want, f"{alg_name}: engine='batch' diverged"


def test_engine_batch_falls_back_for_unpackable_runs():
    """``run_execution(engine="batch")`` still answers when batch declines."""
    from repro.core.fast_coloring5 import FastFiveColoring

    class Subclassed(FastFiveColoring):
        pass

    ids = random_distinct_ids(8, seed=2)
    got = run_execution(
        Subclassed(), Cycle(8), ids, SynchronousScheduler(),
        max_time=20_000, engine="batch",
    )
    want = run_execution(
        Subclassed(), Cycle(8), ids, SynchronousScheduler(),
        max_time=20_000, engine="reference",
    )
    assert got.engine == "fast"
    assert got == want


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_pure_python_tier_bit_identical(alg_name, monkeypatch):
    """With numpy disabled the pure tier must produce the same results."""
    monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    assert not numpy_accelerated()
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 11
    factories = [
        lambda: SynchronousScheduler(),
        lambda: BernoulliScheduler(p=0.4, seed=11),
        lambda: RoundRobinScheduler(offset=1),
    ]
    inputs_list = [random_distinct_ids(n, seed=20 + i) for i in range(len(factories))]
    batch = run_batch(
        [factory() for _ in factories], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, f"{alg_name}/pure")


def test_pure_tier_handles_huge_ids(monkeypatch):
    """Ids ≥ 2**57 exceed the packed int64 layout; the pure tier covers
    them (the numpy tier declines to pack and the driver falls back)."""
    monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    factory = ALGORITHMS[sorted(ALGORITHMS)[0]]
    n = 7
    base = 2**60
    inputs_list = [
        [base + 3 * i + j * 17 for i in range(n)] for j in range(3)
    ]
    factories = [(lambda s=s: BernoulliScheduler(p=0.5, seed=s)) for s in range(3)]
    batch = run_batch(
        [factory() for _ in range(3)], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, "huge-ids/pure")


def test_numpy_tier_huge_ids_fall_back_to_pure():
    """Same huge-id batch with numpy available: results still identical
    (the packed layout is gated on ids < 2**57)."""
    if not numpy_accelerated():
        pytest.skip("numpy unavailable")
    factory = ALGORITHMS[sorted(ALGORITHMS)[0]]
    n = 7
    base = 2**60
    inputs_list = [[base + 5 * i + j * 13 for i in range(n)] for j in range(3)]
    factories = [(lambda s=s: BernoulliScheduler(p=0.5, seed=s)) for s in range(3)]
    batch = run_batch(
        [factory() for _ in range(3)], Cycle(n),
        inputs_list, [make() for make in factories], max_time=20_000,
    )
    oracle = reference_results(factory, Cycle(n), inputs_list, factories)
    assert_replicas_identical(batch, oracle, "huge-ids/numpy-gate")


def test_mtbatch_streams_match_cpython_random():
    """MTBatch banks must replay exactly what ``random.Random(seed)``
    would draw — this is what makes batched Bernoulli schedules
    bit-identical to their per-run counterparts."""
    np = load_numpy()
    if np is None:
        pytest.skip("numpy unavailable")
    seeds = [0, 1, 7, 123456]
    bank = MTBatch(seeds, np=np)
    oracles = [random.Random(s) for s in seeds]
    for _ in range(3):
        for i, oracle in enumerate(oracles):
            draws = bank.take([i], 20)[0]
            assert [float(d) for d in draws] == [oracle.random() for _ in range(20)]
    # Retiring a stream must not disturb the survivors.
    bank.retire(1)
    draws = bank.take([0], 5)[0]
    assert [float(d) for d in draws] == [oracles[0].random() for _ in range(5)]


def test_batched_steps_matches_per_schedule_streams():
    """The merged lockstep row generator equals per-schedule iteration."""
    n = 9
    schedules = [
        BernoulliScheduler(p=0.35, seed=4),
        SynchronousScheduler(),
        RoundRobinScheduler(offset=3),
    ]
    mirrors = [
        BernoulliScheduler(p=0.35, seed=4),
        SynchronousScheduler(),
        RoundRobinScheduler(offset=3),
    ]
    flags = [True] * len(schedules)
    merged = batched_steps(schedules, n, flags)
    singles = [iter(m.steps(n)) for m in mirrors]
    for _ in range(50):
        rows = next(merged)
        for mine, single in zip(rows, singles):
            assert mine is not None
            # Rows may arrive as id sequences or as bool activation
            # masks — both spell the same activation set.
            assert sorted(int(p) for p in _row_to_ids(mine)) == sorted(
                next(single)
            )


def test_lazy_mapping_equality_both_directions():
    """_LazyMapping must compare equal to plain dicts from either side
    (dataclass ``__eq__`` puts it on the left; user code on the right)."""
    lazy = _LazyMapping(lambda: {1: "a", 2: "b"})
    assert lazy == {1: "a", 2: "b"}
    assert {1: "a", 2: "b"} == lazy
    assert lazy != {1: "a"}
    assert {1: "a"} != lazy
    assert len(lazy) == 2 and lazy[1] == "a" and 2 in lazy
    assert sorted(lazy) == [1, 2]
