"""Differential equivalence harness: the engine matrix vs reference.

Every execution engine — the fast path (:mod:`repro.model.fastpath`
with the compiled kernels of :mod:`repro.model.kernels`) and the
node-vectorized wide engine (:mod:`repro.model.wide`) — claims to be
*observably identical* to the reference :class:`~repro.model.execution.
Executor`.  This suite is that claim's enforcement: it replays seeded
random, adversarial and synchronous schedules (with and without crash
plans) through every engine across every registered algorithm and
asserts bit-identical :class:`~repro.model.execution.ExecutionResult`\\ s
— outputs, activation counts, return times, final time, final states,
and (where recorded) full traces.

Three dispatch tiers are exercised deliberately:

* registered algorithm classes hit their *compiled kernels* (scalar
  for fast, plane-form for wide);
* subclasses (exact-type dispatch excludes them) and tracing runs hit
  the *generic fast path*;
* the ``REPRO_BATCH_DISABLE_NUMPY`` flag forces the wide engine's
  pure-Python tier — so all tiers are diffed against the reference
  oracle here.

The ``engine="auto"`` selection layer is covered at the end: whatever
it picks must preserve the reference contract (traces, registers,
monitors), and the decision must be auditable in metrics.
"""

import random

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.core.fast_coloring5 import FastFiveColoring
from repro.errors import ExecutionError
from repro.model.batch import NUMPY_ENV_FLAG
from repro.model.execution import ENGINES, Executor, run_execution
from repro.model.fastpath import FastExecutor
from repro.model.faults import CrashPlan
from repro.model.schedule import FiniteSchedule
from repro.model.topology import Cycle, Path
from repro.schedulers import (
    AlternatingScheduler,
    BernoulliScheduler,
    BurstScheduler,
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

from tests.conftest import ENGINE_ALGORITHMS


class EveryOtherBernoulli(BernoulliScheduler):
    """A subclass whose ``steps`` keeps every other parent step.

    It still terminates, but its stream differs from the parent's, so
    an engine that draws the inherited vectorized stream instead of
    the overriding ``steps`` diverges from the reference.
    """

    def steps(self, n):
        for t, step in enumerate(super().steps(n)):
            if t % 2 == 0:
                yield step


#: Scheduler families of the sweep: synchronous, seeded random, and
#: structured adversaries.  Factories take ``seed`` so random families
#: get a fresh stream per case while structured ones ignore it.
SCHEDULER_FAMILIES = [
    ("sync", lambda seed: SynchronousScheduler()),
    ("bernoulli", lambda seed: BernoulliScheduler(p=0.35, seed=seed)),
    ("uniform-subset", lambda seed: UniformSubsetScheduler(seed=seed)),
    ("adversarial", lambda seed: SlowChainScheduler(slow=[0], slowdown=7)),
    ("bernoulli-override", lambda seed: EveryOtherBernoulli(p=0.35, seed=seed)),
]

#: The engines diffed against the reference oracle.  ``wide`` and
#: ``batch`` both run the plane engine as a batch of one (its lockstep
#: B > 1 behaviour has its own suite, test_batch_equivalence.py);
#: ``auto`` is a selection layer over these and is covered separately
#: below.
KERNEL_ENGINES = ("fast", "wide", "batch")

#: numpy/no-numpy tier axis: parametrize a test with this to run it in
#: both the vectorized and the pure-Python tier of the wide engine.
TIERS = ("numpy", "pure")


def set_tier(monkeypatch, tier):
    if tier == "pure":
        monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    else:
        monkeypatch.delenv(NUMPY_ENV_FLAG, raising=False)


def both_engines(algorithm_factory, topology, inputs, schedule_factory,
                 *, max_time=20_000, engines=("reference",) + KERNEL_ENGINES,
                 **kwargs):
    """Run the same configuration through every engine of the matrix.

    Each engine gets its own schedule instance (random schedules are
    seeded, so two instances replay the same stream) and its own
    algorithm instance, ruling out accidental state sharing.  Returns
    results in ``engines`` order (reference first by default).
    """
    results = []
    for engine in engines:
        results.append(
            run_execution(
                algorithm_factory(), topology, list(inputs),
                schedule_factory(), max_time=max_time, engine=engine,
                **kwargs,
            )
        )
    return results


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
@pytest.mark.parametrize("sched_name,sched_factory", SCHEDULER_FAMILIES)
def test_engines_bit_identical_over_25_seeds(
    alg_name, sched_name, sched_factory, tier, monkeypatch
):
    """The headline differential sweep (Issue 2 acceptance criterion).

    Every registered algorithm × every scheduler family × 25 seeds ×
    numpy/pure tiers: every engine must produce equal
    ``ExecutionResult``s — dataclass equality covers outputs,
    activations, return_times, final_time, time_exhausted and
    final_states.
    """
    set_tier(monkeypatch, tier)
    factory = ENGINE_ALGORITHMS[alg_name]
    for seed in range(25):
        n = 5 + (seed % 7)
        ids = random_distinct_ids(n, seed=seed)
        reference, fast, wide, batch = both_engines(
            factory, Cycle(n), ids, lambda: sched_factory(seed)
        )
        assert reference == fast, (
            f"{alg_name} under {sched_name} seed {seed} ({tier}): "
            f"fast diverged"
        )
        assert reference == wide, (
            f"{alg_name} under {sched_name} seed {seed} ({tier}): "
            f"wide diverged"
        )
        assert reference == batch, (
            f"{alg_name} under {sched_name} seed {seed} ({tier}): "
            f"batch diverged"
        )
        # The sweep must exercise real executions, not vacuous ones.
        assert reference.all_terminated or reference.final_time > 0


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
@pytest.mark.parametrize("sched_name,sched_factory", SCHEDULER_FAMILIES)
def test_crash_plan_equivalence(
    alg_name, sched_name, sched_factory, tier, monkeypatch
):
    """Crashes = schedule censoring: every engine must agree under
    ``CrashPlan``-wrapped schedules of every family, in both tiers.

    A wrapped schedule also exercises the generic ``steps_wide``
    adapter (the wrapper only implements ``steps``), so this doubles
    as the adapter's equivalence proof.
    """
    set_tier(monkeypatch, tier)
    factory = ENGINE_ALGORITHMS[alg_name]
    for seed in range(6):
        n = 6 + (seed % 5)
        ids = random_distinct_ids(n, seed=seed)
        plans = [
            {"crash_times": {0: 2 + seed}},
            {"crash_times": {0: 3, n // 2: 5}},
            {"crash_after": {1: 1, n - 1: 2}},
        ]
        for plan in plans:
            reference, fast, wide, batch = both_engines(
                factory, Cycle(n), ids,
                lambda: CrashPlan(sched_factory(seed), **plan),
            )
            assert reference == fast, (
                f"{alg_name}/{sched_name}/{plan} ({tier}): fast diverged"
            )
            assert reference == wide, (
                f"{alg_name}/{sched_name}/{plan} ({tier}): wide diverged"
            )
            assert reference == batch, (
                f"{alg_name}/{sched_name}/{plan} ({tier}): batch diverged"
            )


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_trace_and_register_recording_equivalence(alg_name):
    """Recorded traces are bit-identical too (generic fast path).

    ``record_registers=True`` makes every step carry a full register
    snapshot, so this compares the engines' visible memory word for
    word at every time index.
    """
    factory = ENGINE_ALGORITHMS[alg_name]
    for seed in range(5):
        n = 7
        ids = random_distinct_ids(n, seed=seed)
        for sched in (
            lambda: SynchronousScheduler(),
            lambda: BernoulliScheduler(p=0.4, seed=seed),
            lambda: RoundRobinScheduler(),
        ):
            reference, fast, wide, batch = both_engines(
                factory, Cycle(n), ids, sched,
                max_time=2_000, record_trace=True, record_registers=True,
            )
            assert reference.trace is not None and fast.trace is not None
            assert reference.trace == fast.trace
            assert reference == fast
            # A recording run through the wide engine falls back to the
            # generic path — the trace must still be bit-identical.
            assert wide.trace is not None
            assert reference.trace == wide.trace
            assert reference.trace == batch.trace
            assert reference == wide
            assert reference == batch


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_adversarial_gallery_equivalence(alg_name):
    """Structured adversaries and composite schedules, both engines."""
    factory = ENGINE_ALGORITHMS[alg_name]
    n = 9
    ids = random_distinct_ids(n, seed=3)
    adversaries = [
        lambda: SoloScheduler(pid=2, solo_steps=20),
        lambda: LateWakeupScheduler(sleepers=[0, 4], wake_time=25),
        lambda: SlowChainScheduler(slow=[1, 5], slowdown=5),
        lambda: StaggeredScheduler(stagger=2),
        lambda: AlternatingScheduler(),
        lambda: BurstScheduler(burst=3),
        lambda: GeometricRateScheduler(seed=1),
        lambda: InterleaveScheduler(
            RoundRobinScheduler(), SynchronousScheduler()
        ),
    ]
    for sched in adversaries:
        reference, fast, wide, batch = both_engines(
            factory, Cycle(n), ids, sched
        )
        assert reference == fast
        assert reference == wide
        assert reference == batch


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
@pytest.mark.parametrize("sched_name,sched_factory", SCHEDULER_FAMILIES)
def test_engines_emit_identical_metrics(alg_name, sched_name, sched_factory):
    """The metrics diff: beyond bit-identical results, the engines must
    emit bit-identical *instrumentation* (deterministic metrics, with
    the ``engine`` label and machine-dependent series excluded)."""
    from repro.obs.metrics import collecting

    factory = ENGINE_ALGORITHMS[alg_name]
    snapshots = {}
    for engine in ("reference",) + KERNEL_ENGINES:
        with collecting() as registry:
            for seed in range(5):
                n = 5 + (seed % 7)
                run_execution(
                    factory(), Cycle(n), random_distinct_ids(n, seed=seed),
                    sched_factory(seed), max_time=20_000, engine=engine,
                )
        snapshots[engine] = registry.deterministic_snapshot(
            ignore_labels=("engine",)
        )
    for engine in KERNEL_ENGINES:
        assert snapshots["reference"] == snapshots[engine], (
            f"{alg_name} under {sched_name}: {engine} metric emissions "
            f"diverged"
        )
    assert snapshots["fast"], "sweep emitted no deterministic metrics"


def test_generic_path_via_subclass_matches_reference():
    """Kernels dispatch on exact type; a subclass gets the generic
    fast path — which must also be bit-identical to the reference."""

    class Subclassed(FastFiveColoring):
        pass

    for seed in range(10):
        n = 8
        ids = random_distinct_ids(n, seed=seed)
        reference, fast, wide, batch = both_engines(
            Subclassed, Cycle(n), ids,
            lambda: BernoulliScheduler(p=0.3, seed=seed),
        )
        assert reference == fast
        assert reference == wide  # wide declines subclasses too
        assert reference == batch


def test_kernel_vs_generic_dispatch():
    """Tracing runs bypass the kernel; plain runs compile one."""
    alg = FastFiveColoring()
    plain = FastExecutor(Cycle(5), alg, [3, 11, 6, 14, 9])
    traced = FastExecutor(
        Cycle(5), alg, [3, 11, 6, 14, 9], record_trace=True
    )
    assert plain._kernel is not None
    assert traced._kernel is None


@pytest.mark.parametrize("alg_name", sorted(ENGINE_ALGORITHMS))
def test_path_topology_equivalence(alg_name):
    """Degree-1 endpoints (Path) hit the kernels' one-neighbor arms."""
    factory = ENGINE_ALGORITHMS[alg_name]
    for seed in range(5):
        n = 6
        ids = random_distinct_ids(n, seed=seed)
        reference, fast, wide, batch = both_engines(
            factory, Path(n), ids,
            lambda: UniformSubsetScheduler(seed=seed),
        )
        assert reference == fast
        assert reference == wide
        assert reference == batch


def test_max_time_exhaustion_equivalence():
    """Both engines cut off at the same time with the same flag."""
    for alg_name, factory in sorted(ENGINE_ALGORITHMS.items()):
        reference, fast, wide, batch = both_engines(
            factory, Cycle(9), random_distinct_ids(9, seed=0),
            lambda: BernoulliScheduler(p=0.2, seed=0),
            max_time=7,
        )
        assert reference == fast
        assert reference == wide
        assert reference == batch
        assert reference.final_time <= 7


def test_idle_cutoff_equivalence():
    """The idle-streak cutoff fires identically in both engines."""
    sched = lambda: FiniteSchedule([{0}] * 3 + [set()] * 40)
    alg = FastFiveColoring
    ids = [5, 1, 9]
    r1 = Executor(Cycle(3), alg(), ids).run(sched(), idle_limit=10)
    r2 = FastExecutor(Cycle(3), alg(), ids).run(sched(), idle_limit=10)
    assert r1 == r2
    # idle_limit=0 disables the cutoff in both.
    r3 = Executor(Cycle(3), alg(), ids).run(sched(), idle_limit=0)
    r4 = FastExecutor(Cycle(3), alg(), ids).run(sched(), idle_limit=0)
    assert r3 == r4
    assert r3.final_time > r1.final_time


def test_quiescence_skip_requires_declaration():
    """An algorithm that renounces view-determinism is never skipped.

    The impure algorithm below changes behavior on its k-th step with
    the *same* state and views — a contract violation the fast engine
    must not paper over once ``view_deterministic`` is False.  With the
    flag False, both engines agree (the fast engine re-steps every
    activation); this pins the gate, not the impure behavior.
    """
    from repro.core.algorithm import Algorithm, StepOutcome

    class CountingAlg(Algorithm):
        name = "counting"
        view_deterministic = False

        def __init__(self):
            self.calls = 0

        def initial_state(self, x_input):
            return ("s", x_input)

        def register_value(self, state):
            return state[1]

        def step(self, state, views):
            self.calls += 1
            if self.calls >= 12:
                return StepOutcome.ret(state, state[1])
            return StepOutcome.cont(state)  # identical state: a no-op

    reference = run_execution(
        CountingAlg(), Cycle(3), [1, 2, 3], SynchronousScheduler(),
        max_time=100, engine="reference",
    )
    fast = run_execution(
        CountingAlg(), Cycle(3), [1, 2, 3], SynchronousScheduler(),
        max_time=100, engine="fast",
    )
    assert reference == fast
    assert reference.all_terminated  # skipping would starve the counter


def test_unknown_engine_rejected():
    with pytest.raises(ExecutionError, match="unknown engine"):
        run_execution(
            FastFiveColoring(), Cycle(3), [1, 2, 3],
            SynchronousScheduler(), engine="warp",
        )
    assert set(ENGINES) == {"fast", "batch", "wide", "reference", "auto"}


def test_unknown_engine_rejected_eagerly_by_ensembles():
    """`run_ensemble` fails fast with the one-line message, before any
    run executes — not with a traceback from deep inside the grid."""
    from repro.analysis.ensembles import run_ensemble

    with pytest.raises(ExecutionError, match="unknown engine 'warp'"):
        run_ensemble(
            FastFiveColoring, Cycle(3), [[1, 2, 3]],
            [("sync", SynchronousScheduler())], engine="warp",
        )


def test_fast_executor_input_length_check():
    with pytest.raises(ExecutionError):
        FastExecutor(Cycle(4), FastFiveColoring(), [1, 2, 3])


def test_non_integer_inputs_flow_through_unchanged():
    """Kernels must not coerce identifiers; ``bool`` ids (an int
    subtype that must survive verbatim in outputs/states) prove it."""
    ids = [True, 3, 7]  # True == 1, a distinct-id set with a bool
    reference, fast, wide, batch = both_engines(
        FastFiveColoring, Cycle(3), ids, lambda: SynchronousScheduler()
    )
    assert reference == fast
    assert reference == wide
    assert reference == batch


def test_huge_identifiers_take_the_scalar_tier():
    """Identifiers ≥ 2⁵⁷ cannot live in exact int64 lanes; the wide
    engine must route them through its scalar tier, bit-identically."""
    from repro.analysis.inputs import huge_ids

    ids = huge_ids(7, seed=4)
    reference, fast, wide, batch = both_engines(
        FastFiveColoring, Cycle(7), ids, lambda: SynchronousScheduler()
    )
    assert reference == fast
    assert reference == wide
    assert reference == batch


# ----------------------------------------------------------------------
# engine="auto": contract safety of adaptive selection
# ----------------------------------------------------------------------


def test_auto_never_selects_a_contract_changing_engine():
    """Whatever ``auto`` picks must preserve the reference contract for
    the given request: recording and monitored runs land on engines
    that actually produce traces/registers and run monitors."""
    from repro.model.select import select_engine
    from repro.model.kernels import KERNELS
    from repro.obs.monitors import ActivationBudgetMonitor

    alg = FastFiveColoring()
    shapes = [
        dict(),
        dict(record_trace=True),
        dict(record_registers=True),
        dict(monitors=[ActivationBudgetMonitor(10)]),
    ]
    for n in (8, 5000):
        for sched in (SynchronousScheduler(), BernoulliScheduler(p=0.5)):
            for shape in shapes:
                choice = select_engine(alg, Cycle(n), sched, **shape)
                assert choice in ENGINES and choice != "auto"
                if shape.get("record_trace") or shape.get("record_registers"):
                    assert choice == "fast"  # only path producing history
                if shape.get("monitors"):
                    assert choice == "fast"  # only path running monitors
    # Unknown algorithm types and opaque schedules stay on fast.
    class Custom(FastFiveColoring):
        pass

    assert type(Custom()) not in KERNELS
    assert select_engine(Custom(), Cycle(5000), SynchronousScheduler()) == "fast"
    assert select_engine(
        alg, Cycle(5000), FiniteSchedule([{0, 1, 2}] * 5)
    ) == "fast"


def test_auto_traced_and_monitored_runs_keep_their_artifacts():
    """End-to-end: ``engine="auto"`` on a traced / register-recording /
    monitored run produces exactly the reference artifacts."""
    from repro.obs.monitors import ActivationBudgetMonitor

    n = 16
    ids = random_distinct_ids(n, seed=11)
    reference = run_execution(
        FastFiveColoring(), Cycle(n), ids, SynchronousScheduler(),
        record_trace=True, record_registers=True, engine="reference",
    )
    auto = run_execution(
        FastFiveColoring(), Cycle(n), ids, SynchronousScheduler(),
        record_trace=True, record_registers=True, engine="auto",
    )
    assert auto.trace is not None
    assert auto.trace == reference.trace
    assert auto == reference

    monitor = ActivationBudgetMonitor(1)
    run_execution(
        FastFiveColoring(), Cycle(n), ids, SynchronousScheduler(),
        monitors=[monitor], engine="auto",
    )
    assert not monitor.ok  # the monitor actually observed the run


def test_auto_results_bit_identical_and_selection_recorded():
    """``auto`` results equal the reference, and each decision lands in
    the ``engine_auto_selected_total`` counter with its reason."""
    from repro.obs.metrics import collecting

    n = 12
    ids = random_distinct_ids(n, seed=5)
    with collecting() as registry:
        auto = run_execution(
            FastFiveColoring(), Cycle(n), ids, BernoulliScheduler(p=0.5, seed=2),
            engine="auto",
        )
    reference = run_execution(
        FastFiveColoring(), Cycle(n), ids, BernoulliScheduler(p=0.5, seed=2),
        engine="reference",
    )
    assert auto == reference
    entry = registry.snapshot().get("engine_auto_selected_total")
    assert entry is not None and len(entry["samples"]) == 1
    sample = entry["samples"][0]
    assert sample["value"] == 1
    assert sample["labels"]["engine"] in ENGINES
    assert sample["labels"]["engine"] != "auto"
    assert "reason" in sample["labels"]
