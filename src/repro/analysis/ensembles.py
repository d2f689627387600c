"""Ensemble statistics: distributions over many verified executions.

The worst case is a supremum over schedules, so single runs say little;
this module aggregates *ensembles* — (scheduler × seed × input) grids —
into distribution summaries (min/mean/percentiles/max of activation
counts, termination rates, palette usage) used by the experiment
harness, the adversary-gallery example and the E-benchmark tables.
Histograms are plain dicts so reports stay dependency-free.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.verify import summarize
from repro.model.execution import run_executions
from repro.model.schedule import Schedule
from repro.model.topology import Topology

__all__ = ["Distribution", "EnsembleReport", "run_ensemble"]


@dataclass
class Distribution:
    """Summary statistics of one scalar sample."""

    count: int
    minimum: float
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Distribution":
        """Summarize a non-empty sample."""
        if not values:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(values)
        n = len(ordered)

        def pct(q: float) -> float:
            return float(ordered[min(n - 1, int(math.ceil(q * n)) - 1)])

        return cls(
            count=n,
            minimum=float(ordered[0]),
            mean=sum(ordered) / n,
            p50=pct(0.50),
            p95=pct(0.95),
            p99=pct(0.99),
            maximum=float(ordered[-1]),
        )

    def __str__(self) -> str:
        return (
            f"min={self.minimum:g} mean={self.mean:.2f} p50={self.p50:g} "
            f"p95={self.p95:g} p99={self.p99:g} max={self.maximum:g} "
            f"(n={self.count})"
        )


@dataclass
class EnsembleReport:
    """Aggregated verdicts and distributions of one ensemble."""

    runs: int
    terminated_runs: int
    proper_runs: int
    palette_ok_runs: int
    max_activations: Distribution
    mean_activations: Distribution
    colors_used: Dict[Any, int] = field(default_factory=dict)
    activation_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        """All runs terminated, proper and within palette."""
        return (
            self.runs
            == self.terminated_runs
            == self.proper_runs
            == self.palette_ok_runs
        )

    def __str__(self) -> str:
        return (
            f"runs={self.runs} terminated={self.terminated_runs} "
            f"proper={self.proper_runs} palette_ok={self.palette_ok_runs}\n"
            f"max activations : {self.max_activations}\n"
            f"mean activations: {self.mean_activations}\n"
            f"colors used     : {sorted(self.colors_used, key=repr)}"
        )


def _fresh_schedule(entry: Union[Schedule, Callable[[], Schedule]]) -> Schedule:
    """A schedule instance private to one run.

    ``Schedule.steps`` is *supposed* to restart per call, but nothing
    enforces it: a stateful schedule (consuming an iterator, popping
    from a shared list, advancing an RNG stored on ``self``) would
    silently leak state across the grid and corrupt every run after
    the first.  So each run gets its own instance — zero-argument
    factories are called, plain schedules are deep-copied — *unless*
    the schedule declares :attr:`~repro.model.schedule.Schedule.
    reusable` (immutable parameters, all iteration state created per
    ``steps`` call), in which case the deep copy would only clone
    frozen parameters and the instance is shared as-is.

    The declaration is honored only when it appears on the *exact*
    class of the instance (mirroring kernel exact-type dispatch): a
    subclass inherits the attribute but may add mutable state its base
    never had, so inherited ``reusable = True`` still deep-copies.
    """
    if isinstance(entry, Schedule):
        if "reusable" in vars(type(entry)) and entry.reusable:
            return entry
        return copy.deepcopy(entry)
    if callable(entry):
        return entry()
    raise TypeError(
        f"expected a Schedule or a zero-argument schedule factory, got {entry!r}"
    )


def run_ensemble(
    algorithm_factory: Callable[[], Any],
    topology: Topology,
    inputs_list: Iterable[Sequence[int]],
    schedules: Iterable[Tuple[str, Union[Schedule, Callable[[], Schedule]]]],
    *,
    palette: Optional[Iterable[Any]] = None,
    max_time: int = 200_000,
    engine: str = "fast",
) -> EnsembleReport:
    """Run the (inputs × schedule) grid, verify everything, aggregate.

    ``schedules`` yields ``(label, schedule_or_factory)`` pairs.  Every
    run of the grid executes against a *fresh* schedule instance (a
    deep copy, or a new factory call; schedules declaring
    ``reusable = True`` are shared as-is) so that stateful schedules
    cannot leak consumed steps or RNG state across runs — see
    :func:`_fresh_schedule`.  ``engine`` selects the execution engine
    for every run of the grid (see
    :data:`repro.model.execution.ENGINES`) and packs it by the rule of
    :func:`repro.model.execution.run_executions`: ``engine="batch"``,
    or ``"auto"`` over more than one run, is one lockstep
    :func:`repro.model.batch.run_batch` call (same aggregates,
    bit-identical per-run results; a configuration no batched kernel
    covers runs per replica on the fast engine inside ``run_batch``);
    any other engine runs and folds one run at a time.
    """
    palette_list = list(palette) if palette is not None else None

    schedule_pairs = list(schedules)
    grid: List[Tuple[Sequence[int], Schedule]] = [
        (inputs, _fresh_schedule(schedule_entry))
        for inputs in inputs_list
        for _label, schedule_entry in schedule_pairs
    ]

    results = run_executions(
        [algorithm_factory() for _ in grid],
        topology,
        [inputs for inputs, _ in grid],
        [schedule for _, schedule in grid],
        max_time=max_time,
        engine=engine,
    )
    summaries = [summarize(topology, result, palette_list) for result in results]
    colors: Counter = Counter()
    histogram: Counter = Counter()
    for summary in summaries:
        colors.update(summary.colors)
        histogram.update(summary.activation_histogram)
    return EnsembleReport(
        runs=len(summaries),
        terminated_runs=sum(s.all_terminated for s in summaries),
        proper_runs=sum(s.proper for s in summaries),
        palette_ok_runs=sum(s.palette_ok for s in summaries),
        max_activations=Distribution.of([s.round_complexity for s in summaries]),
        mean_activations=Distribution.of([s.mean_activation for s in summaries]),
        colors_used=dict(colors),
        activation_histogram=dict(histogram),
    )
