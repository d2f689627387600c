"""The experiment harness shared by benchmarks, tests and the CLI.

Runs (algorithm × input family × scheduler) sweeps over ``n``, verifies
every execution against the paper's guarantees, and aggregates the
activation statistics into printable tables — the "rows the paper would
report" for experiments E1–E12 (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.verify import Verdict, inputs_properly_color, summarize
from repro.errors import ReproError
from repro.model.execution import run_execution
from repro.model.schedule import Schedule
from repro.model.topology import Cycle, Topology

__all__ = [
    "TrialRecord",
    "run_trial",
    "sweep",
    "scheduler_suite",
    "format_table",
]


@dataclass
class TrialRecord:
    """One (algorithm, topology, inputs, schedule) execution, verified."""

    algorithm: str
    topology: str
    n: int
    scheduler: str
    inputs_label: str
    seed: Optional[int]
    max_activations: int
    mean_activations: float
    terminated: int
    all_terminated: bool
    verdict: Verdict
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for table formatting."""
        row = {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "n": self.n,
            "scheduler": self.scheduler,
            "inputs": self.inputs_label,
            "max_act": self.max_activations,
            "mean_act": round(self.mean_activations, 2),
            "terminated": f"{self.terminated}/{self.n}",
            "proper": self.verdict.proper,
            "palette_ok": self.verdict.palette_ok,
        }
        row.update(self.extra)
        return row


def run_trial(
    algorithm,
    topology: Topology,
    inputs: Sequence[int],
    schedule: Schedule,
    *,
    palette: Optional[Iterable[Any]] = None,
    inputs_label: str = "custom",
    seed: Optional[int] = None,
    max_time: int = 1_000_000,
    require_proper_inputs: bool = True,
) -> TrialRecord:
    """Run one verified execution and record its statistics.

    Raises :class:`ReproError` when the inputs violate the algorithms'
    precondition (adjacent identifiers equal), unless explicitly
    disabled for negative tests.
    """
    if require_proper_inputs and not inputs_properly_color(topology, inputs):
        raise ReproError("inputs do not properly color the topology")
    result = run_execution(algorithm, topology, inputs, schedule, max_time=max_time)
    summary = summarize(topology, result, palette)
    return TrialRecord(
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        topology=topology.name,
        n=topology.n,
        scheduler=repr(schedule),
        inputs_label=inputs_label,
        seed=seed,
        max_activations=summary.round_complexity,
        mean_activations=summary.mean_activation,
        terminated=summary.terminated_count,
        all_terminated=summary.all_terminated,
        verdict=summary,
    )


def sweep(
    algorithm_factory: Callable[[], Any],
    n_values: Sequence[int],
    input_fn: Callable[[int], Sequence[int]],
    schedule_fn: Callable[[int], Schedule],
    *,
    palette: Optional[Iterable[Any]] = None,
    inputs_label: str = "custom",
    topology_fn: Callable[[int], Topology] = Cycle,
    max_time: int = 1_000_000,
) -> List[TrialRecord]:
    """Sweep one configuration over the cycle sizes ``n_values``.

    ``input_fn(n)`` and ``schedule_fn(n)`` build per-size inputs and
    schedules; a fresh algorithm object per trial keeps accidental
    cross-trial state impossible.
    """
    records = []
    for n in n_values:
        records.append(
            run_trial(
                algorithm_factory(),
                topology_fn(n),
                input_fn(n),
                schedule_fn(n),
                palette=palette,
                inputs_label=inputs_label,
                max_time=max_time,
            )
        )
    return records


def scheduler_suite(n: int, seeds: Sequence[int] = (0, 1, 2)) -> Dict[str, Schedule]:
    """The default cross-section of schedulers used by the E1/E3/E8
    verification ensembles: synchronous, sequential, random, and the
    proof-extracted adversaries."""
    # Imported here to keep analysis importable without the scheduler zoo.
    from repro.schedulers import (
        AlternatingScheduler,
        BernoulliScheduler,
        BlockRoundRobinScheduler,
        LateWakeupScheduler,
        RoundRobinScheduler,
        SlowChainScheduler,
        StaggeredScheduler,
        SynchronousScheduler,
        UniformSubsetScheduler,
    )

    suite: Dict[str, Schedule] = {
        "synchronous": SynchronousScheduler(),
        "round-robin": RoundRobinScheduler(),
        "block-rr-3": BlockRoundRobinScheduler(3),
        "alternating": AlternatingScheduler(),
        "staggered": StaggeredScheduler(stagger=2),
        "late-wakeup": LateWakeupScheduler(sleepers=range(0, n, 3), wake_time=5 * n + 10),
        "slow-chain": SlowChainScheduler(slow=range(n // 2), slowdown=7),
    }
    for s in seeds:
        suite[f"bernoulli-{s}"] = BernoulliScheduler(p=0.4, seed=s)
        suite[f"subset-{s}"] = UniformSubsetScheduler(seed=s)
    return suite


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered
    )
    return f"{header}\n{rule}\n{body}"
