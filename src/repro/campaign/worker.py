"""Task execution: the pure function a campaign worker runs per task.

:func:`execute_task` maps a task *description* (a plain dict, see
:class:`repro.campaign.spec.TaskSpec`) to a :class:`TaskResult` — the
per-run measurements the aggregator needs, in a JSON-serializable
shape so results survive the journal round-trip byte-identically.

This module is imported inside worker *processes*; it must stay
importable without side effects and must not capture any parent-
process state beyond the registries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.analysis.verify import summarize
from repro.campaign import registry
from repro.campaign.spec import TaskSpec
from repro.model.execution import ExecutionResult, run_executions
from repro.model.topology import Topology
from repro.obs.trace import start_span

__all__ = [
    "TaskResult",
    "execute_task",
    "run_specs",
    "task_result_from_execution",
]


def _freeze_color(color: Any) -> Any:
    """Make a journal-round-tripped color hashable again.

    JSON turns tuple colors (e.g. Algorithm 1's triangular palette)
    into lists; aggregation needs them as dict keys.
    """
    if isinstance(color, list):
        return tuple(_freeze_color(c) for c in color)
    return color


@dataclass
class TaskResult:
    """Everything the campaign aggregator needs from one finished run."""

    task_hash: str
    terminated: bool
    terminated_count: int
    proper: bool
    palette_ok: bool
    max_activation: float
    mean_activation: float
    round_complexity: int
    final_time: int
    colors: List[Tuple[Any, int]]
    activation_histogram: List[Tuple[int, int]]
    elapsed: float

    @property
    def ok(self) -> bool:
        """Whether the run satisfied all three verified guarantees."""
        return self.terminated and self.proper and self.palette_ok

    def to_dict(self) -> Dict[str, Any]:
        return {
            **vars(self),
            "colors": [[c, k] for c, k in self.colors],
            "activation_histogram": [[a, k] for a, k in self.activation_histogram],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TaskResult":
        return cls(
            task_hash=d["task_hash"],
            terminated=bool(d["terminated"]),
            terminated_count=int(d["terminated_count"]),
            proper=bool(d["proper"]),
            palette_ok=bool(d["palette_ok"]),
            max_activation=float(d["max_activation"]),
            mean_activation=float(d["mean_activation"]),
            round_complexity=int(d["round_complexity"]),
            final_time=int(d["final_time"]),
            colors=[(_freeze_color(c), int(k)) for c, k in d["colors"]],
            activation_histogram=[
                (int(a), int(k)) for a, k in d["activation_histogram"]
            ],
            elapsed=float(d["elapsed"]),
        )


def task_result_from_execution(
    spec: TaskSpec,
    topology: Any,
    result: Any,
    palette: Any,
    elapsed: float,
) -> TaskResult:
    """Verify one finished execution and distill it into a TaskResult.

    Shared by :func:`execute_task` (one run at a time) and the batch
    backend (one lockstep run covering many tasks): both paths must
    produce byte-identical result rows for the same execution, which
    is what keeps batched and per-run journals interchangeable.
    """
    summary = summarize(topology, result, palette)
    return TaskResult(
        task_hash=spec.task_hash,
        terminated=summary.all_terminated,
        terminated_count=summary.terminated_count,
        proper=summary.proper,
        palette_ok=summary.palette_ok,
        max_activation=float(summary.round_complexity),
        mean_activation=summary.mean_activation,
        round_complexity=summary.round_complexity,
        final_time=summary.final_time,
        colors=sorted(summary.colors.items(), key=lambda kv: repr(kv[0])),
        activation_histogram=sorted(summary.activation_histogram.items()),
        elapsed=elapsed,
    )


def run_specs(
    specs: Sequence[Any], engine: str
) -> Tuple[Topology, Iterable[ExecutionResult]]:
    """Resolve run descriptions and run them: the one resolver.

    ``specs`` are :class:`~repro.campaign.spec.TaskSpec`\\ s or
    :class:`~repro.service.schema.ColorRequest`\\ s (same field names)
    sharing ``topology``, ``n`` and ``max_time``; returns the topology,
    resolved once, and :func:`~repro.model.execution.run_executions`'s
    results in spec order.  The resolvers are read through the
    :mod:`repro.campaign.registry` module at call time, so a wrapper
    installed there sees every call.
    """
    first = specs[0]
    topology = registry.resolve_topology(first.topology, first.n)
    results = run_executions(
        [registry.resolve_algorithm(s.algorithm)() for s in specs],
        topology,
        (registry.resolve_inputs(s.inputs, s.n, s.seed) for s in specs),
        (
            registry.resolve_schedule(
                s.schedule, seed=s.seed, **dict(s.schedule_params)
            )
            for s in specs
        ),
        max_time=first.max_time,
        engine=engine,
    )
    return topology, results


def execute_task(task: Mapping[str, Any]) -> TaskResult:
    """Run one task description end to end and measure it.

    Deterministic up to ``elapsed``: the same description always
    produces the same execution and verification outcome, which is
    what makes journal-based resume sound.
    """
    spec = TaskSpec.from_dict(task)
    started = time.perf_counter()

    with start_span(
        "campaign.execute",
        task_hash=spec.task_hash,
        algorithm=spec.algorithm,
        engine=spec.engine,
    ):
        topology, (result,) = run_specs([spec], spec.engine)
    return task_result_from_execution(
        spec, topology, result, registry.resolve_palette(spec.algorithm),
        elapsed=time.perf_counter() - started,
    )
