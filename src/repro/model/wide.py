"""The wide engine: one run through the plane engine (B = 1).

``engine="wide"`` names a single, node-vectorized execution — an entire
activation set per Python-level step, which is what makes single runs
at ``n = 10⁶⁺`` tractable, the regime where the paper's ``⌊3n/2⌋+4``
/ ``O(n)`` / ``O(log* n)`` scaling claims (Theorems 3.1 and 4.1) stop
being measurable under a per-activation interpreter loop.

There is no second kernel here: a single run is the plane engine of
:mod:`repro.model.batch` at ``B = 1``, drawing its steps through
:meth:`~repro.model.schedule.Schedule.steps_wide` (the one-replica
view of ``steps_batch``).  Without numpy, or with identifiers outside
exact int64 lanes, the run takes the scalar kernel of
:mod:`repro.model.kernels`.  This module keeps the single-run entry
points and their observability: ``engine_run`` spans carry
``engine="wide"``, the ``tier`` that ran (``vector``/``scalar``), the
count of vectorized steps and the mean frontier occupancy.
"""

from __future__ import annotations

from time import perf_counter
from time import time as wall_clock
from typing import Any, List, Optional

from repro.errors import ExecutionError
from repro.model.batch import BATCH_KERNELS
from repro.model.execution import DEFAULT_MAX_TIME, ExecutionResult
from repro.model.schedule import Schedule
from repro.model.topology import Topology
from repro.obs.metrics import active_registry, record_execution
from repro.obs.spans import span
from repro.obs.trace import is_recording, record_timed

__all__ = ["build_wide_kernel", "run_wide"]


def build_wide_kernel(algorithm, topology: Topology, inputs: List[Any]):
    """The one-replica plane runner for this configuration, or ``None``.

    The runner maps ``(schedule, max_time, idle_limit)`` to
    ``(ExecutionResult, stats)``.  Exact-type dispatch over
    :data:`~repro.model.batch.BATCH_KERNELS`: a subclass may override
    ``step`` and silently change semantics, so it never matches.
    """
    factory = BATCH_KERNELS.get(type(algorithm))
    if factory is None:
        return None
    with span("engine_kernel_build", algorithm=type(algorithm).__name__):
        kernel = factory([algorithm], topology, [inputs])
    if kernel is None:
        return None

    def run(schedule, max_time, idle_limit):
        results, stats = kernel([schedule], max_time, idle_limit)
        return results[0], stats

    return run


def run_wide(
    algorithm: Any,
    topology: Topology,
    inputs: Any,
    schedule: Schedule,
    *,
    max_time: int = DEFAULT_MAX_TIME,
    idle_limit: int = 10_000,
) -> Optional[ExecutionResult]:
    """One run through the plane engine, or ``None``.

    Returns ``None`` when no kernel covers this configuration
    (unregistered algorithm type, unsupported topology) — callers fall
    back to the fast engine.  The result is bit-identical to the
    reference :class:`~repro.model.execution.Executor`.
    """
    inputs = list(inputs)
    if len(inputs) != topology.n:
        raise ExecutionError(
            f"got {len(inputs)} inputs for {topology.n} processes"
        )
    kernel = build_wide_kernel(algorithm, topology, inputs)
    if kernel is None:
        return None
    registry = active_registry()
    if registry is None and not is_recording():
        result, _stats = kernel(schedule, max_time, idle_limit)
        return result
    started = perf_counter()
    wall = wall_clock()
    result, stats = kernel(schedule, max_time, idle_limit)
    elapsed = perf_counter() - started
    alg_name = type(algorithm).__name__
    steps = stats["work_steps"]
    occupancy = stats["working_sum"] / (steps * topology.n) if steps else 0.0
    if registry is not None:
        registry.inc(
            "wide_steps_total", steps, algorithm=alg_name, path="dense",
        )
        registry.observe("wide_frontier_occupancy", occupancy)
        registry.observe("wide_run_seconds", elapsed)
        record_execution(registry, "wide", alg_name, result, elapsed=elapsed)
    record_timed(
        "engine_run", wall, elapsed,
        {"engine": "wide", "algorithm": alg_name, "tier": stats["tier"],
         "dense_steps": steps, "sparse_steps": 0,
         "occupancy": round(occupancy, 4)},
    )
    return result
