"""The synchronous (lock-step, failure-free) scheduler.

Activates every process at every time step: the LOCAL-model schedule,
and the schedule under which the paper's round-complexity lower bound
(Property 2.2, via Linial) already bites.  Wait-free algorithms must of
course also work here, and this is the natural schedule for measuring
best-structured-case activation counts.
"""

from __future__ import annotations

from typing import Iterator

from repro.model.schedule import ActivationSet, Schedule

__all__ = ["SynchronousScheduler"]


class SynchronousScheduler(Schedule):
    """``σ(t) = {0, …, n−1}`` for every ``t`` up to ``horizon``.

    ``horizon`` only bounds the generator; for a terminating algorithm
    the engine stops as soon as everyone returns.
    """

    reusable = True  # horizon is immutable; iteration state per call

    def __init__(self, horizon: int = 10**9):
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        everyone = frozenset(range(n))
        for _ in range(self.horizon):
            yield everyone

    def expected_step_size(self, n: int) -> float:
        """Everyone is activated every step."""
        return float(n)

    @classmethod
    def steps_batch(cls, schedules, n: int, active):
        """Everyone, every lockstep, per-replica horizons respected."""
        everyone = range(n)
        B = len(schedules)
        horizons = [s.horizon for s in schedules]
        emitted = [0] * B
        while True:
            rows = [None] * B
            for i in range(B):
                if active[i] and emitted[i] < horizons[i]:
                    rows[i] = everyone
                    emitted[i] += 1
            yield rows

    def __repr__(self) -> str:
        return "SynchronousScheduler()"
