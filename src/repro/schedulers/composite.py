"""Combinators over schedules.

Build complex adversaries from simple ones: concatenate phases, give
each process exclusive bursts, or interleave two schedules.  Crash
censoring lives in :mod:`repro.model.faults` (it wraps any of these).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.errors import ScheduleError
from repro.model.schedule import ActivationSet, Schedule, validate_step

__all__ = ["ConcatScheduler", "BurstScheduler", "InterleaveScheduler"]


class ConcatScheduler(Schedule):
    """Run each ``(schedule, steps)`` phase in sequence.

    The last phase may have ``steps=None`` meaning "until that schedule
    ends" (use an infinite schedule there to keep the execution going).
    """

    def __init__(self, phases: Sequence[Tuple[Schedule, int]]):
        if not phases:
            raise ScheduleError("ConcatScheduler needs at least one phase")
        for schedule, steps in phases[:-1]:
            if steps is None or steps < 0:
                raise ScheduleError(
                    "only the last phase may be unbounded (steps=None)"
                )
        self.phases = list(phases)

    def steps(self, n: int) -> Iterator[ActivationSet]:
        for schedule, budget in self.phases:
            count = 0
            for step in schedule.steps(n):
                if budget is not None and count >= budget:
                    break
                yield validate_step(step, n)
                count += 1

    def __repr__(self) -> str:
        return f"ConcatScheduler(phases={len(self.phases)})"


class BurstScheduler(Schedule):
    """Each process in turn takes a burst of ``burst`` consecutive solo
    steps, cycling forever.

    This is the obstruction-freedom probe of the paper's §1.3: each
    process repeatedly gets to "take multiple consecutive steps by
    itself".
    """

    def __init__(self, burst: int = 4, horizon: int = 10**9):
        if burst < 1:
            raise ScheduleError("burst must be >= 1")
        self.burst = burst
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        emitted = 0
        while emitted < self.horizon:
            for p in range(n):
                me = frozenset({p})
                for _ in range(self.burst):
                    yield me
                    emitted += 1
                    if emitted >= self.horizon:
                        return

    def __repr__(self) -> str:
        return f"BurstScheduler(burst={self.burst})"


class InterleaveScheduler(Schedule):
    """Alternate steps of two schedules: a₁, b₁, a₂, b₂, …

    Ends when either constituent ends.
    """

    def __init__(self, first: Schedule, second: Schedule):
        self.first = first
        self.second = second

    def steps(self, n: int) -> Iterator[ActivationSet]:
        a = self.first.steps(n)
        b = self.second.steps(n)
        while True:
            try:
                yield validate_step(next(a), n)
                yield validate_step(next(b), n)
            except StopIteration:
                return

    def __repr__(self) -> str:
        return f"InterleaveScheduler({self.first!r}, {self.second!r})"
