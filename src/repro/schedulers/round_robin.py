"""Round-robin schedulers: maximal sequentialization.

One process at a time (or ``k`` at a time) in rotating order — the
opposite extreme from the synchronous schedule, and the regime in which
asynchronous interleaving effects (a process seeing many updates of one
neighbor between two of its own steps) are most pronounced.
"""

from __future__ import annotations

from operator import index
from typing import Iterator

from repro.errors import ScheduleError
from repro.model.schedule import ActivationSet, Schedule

__all__ = ["RoundRobinScheduler", "BlockRoundRobinScheduler"]


class RoundRobinScheduler(Schedule):
    """``σ(t) = {(t − 1 + offset) mod n}`` — one process per step."""

    reusable = True  # (offset, horizon) immutable; state per call

    def __init__(self, offset: int = 0, horizon: int = 10**9):
        self.offset = index(offset)  # TypeError now, not mid-run
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        # One shared singleton per process, built on first use.
        singletons = [None] * n
        for t in range(self.horizon):
            p = (t + self.offset) % n
            me = singletons[p]
            if me is None:
                me = singletons[p] = frozenset((p,))
            yield me

    def __repr__(self) -> str:
        return f"RoundRobinScheduler(offset={self.offset})"


class BlockRoundRobinScheduler(Schedule):
    """Rotating contiguous blocks of ``k`` processes per step.

    ``k = 1`` degenerates to :class:`RoundRobinScheduler`; ``k = n``
    degenerates to the synchronous schedule.
    """

    reusable = True  # (k, offset, horizon) immutable; state per call

    def __init__(self, k: int, offset: int = 0, horizon: int = 10**9):
        if index(k) < 1:
            raise ScheduleError(f"block size must be >= 1, got {k}")
        self.k = k
        self.offset = index(offset)
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        k = min(self.k, n)
        for t in range(self.horizon):
            start = (t * k + self.offset) % n
            yield frozenset((start + i) % n for i in range(k))

    def __repr__(self) -> str:
        return f"BlockRoundRobinScheduler(k={self.k}, offset={self.offset})"
