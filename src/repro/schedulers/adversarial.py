"""Structured adversaries extracted from the paper's proofs.

The running time of a wait-free algorithm is a supremum over all
schedules (§2.2); these schedulers realize the scheduling patterns the
proofs identify as hard:

* :class:`SoloScheduler` — one process runs alone (obstruction-style
  progress; the regime of the ``b_p`` subcomponent, §1.3);
* :class:`LateWakeupScheduler` — a subset sleeps for a long prefix
  (their registers read ``⊥``; Lemma 3.2's "not yet activated" case);
* :class:`SlowChainScheduler` — a set of processes is activated only
  every ``k``-th step, starving a monotone identifier chain (the
  blocked-chain scenario of Lemmas 4.7–4.10);
* :class:`StaggeredScheduler` — process ``i`` wakes at time
  ``1 + i·stagger``, maximizing information-propagation skew;
* :class:`AlternatingScheduler` — bipartition alternates steps,
  producing maximal neighbor-view staleness on even cycles.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Set

from repro.errors import ScheduleError
from repro.model.schedule import ActivationSet, Schedule

__all__ = [
    "SoloScheduler",
    "LateWakeupScheduler",
    "SlowChainScheduler",
    "StaggeredScheduler",
    "AlternatingScheduler",
]


class SoloScheduler(Schedule):
    """Process ``pid`` takes ``solo_steps`` steps alone, then everyone runs.

    With ``solo_steps`` large this is the classic wait-freedom probe: a
    process must terminate without any help (its neighbors' registers
    stay ``⊥`` or frozen for the whole prefix).
    """

    def __init__(self, pid: int, solo_steps: int = 64, horizon: int = 10**9):
        if solo_steps < 0:
            raise ScheduleError("solo_steps must be >= 0")
        self.pid = pid
        self.solo_steps = solo_steps
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        if not (0 <= self.pid < n):
            raise ScheduleError(f"solo process {self.pid} out of range (n={n})")
        me = frozenset({self.pid})
        for _ in range(self.solo_steps):
            yield me
        everyone = frozenset(range(n))
        for _ in range(self.horizon):
            yield everyone

    def __repr__(self) -> str:
        return f"SoloScheduler(pid={self.pid}, solo_steps={self.solo_steps})"


class LateWakeupScheduler(Schedule):
    """``sleepers`` take no step before time ``wake_time``; others are
    activated every step throughout."""

    def __init__(self, sleepers: Iterable[int], wake_time: int, horizon: int = 10**9):
        if wake_time < 1:
            raise ScheduleError("wake_time must be >= 1")
        self.sleepers: Set[int] = set(sleepers)
        self.wake_time = wake_time
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        awake_only = frozenset(p for p in range(n) if p not in self.sleepers)
        everyone = frozenset(range(n))
        for t in range(1, self.horizon + 1):
            yield everyone if t >= self.wake_time else awake_only

    def __repr__(self) -> str:
        return (
            f"LateWakeupScheduler(sleepers={sorted(self.sleepers)}, "
            f"wake_time={self.wake_time})"
        )


class SlowChainScheduler(Schedule):
    """``slow`` processes step only every ``slowdown``-th time step.

    Against Algorithm 3 this starves the green-light handshake along a
    chain: fast neighbors of slow processes get blocked (``r_p`` stuck
    at the slow neighbor's published value), which is precisely the
    regime Lemmas 4.7–4.10 show still terminates in O(log* n) fast
    steps.
    """

    def __init__(self, slow: Iterable[int], slowdown: int = 10, horizon: int = 10**9):
        if slowdown < 1:
            raise ScheduleError("slowdown must be >= 1")
        self.slow: Set[int] = set(slow)
        self.slowdown = slowdown
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        fast = frozenset(p for p in range(n) if p not in self.slow)
        everyone = frozenset(range(n))
        for t in range(1, self.horizon + 1):
            yield everyone if t % self.slowdown == 0 else fast

    def __repr__(self) -> str:
        return (
            f"SlowChainScheduler(slow={sorted(self.slow)}, "
            f"slowdown={self.slowdown})"
        )


class StaggeredScheduler(Schedule):
    """Process ``i`` first wakes at time ``1 + i·stagger``, then runs
    every step.

    With ``stagger ≥ 1`` this produces the maximal wake-up skew
    realizable with ``n`` processes, exercising all ``⊥``-view code
    paths in id order.
    """

    def __init__(self, stagger: int = 1, horizon: int = 10**9):
        if index(stagger) < 0:
            raise ScheduleError("stagger must be >= 0")
        self.stagger = stagger
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        # Process i is awake iff i·stagger ≤ t − 1: the awake set is a
        # prefix of 0..n−1, rebuilt only when it grows.
        awake: ActivationSet = frozenset()
        for t in range(1, self.horizon + 1):
            size = n if self.stagger == 0 else min(n, (t - 1) // self.stagger + 1)
            if size != len(awake):
                awake = frozenset(range(size))
            yield awake if awake else frozenset({0})

    def __repr__(self) -> str:
        return f"StaggeredScheduler(stagger={self.stagger})"


class AlternatingScheduler(Schedule):
    """Even-id processes on odd times, odd-id processes on even times.

    On an even cycle this is a proper 2-coloring of the schedule: every
    activated process reads only registers last written in the previous
    step, the maximal-staleness regime.
    """

    def __init__(self, horizon: int = 10**9):
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        evens = frozenset(i for i in range(n) if i % 2 == 0)
        odds = frozenset(i for i in range(n) if i % 2 == 1)
        if not odds:  # n == 1 degenerate case
            odds = evens
        for t in range(1, self.horizon + 1):
            yield evens if t % 2 == 1 else odds

    def __repr__(self) -> str:
        return "AlternatingScheduler()"
