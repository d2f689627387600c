"""Randomized asynchronous schedulers.

Random schedules are the workhorse of the experimental harness: the
true worst case is a supremum over all schedules, which we approximate
by (large ensembles of) random schedules plus the structured
adversaries of :mod:`repro.schedulers.adversarial`.  All randomness is
seeded — a scheduler object with a given seed is replayable, and
:class:`~repro.model.schedule.RecordedSchedule` can pin down any
interesting run exactly.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

from repro.errors import ScheduleError
from repro.model.schedule import ActivationSet, Schedule

__all__ = [
    "BernoulliScheduler",
    "UniformSubsetScheduler",
    "GeometricRateScheduler",
]


class BernoulliScheduler(Schedule):
    """Each process is independently activated with probability ``p``.

    ``p = 1`` is the synchronous schedule; small ``p`` produces sparse,
    highly-interleaved executions.  Steps that come out empty are
    re-drawn (they would only waste simulated time).
    """

    reusable = True  # (p, seed, horizon) are immutable; state per call

    def __init__(self, p: float = 0.5, seed: int = 0, horizon: int = 10**9):
        if not (0 < p <= 1):
            raise ScheduleError(f"activation probability must be in (0, 1], got {p}")
        self.p = p
        self.seed = seed
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        # An empty draw is redrawn, consuming ``n`` further RNG values
        # exactly like a fresh draw — the replayability contract (a
        # given seed always produces the same step stream, redraws
        # included).
        rng = random.Random(self.seed)
        p = self.p
        for _ in range(self.horizon):
            while True:
                step = [i for i in range(n) if rng.random() < p]
                if step:
                    break
            yield frozenset(step)

    def expected_step_size(self, n: int) -> float:
        """The mean of Binomial(n, p), ignoring redrawn empty steps."""
        return self.p * n

    @classmethod
    def steps_batch(cls, schedules, n: int, active):
        """Vectorized lockstep draws over a bank of MT19937 streams.

        Draws one ``(live, n)`` matrix of doubles per lockstep and
        compares against each stream's ``p``; rows that come out empty
        are re-drawn (``n`` further doubles each), replicating
        :meth:`steps`'s consumption exactly — stream ``i`` sees the
        same doubles, in the same order, as ``random.Random(seed_i)``
        would, so the yielded masks match ``steps`` step by step.
        Retired replicas stop consuming entirely.  Without numpy this
        is the base class's adapter over ``steps``.
        """
        from repro.model.batch import MTBatch, load_numpy

        np = load_numpy()
        if np is None:
            yield from Schedule.steps_batch(schedules, n, active)
            return
        B = len(schedules)
        mt = MTBatch([s.seed for s in schedules], np)
        ps = np.array([s.p for s in schedules], dtype=np.float64)
        horizons = [s.horizon for s in schedules]
        emitted = [0] * B
        retired = [False] * B
        while True:
            rows = [None] * B
            live = []
            for i in range(B):
                if retired[i]:
                    continue
                if not active[i] or emitted[i] >= horizons[i]:
                    retired[i] = True
                    mt.retire(i)
                    continue
                live.append(i)
            if live:
                masks = mt.take(live, n) < ps[live][:, None]
                pending = np.nonzero(~masks.any(axis=1))[0]
                while len(pending):
                    redraw = [live[k] for k in pending]
                    sub = mt.take(redraw, n) < ps[redraw][:, None]
                    masks[pending] = sub
                    pending = pending[~sub.any(axis=1)]
                for k, i in enumerate(live):
                    rows[i] = masks[k]
                    emitted[i] += 1
            yield rows

    def __repr__(self) -> str:
        return f"BernoulliScheduler(p={self.p}, seed={self.seed})"


class UniformSubsetScheduler(Schedule):
    """Each step activates a uniformly random non-empty subset.

    Unlike :class:`BernoulliScheduler` the subset *size* is first drawn
    uniformly from ``1..n``, producing a fatter tail of near-solo and
    near-synchronous steps.
    """

    reusable = True  # (seed, horizon) are immutable; state per call

    def __init__(self, seed: int = 0, horizon: int = 10**9):
        self.seed = seed
        self.horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        rng = random.Random(self.seed)
        ids = list(range(n))
        for _ in range(self.horizon):
            size = rng.randint(1, n)
            yield frozenset(rng.sample(ids, size))

    def expected_step_size(self, n: int) -> float:
        """The mean of the uniform size draw from ``1..n``."""
        return (n + 1) / 2

    def __repr__(self) -> str:
        return f"UniformSubsetScheduler(seed={self.seed})"


class GeometricRateScheduler(Schedule):
    """Heterogeneous process speeds via per-process activation rates.

    Process ``i`` is activated at each step with probability
    ``rates[i]``; with ``rates`` spanning orders of magnitude this
    models a mix of fast and nearly-crashed processes — the "moderately
    slow neighbor" regime central to the Theorem 4.4 analysis.
    """

    reusable = True  # params immutable; iteration state per call

    def __init__(
        self,
        rates: Optional[Sequence[float]] = None,
        *,
        slow_fraction: float = 0.25,
        slow_rate: float = 0.02,
        fast_rate: float = 0.9,
        seed: int = 0,
        horizon: int = 10**9,
    ):
        if rates is not None:
            for r in rates:
                if not (0 < r <= 1):
                    raise ScheduleError(f"rates must lie in (0, 1], got {r}")
        if not (0 <= slow_fraction <= 1):
            raise ScheduleError("slow_fraction must lie in [0, 1]")
        self.rates = list(rates) if rates is not None else None
        self.slow_fraction = slow_fraction
        self.slow_rate = slow_rate
        self.fast_rate = fast_rate
        self.seed = seed
        self.horizon = horizon

    def _resolve_rates(self, n: int, rng: random.Random) -> Sequence[float]:
        if self.rates is not None:
            if len(self.rates) != n:
                raise ScheduleError(
                    f"got {len(self.rates)} rates for {n} processes"
                )
            return self.rates
        n_slow = int(round(self.slow_fraction * n))
        slow = set(rng.sample(range(n), n_slow))
        return [self.slow_rate if i in slow else self.fast_rate for i in range(n)]

    def steps(self, n: int) -> Iterator[ActivationSet]:
        rng = random.Random(self.seed)
        rates = self._resolve_rates(n, rng)
        for _ in range(self.horizon):
            step = frozenset(i for i in range(n) if rng.random() < rates[i])
            if step:
                yield step
            else:
                # Avoid burning simulated time on global idleness.
                yield frozenset({rng.randrange(n)})

    def __repr__(self) -> str:
        return (
            f"GeometricRateScheduler(slow_fraction={self.slow_fraction}, "
            f"seed={self.seed})"
        )
