"""Schedules: the adversary's choice of who is activated when (§2.2).

An execution in the paper's model is fully determined by the algorithm,
the topology, the input identifiers, and the *schedule*
``σ = σ(1), σ(2), …`` where ``σ(t)`` is the set of processes activated
at time ``t``.  Multiple processes activated at the same time behave as
if they all wrote first, then all read (Equation (1)); this is realized
by :class:`~repro.model.execution.Executor`.

This module provides the abstract :class:`Schedule` protocol plus the
plumbing adapters; concrete adversaries (synchronous, round-robin,
random, proof-extracted adversaries) live in :mod:`repro.schedulers`.

A schedule yields ``frozenset`` activation sets and may be infinite; the
engine restricts each ``σ(t)`` to *working* processes (the paper's
``σ̄``) and stops as soon as every process has returned, so an infinite
schedule does not mean an infinite execution for a wait-free algorithm.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, List, Sequence, Union

from repro.errors import ScheduleError
from repro.types import ProcessId

__all__ = [
    "ActivationSet",
    "FastStep",
    "Schedule",
    "FiniteSchedule",
    "FunctionSchedule",
    "RecordedSchedule",
    "validate_step",
]

ActivationSet = FrozenSet[ProcessId]

#: What :meth:`Schedule.steps_fast` yields: any reusable, duplicate-free
#: iterable of process ids (tuple, list, range, or the frozensets of the
#: default adapter).  The fast engine only iterates it, so schedulers
#: may yield the *same* object every step instead of building a fresh
#: ``frozenset`` per step.
FastStep = Union[Sequence[ProcessId], FrozenSet[ProcessId], range]


def validate_step(step: Iterable[ProcessId], n: int) -> ActivationSet:
    """Normalize one activation set and check its process ids.

    Empty steps are legal (they model global idle time) but the engine
    skips them at zero cost.
    """
    s = frozenset(step)
    for p in s:
        if not (0 <= p < n):
            raise ScheduleError(f"schedule activates unknown process {p} (n={n})")
    return s


class Schedule:
    """Abstract schedule: an iterable of activation sets.

    Subclasses implement :meth:`steps`; a schedule object is reusable —
    every call to :meth:`steps` starts a fresh iteration (important for
    running the same adversary against several algorithms).
    """

    #: Whether :meth:`steps` can be called repeatedly on the *same*
    #: instance with identical results — i.e. iteration state lives
    #: entirely in the generator frame, not on the object.  Ensemble
    #: runners deep-copy non-reusable schedules before every run (the
    #: stateful-schedule-reuse fix); declaring ``reusable = True`` lets
    #: them skip that copy.  Default ``False``: copying a reusable
    #: schedule is only slow, reusing a stateful one is *wrong*.
    reusable: bool = False

    def steps(self, n: int) -> Iterator[ActivationSet]:
        """Yield ``σ(1), σ(2), …`` for a system of ``n`` processes."""
        raise NotImplementedError

    def steps_fast(self, n: int) -> Iterator[FastStep]:
        """Yield the same steps as :meth:`steps`, allocation-lean.

        The fast execution engine iterates activation steps without ever
        needing set semantics, so this method may yield any duplicate-free
        iterable of process ids — a reused tuple, a ``range``, a list —
        instead of materializing a fresh ``frozenset`` per step.

        Contract: ``list(map(sorted, steps_fast(n)))`` must equal
        ``list(map(sorted, steps(n)))`` — same steps, same order, and for
        seeded schedulers the *same RNG stream consumption* — and every
        yielded step must be duplicate-free.  The default adapter simply
        delegates to :meth:`steps` (correct for any subclass, including
        wrappers like crash plans); the built-in scheduler families
        override it to skip the per-step ``frozenset`` churn.
        """
        return self.steps(n)

    def steps_wide(self, n: int) -> Iterator[FastStep]:
        """Yield this schedule's steps as the plane engine draws them.

        The one-replica view of :meth:`steps_batch`: a single run
        (``engine="wide"``) is a batch of one, so its steps are the
        non-``None`` rows of ``steps_batch([self], n, …)`` — each a
        :data:`FastStep` id sequence or a length-``n`` boolean mask.
        A yielded mask buffer is only read before the generator is
        resumed.  The ``steps_batch`` contract makes this the same
        step sequence, order and RNG stream consumption as
        :meth:`steps_fast`.
        """
        for rows in type(self).steps_batch([self], n, [True]):
            if rows[0] is None:
                return
            yield rows[0]

    @classmethod
    def steps_batch(cls, schedules: Sequence["Schedule"], n: int, active):
        """Yield one activation row per schedule, lockstep by lockstep.

        The batch engine (:mod:`repro.model.batch`) drives ``B``
        same-type schedules together; each yielded value is a list of
        ``B`` rows where row ``i`` is either ``None`` (schedule ``i``
        is exhausted) or an activation step — a :data:`FastStep` id
        sequence, or (vectorized overrides) a length-``n`` boolean
        mask.  The generator is *infinite*: once every schedule is
        exhausted it keeps yielding all-``None`` rows and the engine
        decides when to stop.

        ``active`` is a read-only, live view of which replicas the
        engine still runs; implementations must not consume the stream
        (schedule steps *or* RNG draws) of an inactive replica — the
        per-run engines stop iterating a finished run's schedule, and
        retirement of one replica must never perturb another's stream.

        Contract: for every replica that stays active, the sequence of
        its non-``None`` rows must equal its own ``steps_fast(n)``
        stream (same steps, same order, same RNG consumption).  This
        default adapter drives one ``steps_fast`` iterator per
        schedule and is correct for any subclass; vectorized overrides
        (Bernoulli, synchronous, round-robin) draw whole rows at once.
        This is the only stream the plane engine consumes, at every
        ``B`` (see :meth:`steps_wide` for ``B = 1``).
        """
        iterators = [s.steps_fast(n) for s in schedules]
        exhausted = [False] * len(schedules)
        while True:
            rows: List = [None] * len(schedules)
            for i, it in enumerate(iterators):
                if exhausted[i] or not active[i]:
                    continue
                try:
                    rows[i] = next(it)
                except StopIteration:
                    exhausted[i] = True
            yield rows

    def __iter__(self):  # pragma: no cover - convenience only
        raise TypeError(
            "iterate via schedule.steps(n); a Schedule needs to know n"
        )


class FiniteSchedule(Schedule):
    """A fixed, finite list of activation sets.

    After the listed steps are exhausted the schedule ends; processes
    that have not returned by then are considered crashed/starved (the
    paper's second stopping scenario).
    """

    reusable = True  # iteration state lives in the generator frame

    def __init__(self, steps: Sequence[Iterable[ProcessId]]):
        self._raw: List[FrozenSet[ProcessId]] = [frozenset(s) for s in steps]

    def steps(self, n: int) -> Iterator[ActivationSet]:
        for s in self._raw:
            yield validate_step(s, n)

    def steps_fast(self, n: int) -> Iterator[FastStep]:
        # The stored steps are frozensets already; validate ids without
        # the frozenset copy validate_step would make per step.
        for s in self._raw:
            for p in s:
                if not (0 <= p < n):
                    raise ScheduleError(
                        f"schedule activates unknown process {p} (n={n})"
                    )
            yield s

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return f"FiniteSchedule(len={len(self._raw)})"


class FunctionSchedule(Schedule):
    """A schedule computed on demand from the time index.

    ``fn(t, n)`` must return the activation set for time ``t ≥ 1``.
    Useful for one-off adversaries in tests without defining a class.
    """

    def __init__(self, fn: Callable[[int, int], Iterable[ProcessId]], horizon: int = 10**9):
        self._fn = fn
        self._horizon = horizon

    def steps(self, n: int) -> Iterator[ActivationSet]:
        for t in range(1, self._horizon + 1):
            yield validate_step(self._fn(t, n), n)


class RecordedSchedule(Schedule):
    """Wrap another schedule and record the steps actually consumed.

    The recording (:attr:`record`) replays as a :class:`FiniteSchedule`,
    which makes any interesting random execution reproducible and lets
    the falsifiers in :mod:`repro.lowerbounds` report a concrete
    violating schedule.
    """

    def __init__(self, inner: Schedule):
        self._inner = inner
        self.record: List[ActivationSet] = []

    def steps(self, n: int) -> Iterator[ActivationSet]:
        self.record = []
        for s in self._inner.steps(n):
            s = validate_step(s, n)
            self.record.append(s)
            yield s

    def replay(self) -> FiniteSchedule:
        """A finite schedule replaying exactly the steps consumed so far."""
        return FiniteSchedule(self.record)
