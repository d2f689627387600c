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
    "VECTOR_STREAM_MIN_N",
    "declares",
    "FiniteSchedule",
    "FunctionSchedule",
    "RecordedSchedule",
    "validate_step",
]

ActivationSet = FrozenSet[ProcessId]

#: What :meth:`Schedule.steps_fast` yields: a duplicate-free iterable of
#: process ids (a ``frozenset``, or a vectorized row's id list or range).
FastStep = Union[Sequence[ProcessId], FrozenSet[ProcessId], range]


def validate_step(step: Iterable[ProcessId], n: int) -> ActivationSet:
    """Normalize one activation set and check its process ids.

    Empty steps are legal (they model global idle time) but the engine
    skips them at zero cost.  A ``frozenset`` passes through uncopied.
    """
    s = frozenset(step)
    for p in s:
        if not (0 <= p < n):
            raise ScheduleError(f"schedule activates unknown process {p} (n={n})")
    return s


#: Smallest ``n`` at which :meth:`Schedule.steps_fast` draws a declared
#: vectorized stream: below it a few short runs never repay importing
#: numpy (measurements in docs/ENGINE.md, "Schedule streams").
VECTOR_STREAM_MIN_N = 4096


def declares(schedule_type: type, member: str) -> bool:
    """Whether the class defining ``schedule_type.steps`` also defines
    ``member`` (``steps_batch``, ``expected_step_size``): a subclass
    that overrides ``steps`` loses the members it would inherit, and
    the base class's defaults are never declarations."""
    for klass in schedule_type.__mro__:
        if "steps" in vars(klass):
            return klass is not Schedule and member in vars(klass)
    return False


def _row_to_ids(row) -> FastStep:
    """Normalize a ``steps_batch`` row (id sequence or mask) to ids."""
    if isinstance(row, (list, tuple, range, frozenset, set)):
        return row
    return row.nonzero()[0].tolist()


class Schedule:
    """Abstract schedule: an iterable of activation sets.

    Subclasses implement one stream, :meth:`steps`; every call starts a
    fresh iteration (important for running the same adversary against
    several algorithms).  Next to ``steps`` they may :func:`declare
    <declares>` a vectorized :meth:`steps_batch` and an
    ``expected_step_size(n)`` hint for ``engine="auto"``.  The engines
    draw through the adapters :meth:`steps_fast` and :meth:`steps_wide`,
    which nothing overrides.
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
        """The id stream the scalar kernel iterates: the ids of
        :meth:`steps_wide`'s rows when ``steps`` comes with a declared
        ``steps_batch`` and ``n ≥`` :data:`VECTOR_STREAM_MIN_N`, else
        :meth:`steps` — the same steps, order and RNG consumption."""
        if n >= VECTOR_STREAM_MIN_N and declares(type(self), "steps_batch"):
            return map(_row_to_ids, self.steps_wide(n))
        return self.steps(n)

    def steps_wide(self, n: int) -> Iterator[FastStep]:
        """One replica's rows of the declared ``steps_batch`` (else of
        the default adapter): id sequences or length-``n`` boolean
        masks, each valid until the generator is resumed."""
        cls = type(self) if declares(type(self), "steps_batch") else Schedule
        for rows in cls.steps_batch([self], n, [True]):
            if rows[0] is None:
                return
            yield rows[0]

    @classmethod
    def steps_batch(cls, schedules: Sequence["Schedule"], n: int, active):
        """Yield one activation row per schedule, lockstep by lockstep.

        The batch engine (:mod:`repro.model.batch`) drives ``B``
        same-type schedules together; each yielded value is a list of
        ``B`` rows where row ``i`` is either ``None`` (schedule ``i``
        is exhausted) or an activation step — an id sequence, or a
        length-``n`` boolean mask.  The generator is *infinite*: once
        every schedule is exhausted it keeps yielding all-``None`` rows
        and the engine decides when to stop.

        ``active`` is a read-only, live view of which replicas the
        engine still runs; implementations must not consume the stream
        (schedule steps *or* RNG draws) of an inactive replica — the
        per-run engines stop iterating a finished run's schedule, and
        retirement of one replica must never perturb another's stream.

        Contract: for every replica that stays active, the sequence of
        its non-``None`` rows equals its own ``steps(n)`` stream (same
        steps, same order, same RNG consumption).  This default adapter
        drives one ``steps`` iterator per schedule; an override
        (Bernoulli, synchronous) counts only where :func:`declares`.
        """
        iterators = [s.steps(n) for s in schedules]
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
        # validate_step checks the stored frozensets without copying.
        for s in self._raw:
            yield validate_step(s, n)

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
