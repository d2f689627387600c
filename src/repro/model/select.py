"""``engine="auto"``: adaptive engine selection from workload shape.

The repo ships three executable engines — reference, fast and the
plane engine (``batch`` for replica ensembles, ``wide`` for its single
run) — with one result contract (bit-identical ``ExecutionResult``)
and very different cost profiles.  ``auto`` makes the choice so callers (the
service, campaigns, notebooks) do not have to: a handful of cheap,
deterministic rules over the *shape* of the workload, never its data.

The rules, in order:

1. Anything that needs per-step observation — an execution trace,
   register snapshots, live monitors — runs on ``fast`` (whose own
   gate degrades to the generic loop when a kernel cannot serve the
   request).  The kernel engines do not produce those artifacts, so
   selecting them would change the contract; this rule is what makes
   ``auto`` contract-safe by construction.
2. Runs go to ``wide`` when the vectorized step can pay for itself:
   numpy importable, the exact algorithm type in the kernel family
   table (:data:`repro.model.kernels.KERNELS`), a schedule that
   declares its expected activation-set size
   (``expected_step_size(n)``, defined next to its ``steps`` — the
   synchronous, Bernoulli and uniform-subset families; a wrapper,
   custom adversary or subclass that overrides ``steps`` is opaque,
   see :func:`~repro.model.schedule.declares`), ``n`` at least
   :data:`WIDE_MIN_N` and the expected set size at least
   :data:`WIDE_MIN_STEP_OCCUPANCY`.
3. Everything else — small ``n``, sparse or opaque schedules, unknown
   algorithm types — stays on ``fast``.

Selection is *optimistic*: if the plane kernel declines the run after
all, ``run_execution`` runs it on ``fast`` and counts the decline
(``engine_fallback_total``), so a rule here never has to be perfectly
tight to be safe.  Packing several runs into one ``batch`` call is
not a selection rule: it is the one rule of
:func:`repro.model.execution.run_executions`, which every caller of
several runs goes through.  The decision and its
deciding rule are recorded in the shared metrics registry
(``engine_auto_selected_total{engine=…,reason=…}``) so a campaign's
engine mix is auditable after the fact.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.model.schedule import Schedule, declares
from repro.model.topology import Topology
from repro.obs.metrics import active_registry

__all__ = [
    "WIDE_MIN_N",
    "WIDE_MIN_STEP_OCCUPANCY",
    "select_engine",
]

#: Minimum system size for ``auto`` to pick the wide engine: below
#: this the fast kernel's per-activation loop beats numpy dispatch
#: overhead even on fully-dense schedules.
WIDE_MIN_N = 4096

#: Minimum *expected* activation-set size for the wide engine — below
#: it the fixed numpy dispatch cost of a vectorized step outweighs the
#: per-activation work it saves.
WIDE_MIN_STEP_OCCUPANCY = 256


def _decide(
    algorithm: Any,
    topology: Topology,
    schedule: Schedule,
    *,
    record_trace: bool,
    record_registers: bool,
    monitors: Optional[Sequence[Any]],
) -> Tuple[str, str]:
    """The selection rules; returns ``(engine, reason)``."""
    if record_trace or record_registers:
        return "fast", "recording"
    if monitors:
        return "fast", "monitors"
    from repro.model.batch import load_numpy
    from repro.model.kernels import KERNELS

    if load_numpy() is None:
        return "fast", "no-numpy"
    if type(algorithm) not in KERNELS:
        return "fast", "no-wide-kernel"
    n = topology.n
    if not declares(type(schedule), "expected_step_size"):
        return "fast", "opaque-schedule"
    occupancy = schedule.expected_step_size(n)
    if n < WIDE_MIN_N:
        return "fast", "small-n"
    if occupancy < WIDE_MIN_STEP_OCCUPANCY:
        return "fast", "sparse-schedule"
    return "wide", "dense-large-n"


def select_engine(
    algorithm: Any,
    topology: Topology,
    schedule: Schedule,
    *,
    record_trace: bool = False,
    record_registers: bool = False,
    monitors: Optional[Sequence[Any]] = None,
) -> str:
    """Pick a concrete engine for this workload shape.

    Never returns ``"auto"``; never picks an engine whose result
    contract differs from the reference for the given request (traced,
    register-recording, or monitored runs always land on ``fast``,
    which itself degrades to the generic loop as needed).  The chosen
    engine may still decline the configuration downstream and fall
    back to ``fast`` — selection is a fast pre-filter, not a guarantee.
    """
    engine, reason = _decide(
        algorithm, topology, schedule,
        record_trace=record_trace,
        record_registers=record_registers,
        monitors=monitors,
    )
    registry = active_registry()
    if registry is not None:
        registry.inc("engine_auto_selected_total", engine=engine, reason=reason)
    return engine
