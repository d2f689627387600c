"""Specification checking for executions (the paper's three guarantees).

Each of Theorems 3.1, 3.11 and 4.4 promises, for every execution:

* **Termination** — every process that is activated enough returns
  within the stated activation bound (checked via
  :mod:`repro.analysis.complexity`);
* **Palette** — returned colors lie in the stated palette;
* **Correctness** — the outputs properly color the *graph induced by
  the terminating processes* (crashed/starved processes impose no
  constraint).

This module provides those predicates, and :func:`summarize`, the one
place a finished execution becomes a verdict plus its activation and
colour counts: the journal row, the service response, the ensemble
fold and ``run --json`` all format its :class:`Summary`.  It also
provides the execution-wide invariants used in Section 4's analysis,
most importantly Lemma 4.5: at every time of every execution, the
published identifiers ``X̂_p`` form a proper coloring of the cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ColoringViolation, PaletteViolation
from repro.model.execution import ExecutionResult
from repro.model.topology import Topology
from repro.model.trace import Trace
from repro.types import BOTTOM, ProcessId

__all__ = [
    "coloring_violations",
    "assert_proper_coloring",
    "palette_violations",
    "assert_palette",
    "inputs_properly_color",
    "Verdict",
    "verify_execution",
    "Summary",
    "summarize",
    "published_identifier_violations",
    "identifiers_always_proper",
]


def coloring_violations(
    topology: Topology, outputs: Dict[ProcessId, Any]
) -> List[Tuple[ProcessId, ProcessId]]:
    """Edges of the induced graph whose endpoints share an output color.

    Only edges with *both* endpoints in ``outputs`` are considered —
    the paper's correctness condition quantifies over the graph induced
    by the terminating processes.
    """
    bad = []
    for p, q in topology.edges():
        if p in outputs and q in outputs and outputs[p] == outputs[q]:
            bad.append((p, q))
    return bad


def assert_proper_coloring(topology: Topology, outputs: Dict[ProcessId, Any]) -> None:
    """Raise :class:`ColoringViolation` on any monochromatic edge."""
    bad = coloring_violations(topology, outputs)
    if bad:
        p, q = bad[0]
        raise ColoringViolation(
            f"{len(bad)} monochromatic edge(s); first: "
            f"{p} ~ {q} both colored {outputs[p]!r}"
        )


def palette_violations(
    outputs: Dict[ProcessId, Any], palette: Iterable[Any]
) -> Dict[ProcessId, Any]:
    """Processes whose output falls outside ``palette``."""
    allowed = set(palette)
    return {p: c for p, c in outputs.items() if c not in allowed}


def assert_palette(outputs: Dict[ProcessId, Any], palette: Iterable[Any]) -> None:
    """Raise :class:`PaletteViolation` on any out-of-palette output."""
    bad = palette_violations(outputs, palette)
    if bad:
        p, c = next(iter(bad.items()))
        raise PaletteViolation(
            f"{len(bad)} out-of-palette output(s); first: process {p} -> {c!r}"
        )


def inputs_properly_color(topology: Topology, inputs: Sequence[Any]) -> bool:
    """Whether the identifier assignment satisfies the precondition
    ``X_p ≠ X_q`` for every edge ``p ~ q`` (Remark 3.10: uniqueness is
    not needed, only adjacent distinctness)."""
    return all(inputs[p] != inputs[q] for p, q in topology.edges())


@dataclass
class Verdict:
    """Aggregated verification result for one execution."""

    all_terminated: bool
    terminated_count: int
    proper: bool
    palette_ok: bool
    round_complexity: int
    monochromatic_edges: List[Tuple[ProcessId, ProcessId]] = field(default_factory=list)
    out_of_palette: Dict[ProcessId, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Correctness + palette (termination is schedule-dependent and
        judged separately against activation bounds)."""
        return self.proper and self.palette_ok


def verify_execution(
    topology: Topology,
    result: ExecutionResult,
    palette: Optional[Iterable[Any]] = None,
) -> Verdict:
    """Check one execution result against the paper's guarantees."""
    return _verdict(topology, result, palette)[0]


def _verdict(topology, result, palette) -> Tuple[Verdict, bool]:
    """The verdict, and whether it was read off a plane result's arrays
    (:func:`_plane_verdict`); the mappings decide everything else."""
    allowed = None if palette is None else set(palette)
    verdict = _plane_verdict(topology, result, allowed)
    if verdict is not None:
        return verdict, True
    mono = coloring_violations(topology, result.outputs)
    bad_palette = (
        palette_violations(result.outputs, allowed) if allowed is not None else {}
    )
    return Verdict(
        all_terminated=result.all_terminated,
        terminated_count=len(result.outputs),
        proper=not mono,
        palette_ok=not bad_palette,
        round_complexity=result.round_complexity,
        monochromatic_edges=mono,
        out_of_palette=bad_palette,
    ), False


@dataclass
class Summary(Verdict):
    """A :class:`Verdict` plus the counts every consumer reports.

    ``ok`` stays the verdict's (termination is judged separately).  The
    histograms map an activation count (resp. a colour) to its
    number of processes, in first-seen order.  ``pending_activations``
    maps each unreturned process to its activations, in pid order, when
    the run hit ``max_time``; it is ``None`` otherwise.
    """

    total_activations: int = 0
    mean_activation: float = 0.0
    final_time: int = 0
    activation_histogram: Dict[int, int] = field(default_factory=dict)
    colors: Dict[Any, int] = field(default_factory=dict)
    pending_activations: Optional[Dict[ProcessId, int]] = None


def summarize(
    topology: Topology,
    result: ExecutionResult,
    palette: Optional[Iterable[Any]] = None,
) -> Summary:
    """Verify one execution and count its activations and colours; a
    clean plane-engine result builds no dict on the way."""
    verdict, on_arrays = _verdict(topology, result, palette)
    if on_arrays:
        undone, colours, pair = result.outputs.rows
        colours = colours[~undone]
        colors = _histogram(colours & 63 if pair else colours, pair)
        histogram = _histogram(result.activations.rows, False)
    else:
        colors = Counter(result.outputs.values())
        histogram = Counter(result.activations.values())
    total = sum(count * k for count, k in histogram.items())
    return Summary(
        **vars(verdict),
        total_activations=total,
        mean_activation=total / sum(histogram.values()) if histogram else 0.0,
        final_time=result.final_time,
        activation_histogram=histogram,
        colors=colors,
        pending_activations=(
            {p: result.activations.get(p, 0) for p in sorted(result.pending)}
            if result.time_exhausted
            else None
        ),
    )


def _plane_verdict(topology, result, allowed) -> Optional[Verdict]:
    """A clean plane result's verdict, read off its lazy mappings' rows
    and the topology's neighbour table (−1 = absent); ``None`` for a run
    cut by ``max_time``, a table missing or not of ``result.n`` nodes, a
    monochromatic edge or an out-of-palette colour (the dict path's
    ``in`` test, looked up per storable value)."""
    view = getattr(result.outputs, "rows", None)
    acts = getattr(result.activations, "rows", None)
    if view is None or acts is None or result.time_exhausted:
        return None
    from repro.model.kernels import _degree2_arrays

    tables = _degree2_arrays(topology)
    if tables is None or len(tables[0]) != result.n:
        return None
    import numpy as np

    undone, colours, pair = view
    colours = colours & 63 if pair else colours
    done = ~undone
    if allowed is not None:
        values = range(64 if pair else 8)
        lut = np.array([_decode(v, pair) in allowed for v in values])
        if not lut.take(colours)[done].all():
            return None
    for table in tables:
        q = np.asarray(table, dtype=np.int64)
        same = colours.take(q) == colours
        same &= done.take(q) & done & (q >= 0)
        if same.any():
            return None
    returned = int(np.count_nonzero(done))
    return Verdict(
        all_terminated=returned == result.n, terminated_count=returned,
        proper=True, palette_ok=True,
        round_complexity=int(acts.max()) if acts.size else 0,
    )


def _decode(value: int, pair: bool) -> Any:
    """The colour a plane stores as ``value`` (pair: ``a << 3 | b``)."""
    return (value >> 3 & 7, value & 7) if pair else value


def _histogram(row, pair: bool) -> Counter:
    """``Counter`` of a row's decoded values, in first-seen order."""
    import numpy as np

    values, first, counts = np.unique(
        row, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    keys, counts = values.take(order).tolist(), counts.take(order).tolist()
    return Counter({_decode(k, pair): c for k, c in zip(keys, counts)})


# ----------------------------------------------------------------------
# Execution-wide invariants (Lemma 4.5)
# ----------------------------------------------------------------------
def published_identifier_violations(
    topology: Topology, trace: Trace
) -> List[Tuple[int, ProcessId, ProcessId, Any]]:
    """Times at which two adjacent *published* identifiers collide.

    Checks, for every recorded register snapshot and every edge
    ``p ~ q``, that ``X̂_p ≠ X̂_q`` whenever both registers are written
    — the invariant of Lemma 4.5 that the green-light mechanism of
    Algorithm 3 protects.  Requires an execution recorded with
    ``record_registers=True`` and register payloads exposing an ``x``
    field (all four algorithms do).

    Returns ``(time, p, q, x)`` tuples for every violation.
    """
    violations = []
    edges = list(topology.edges())
    for event in trace:
        snapshot = event.registers
        if snapshot is None:
            continue
        for p, q in edges:
            vp, vq = snapshot[p], snapshot[q]
            if vp is BOTTOM or vq is BOTTOM:
                continue
            if vp.x == vq.x:
                violations.append((event.time, p, q, vp.x))
    return violations


def identifiers_always_proper(topology: Topology, trace: Trace) -> bool:
    """Whether Lemma 4.5's invariant held throughout the execution."""
    return not published_identifier_violations(topology, trace)
