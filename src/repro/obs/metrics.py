"""The metrics registry: counters, gauges and histograms.

The paper's results are *quantitative* — activation bounds, palette
sizes, round counts — so the library measures itself with first-class
metrics instead of post-processing :class:`ExecutionResult` objects
after the fact.  Three metric kinds cover every need of the engines,
the campaign runner and the bound monitors:

* **counter** — a monotonically increasing total (``engine_steps_total``);
* **gauge** — a last-write-wins level (``campaign_queue_depth``);
* **histogram** — a scalar sample summarized by count/sum/min/mean/
  percentiles/max (``engine_run_seconds``).

Every metric series is identified by ``(name, labels)`` where labels
are a *deterministic* sorted tuple of ``(key, value)`` pairs — the same
observations always produce the same snapshot, independent of call
order or process, which is what lets the differential-equivalence
harness diff the metrics of the two execution engines.

**Zero overhead when disabled.**  Collection is off by default: the
single module-level :func:`active_registry` returns ``None`` and every
instrumentation site is gated on that one check, so the compiled
fast-path engine keeps its throughput.  Enable collection for a block
with :func:`collecting`::

    with collecting() as registry:
        run_execution(...)
    print(registry.snapshot())

Timing metrics (name ending in ``_seconds``) and the metrics listed in
:data:`NONDETERMINISTIC_METRICS` are machine- or engine-dependent;
:meth:`MetricsRegistry.deterministic_snapshot` excludes them, leaving
exactly the values that must be bit-identical across engines.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "NONDETERMINISTIC_METRICS",
    "active_registry",
    "enable_metrics",
    "disable_metrics",
    "collecting",
    "record_execution",
]

#: Label sets are canonicalized to sorted tuples of (key, str(value)).
LabelKey = Tuple[Tuple[str, str], ...]

#: Metrics that legitimately differ across engines or machines even on
#: identical workloads (compilation details, live queue levels); they
#: are excluded from :meth:`MetricsRegistry.deterministic_snapshot`
#: together with every ``*_seconds`` timing metric.
NONDETERMINISTIC_METRICS = frozenset(
    {
        "engine_kernel_builds_total",
        "campaign_queue_depth",
        # Batch-engine packing metrics describe how replicas were
        # grouped, not the modeled system; the same workload packs
        # differently across backends and fallback paths.
        "batch_replicas",
        "batch_occupancy",
        # Wide-engine step-shape metrics describe how the run was
        # executed (vectorized steps, frontier occupancy), which is an
        # engine property, not a modeled-system one; the adaptive-
        # selection and plane-decline counters additionally depend on
        # which engine was requested and on numpy availability.
        "wide_steps_total",
        "wide_frontier_occupancy",
        "engine_auto_selected_total",
        "engine_fallback_total",
        # Worker-pool supervision metrics are pure operational state:
        # live occupancy, scheduling races and fault-recovery counts
        # vary run to run on identical workloads.
        "pool_workers",
        "pool_workers_busy",
        "pool_queue_depth",
        "pool_tasks_total",
        "pool_task_retries_total",
        "pool_worker_restarts_total",
        "pool_respawns_delayed_total",
        # Chaos-layer counters: which probes fire depends on the fault
        # plan armed for the run, not on the modeled system.
        "chaos_faults_injected_total",
        "service_cache_digest_failures_total",
    }
)

#: Cap on stored histogram observations per series; count/sum stay
#: exact beyond it, percentiles are computed over the retained prefix.
_HISTOGRAM_SAMPLE_CAP = 10_000


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _percentile(ordered: List[float], q: float) -> float:
    n = len(ordered)
    return float(ordered[min(n - 1, int(math.ceil(q * n)) - 1)])


class _Histogram:
    """One histogram series: exact count/sum plus a bounded sample."""

    __slots__ = ("count", "total", "minimum", "maximum", "sample")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.sample: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.sample) < _HISTOGRAM_SAMPLE_CAP:
            self.sample.append(value)

    def stats(self) -> Dict[str, float]:
        ordered = sorted(self.sample)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "mean": (self.total / self.count) if self.count else 0.0,
            "p50": _percentile(ordered, 0.50) if ordered else 0.0,
            "p95": _percentile(ordered, 0.95) if ordered else 0.0,
            "p99": _percentile(ordered, 0.99) if ordered else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class MetricsRegistry:
    """In-memory metric store with deterministic label sets.

    The API is name-based (no handle objects): call sites pass the
    metric name and labels directly, the registry interns the series.
    A name is permanently bound to its first-seen kind — observing a
    counter name as a gauge is a programming error and raises.
    """

    def __init__(self) -> None:
        # name -> ("counter"|"gauge"|"histogram", {labelkey: value})
        self._metrics: Dict[str, Tuple[str, Dict[LabelKey, Any]]] = {}

    # -- writing -------------------------------------------------------
    def _series(self, name: str, kind: str) -> Dict[LabelKey, Any]:
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {entry[0]}, not a {kind}"
            )
        return entry[1]

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name`` by ``value`` (must be >= 0)."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease ({value})")
        series = self._series(name, "counter")
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._series(name, "gauge")[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        series = self._series(name, "histogram")
        key = _label_key(labels)
        histogram = series.get(key)
        if histogram is None:
            histogram = series[key] = _Histogram()
        histogram.observe(value)

    # -- reading -------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Optional[Any]:
        """Current value of one series (histograms: their stats dict)."""
        entry = self._metrics.get(name)
        if entry is None:
            return None
        raw = entry[1].get(_label_key(labels))
        if isinstance(raw, _Histogram):
            return raw.stats()
        return raw

    def names(self) -> List[str]:
        """All metric names seen so far, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The whole registry as a JSON-serializable mapping.

        Shape: ``{name: {"kind": ..., "samples": [{"labels": {...},
        "value"|...stats}]}}`` with samples sorted by label key, so two
        registries with equal contents produce equal snapshots.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._metrics):
            kind, series = self._metrics[name]
            samples = []
            for key in sorted(series):
                raw = series[key]
                sample: Dict[str, Any] = {"labels": dict(key)}
                if isinstance(raw, _Histogram):
                    sample.update(raw.stats())
                else:
                    sample["value"] = raw
                samples.append(sample)
            out[name] = {"kind": kind, "samples": samples}
        return out

    def deterministic_snapshot(
        self, ignore_labels: Tuple[str, ...] = ()
    ) -> Dict[str, Dict[str, Any]]:
        """The snapshot restricted to machine-independent metrics.

        Drops every ``*_seconds`` timing metric and the
        :data:`NONDETERMINISTIC_METRICS`; ``ignore_labels`` removes the
        named label keys from every sample (pass ``("engine",)`` to
        compare the two execution engines' emissions).
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name, entry in self.snapshot().items():
            if name.endswith("_seconds") or name in NONDETERMINISTIC_METRICS:
                continue
            samples = []
            for sample in entry["samples"]:
                labels = {
                    k: v
                    for k, v in sample["labels"].items()
                    if k not in ignore_labels
                }
                samples.append({**sample, "labels": labels})
            samples.sort(key=lambda s: sorted(s["labels"].items()))
            out[name] = {"kind": entry["kind"], "samples": samples}
        return out


# ----------------------------------------------------------------------
# The module-level collection switch (the single flag every hook checks)
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry collecting right now, or ``None`` when disabled.

    This is the *only* check instrumentation sites perform; when it
    returns ``None`` every hook is a no-op.
    """
    return _ACTIVE


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Start collecting into ``registry`` (a fresh one by default)."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> None:
    """Stop collecting; hooks become no-ops again."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Enable collection for a ``with`` block, restoring the previous
    state (including a previously active registry) on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Shared emission helpers (duck-typed; no engine imports, no cycles)
# ----------------------------------------------------------------------

def record_execution(
    registry: MetricsRegistry,
    engine: str,
    algorithm: str,
    result: Any,
    elapsed: Optional[float] = None,
) -> None:
    """Emit the per-run engine metrics from one ``ExecutionResult``.

    Both engines call this with identical metric names so their
    emissions can be diffed; every deterministic value below is a pure
    function of the result, hence bit-identical across engines on
    equal results.  ``elapsed`` feeds the (nondeterministic) wall-time
    histogram when provided.
    """
    labels = {"engine": engine, "algorithm": algorithm}
    # Count a plane result's lazy mappings on their rows, not dicts.
    acts = getattr(result.activations, "rows", None)
    outs = getattr(result.outputs, "rows", None)
    total = sum(result.activations.values()) if acts is None else int(acts.sum())
    rounds = result.round_complexity if acts is None else int(acts.max(initial=0))
    returns = len(result.outputs) if outs is None else result.n - int(outs[0].sum())
    registry.inc("engine_runs_total", 1, **labels)
    registry.inc("engine_steps_total", result.final_time, **labels)
    registry.inc("engine_activations_total", total, **labels)
    registry.inc("engine_returns_total", returns, **labels)
    registry.inc(
        "engine_time_exhausted_total", int(result.time_exhausted), **labels
    )
    registry.set_gauge("engine_last_round_complexity", rounds, **labels)
    if elapsed is not None:
        registry.observe("engine_run_seconds", elapsed, **labels)
