"""Round-complexity accounting and theoretical bounds (§2.2, §3, §4).

Collects the activation-count bookkeeping shared by tests, benchmarks
and the CLI: per-theorem bound functions, empirical scaling summaries,
and a tiny least-squares fit used to report the measured constant in
``rounds ≈ c · log* n + d`` for experiment E4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.verify import summarize
from repro.core.coin_tossing import log_star
from repro.model.execution import ExecutionResult
from repro.model.topology import Topology
from repro.types import ProcessId

__all__ = [
    "theorem_3_1_bound",
    "lemma_3_9_bound",
    "lemma_3_14_bound",
    "theorem_3_11_bound",
    "logstar_budget",
    "ActivationSummary",
    "summarize_activations",
    "fit_against",
    "fit_logstar",
    "fit_linear",
]


def theorem_3_1_bound(n: int) -> int:
    """Theorem 3.1: every Algorithm 1 process returns within this many
    activations on ``C_n`` — ``⌊3n/2⌋ + 4``."""
    return (3 * n) // 2 + 4


def lemma_3_9_bound(dist_to_max: int, dist_to_min: int) -> int:
    """Lemma 3.9: per-process Algorithm 1 bound
    ``min{3ℓ, 3ℓ', ℓ+ℓ'} + 4`` (4 for local extrema)."""
    if dist_to_max == 0 or dist_to_min == 0:
        return 4
    return min(3 * dist_to_max, 3 * dist_to_min, dist_to_max + dist_to_min) + 4


def lemma_3_14_bound(dist_to_max: int) -> int:
    """Lemma 3.14: Algorithm 2 bound ``3ℓ + 4`` for non-minima at
    monotone distance ``ℓ`` from the nearest local maximum."""
    return 3 * dist_to_max + 4


def theorem_3_11_bound(n: int) -> int:
    """Theorem 3.11's global Algorithm 2 bound: ``3n + 8`` (local
    minima terminate at most one step after both neighbors)."""
    return 3 * n + 8


def logstar_budget(n: int, c: float = 12.0, d: float = 30.0) -> float:
    """An O(log* n) activation budget ``c · log*(n) + d`` for Algorithm 3.

    The paper gives no explicit constants; the defaults are calibrated
    empirically (see EXPERIMENTS.md, E4) with generous headroom, so the
    budget doubles as a wait-freedom regression alarm: if a change to
    the algorithm pushes measured activations past the budget, tests
    fail.
    """
    return c * log_star(max(n, 2)) + d


@dataclass
class ActivationSummary:
    """Distribution summary of per-process activation counts."""

    n: int
    max: int
    mean: float
    p95: float
    terminated: int

    def __str__(self) -> str:
        return (
            f"n={self.n} max={self.max} mean={self.mean:.2f} "
            f"p95={self.p95:.1f} terminated={self.terminated}/{self.n}"
        )


def summarize_activations(result: ExecutionResult) -> ActivationSummary:
    """Summarize the activation counts of one execution, as counted by
    :func:`summarize` (on an edgeless graph: the counts ignore edges)."""
    edgeless = Topology({p: () for p in range(result.n)}, name="edgeless")
    summary = summarize(edgeless, result)
    counts = sorted(summary.activation_histogram.elements())
    n = len(counts)
    p95 = counts[min(n - 1, int(math.ceil(0.95 * n)) - 1)] if n else 0.0
    return ActivationSummary(
        n=n,
        max=counts[-1] if counts else 0,
        mean=summary.mean_activation,
        p95=float(p95),
        terminated=summary.terminated_count,
    )


def fit_against(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Ordinary least squares ``y ≈ slope·x + intercept``.

    Pure-Python (no numpy dependency in the core library); used on a
    handful of sweep points.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def fit_logstar(ns: Sequence[int], rounds: Sequence[float]) -> Tuple[float, float]:
    """Fit ``rounds ≈ c · log*(n) + d`` — the E4 scaling report."""
    return fit_against([log_star(n) for n in ns], rounds)


def fit_linear(ns: Sequence[int], rounds: Sequence[float]) -> Tuple[float, float]:
    """Fit ``rounds ≈ c · n + d`` — the E3/E5 scaling report."""
    return fit_against(list(map(float, ns)), rounds)
