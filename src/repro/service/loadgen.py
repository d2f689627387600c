"""Closed-loop load generator for the simulation service.

Drives ``POST /v1/color`` with a deterministic request mix from
``concurrency`` worker threads (each with its own keep-alive
:class:`~repro.service.client.ServiceClient`) and reports throughput,
latency percentiles and the status/provenance split.  Three things
make it more than a curl loop:

* **Deterministic mix** — request ``i`` is a duplicate (drawn
  round-robin from a small working set, exercising the cache) iff
  ``i % 100 < duplicates * 100``; unique requests walk distinct seeds
  of one configuration, which is exactly the shape the coalescer can
  pack into lockstep batches.  No RNG: rerunning a burst replays it.
* **Provenance accounting** — 200-responses are split into computed /
  cached / coalesced (``batch_size > 1``) from the response bodies,
  so a run shows *why* it was fast.
* **Backpressure honesty** — by default 429s are counted, never
  retried: the generator measures the service's shedding behavior
  instead of hammering through it.  ``retry=True`` flips the burst
  into client mode: each worker retries retryable outcomes under its
  own deterministically-seeded
  :class:`~repro.chaos.resilience.BackoffPolicy` (honoring
  ``Retry-After``), and the summary reports retry totals plus an
  attempts histogram.  The default stays off so the deterministic
  shedding assertions in the test suite keep holding.

Used by ``repro-color loadgen``, the CI smoke jobs, the chaos harness
and the service and pool rows of the speed-bar harness
(``benchmarks/test_speed_bars.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.resilience import BackoffPolicy
from repro.service.client import ServiceClient, ServiceReply
from repro.service.schema import ColorRequest

__all__ = ["build_mix", "run_loadgen", "percentile"]


def percentile(ordered: List[float], q: float) -> float:
    """The ``q``-quantile of an ascending-sorted sample (0 on empty)."""
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[index]


def build_mix(
    requests: int,
    *,
    duplicates: float = 0.0,
    algorithm: str = "fast5",
    n: int = 64,
    inputs: str = "random",
    schedule: str = "bernoulli",
    max_time: int = 200_000,
    seed_base: int = 0,
    working_set: int = 4,
) -> List[ColorRequest]:
    """The deterministic request list of one burst (see module docs)."""
    if not 0.0 <= duplicates <= 1.0:
        raise ValueError(f"duplicates must be in [0, 1], got {duplicates}")
    hot = [
        ColorRequest.build(
            algorithm, n, inputs=inputs, schedule=schedule,
            seed=seed_base + k, max_time=max_time,
        )
        for k in range(max(1, working_set))
    ]
    mix: List[ColorRequest] = []
    threshold = duplicates * 100.0
    fresh_seed = seed_base + max(1, working_set)
    for i in range(requests):
        if (i % 100) < threshold:
            mix.append(hot[i % len(hot)])
        else:
            mix.append(
                ColorRequest.build(
                    algorithm, n, inputs=inputs, schedule=schedule,
                    seed=fresh_seed, max_time=max_time,
                )
            )
            fresh_seed += 1
    return mix


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8731,
    *,
    requests: int = 100,
    concurrency: int = 8,
    duplicates: float = 0.0,
    algorithm: str = "fast5",
    n: int = 64,
    inputs: str = "random",
    schedule: str = "bernoulli",
    max_time: int = 200_000,
    seed_base: int = 0,
    working_set: int = 4,
    timeout: float = 60.0,
    mix: Optional[List[ColorRequest]] = None,
    retry: bool = False,
    retry_policy: Optional[BackoffPolicy] = None,
    deadline: Optional[float] = None,
    collect: Optional[Callable[[int, ColorRequest, ServiceReply], None]] = None,
) -> Dict[str, Any]:
    """Fire one closed-loop burst and return the JSON-shaped summary.

    ``mix`` overrides the generated request list (the benchmark passes
    hand-built legs).  Workers pull from a shared cursor, so the burst
    is work-conserving regardless of per-request latency variance.

    ``retry=True`` arms per-worker resilience: worker ``k`` retries
    with ``retry_policy`` re-seeded to ``seed + k`` (default policy:
    the :class:`BackoffPolicy` defaults), bounded by ``deadline``
    seconds of wall clock per request when given.  The summary then
    counts final statuses — a 500 that succeeded on retry reports as
    its eventual 200 — plus a ``retries`` block with the attempts
    histogram.  ``collect`` (called under the summary lock with
    ``(index, request, reply)``) lets a harness capture reply bodies
    for invariant checking without re-requesting.
    """
    if mix is None:
        mix = build_mix(
            requests,
            duplicates=duplicates,
            algorithm=algorithm,
            n=n,
            inputs=inputs,
            schedule=schedule,
            max_time=max_time,
            seed_base=seed_base,
            working_set=working_set,
        )
    total = len(mix)
    cursor = {"next": 0}
    lock = threading.Lock()
    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    outcomes = {"computed": 0, "cached": 0, "coalesced": 0, "errors": 0}
    # Non-2xx replies, with the server trace id when tracing is on —
    # the handle that joins a failed request to /debug/trace.  Bounded:
    # a fully-shed burst must not balloon the summary.
    failures: List[Dict[str, Any]] = []
    max_failures = 32
    attempts_histogram: Dict[str, int] = {}
    retries_total = {"count": 0}
    base_policy = retry_policy if retry_policy is not None else BackoffPolicy()

    def worker(worker_index: int) -> None:
        # Each worker's backoff stream is seeded from its index, so a
        # rerun of the same burst replays the same delays per worker.
        resilience = (
            base_policy.clone(seed=base_policy.seed + worker_index)
            if retry
            else None
        )
        with ServiceClient(
            host, port, timeout=timeout,
            resilience=resilience, deadline=deadline,
        ) as client:
            while True:
                with lock:
                    i = cursor["next"]
                    if i >= total:
                        return
                    cursor["next"] = i + 1
                request = mix[i]
                started = time.perf_counter()
                try:
                    reply = client.color(request)
                except Exception:  # noqa: BLE001 - counted, not raised
                    with lock:
                        outcomes["errors"] += 1
                    continue
                elapsed = time.perf_counter() - started
                body = reply.body if isinstance(reply.body, dict) else {}
                with lock:
                    latencies.append(elapsed)
                    key = str(reply.status)
                    statuses[key] = statuses.get(key, 0) + 1
                    bucket = str(reply.attempts)
                    attempts_histogram[bucket] = (
                        attempts_histogram.get(bucket, 0) + 1
                    )
                    retries_total["count"] += reply.attempts - 1
                    if collect is not None:
                        collect(i, request, reply)
                    if reply.status == 200:
                        if body.get("cached"):
                            outcomes["cached"] += 1
                        elif body.get("batch_size", 1) > 1:
                            outcomes["coalesced"] += 1
                        else:
                            outcomes["computed"] += 1
                    elif len(failures) < max_failures:
                        failure = {
                            "index": i,
                            "status": reply.status,
                            "request_key": request.request_key,
                        }
                        if reply.trace_id:
                            failure["trace_id"] = reply.trace_id
                        failures.append(failure)

    threads = [
        threading.Thread(
            target=worker, args=(k,), name=f"loadgen-{k}", daemon=True
        )
        for k in range(max(1, concurrency))
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_started

    latencies.sort()
    ok = sum(count for code, count in statuses.items() if code.startswith("2"))
    shed = statuses.get("429", 0)
    return {
        "requests": total,
        "concurrency": max(1, concurrency),
        "duplicates": duplicates,
        "wall_seconds": wall,
        "requests_per_sec": (total / wall) if wall > 0 else 0.0,
        "statuses": statuses,
        "ok": ok,
        "shed": shed,
        "outcomes": outcomes,
        "failures": failures,
        "retries": {
            "enabled": retry,
            "total": retries_total["count"],
            "attempts_histogram": dict(sorted(attempts_histogram.items())),
        },
        "latency_ms": {
            "p50": percentile(latencies, 0.50) * 1000.0,
            "p95": percentile(latencies, 0.95) * 1000.0,
            "p99": percentile(latencies, 0.99) * 1000.0,
            "max": (latencies[-1] * 1000.0) if latencies else 0.0,
        },
        "workload": {
            "algorithm": algorithm,
            "topology": f"cycle({n})",
            "inputs": inputs,
            "schedule": schedule,
            "max_time": max_time,
        },
    }
