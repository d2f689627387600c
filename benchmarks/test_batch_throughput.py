"""Batch engine throughput: lockstep ensembles vs sequential fast runs.

Not a paper experiment — the performance anchor for the vectorized
batch engine (:mod:`repro.model.batch`).  Runs the standard ensemble
workload (24 seeds of Algorithm 3 on ``C_2048`` under Bernoulli
activation) once as 24 sequential fast-engine runs and once as a
single 24-replica lockstep batch, and emits ``BENCH_batch.json`` at
the repo root with both throughputs (runs/sec) and the speedup, so the
batch engine's perf trajectory is visible across PRs.

The acceptance bar (Issue 4): the batched engine must deliver at least
5× the sequential fast engine's runs/sec on this workload while
producing bit-identical per-replica results — both halves are asserted
here, on the record.
"""

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from repro.analysis.inputs import random_distinct_ids
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import numpy_accelerated, run_batch
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_batch.json"

#: The 24-seed cycle(2048) Bernoulli ensemble of the Issue-4 bar —
#: the same shape the campaign throughput anchor sweeps.
N = 2048
SEEDS = range(24)
MAX_TIME = 100_000


def workload():
    inputs_list = [random_distinct_ids(N, seed=seed) for seed in SEEDS]
    schedules = [BernoulliScheduler(p=0.5, seed=seed) for seed in SEEDS]
    return inputs_list, schedules


@pytest.mark.slow
def test_batch_vs_sequential_throughput():
    runs = len(list(SEEDS))

    def measure_sequential():
        best = float("inf")
        results = None
        for _ in range(3):
            inputs_list, schedules = workload()
            started = time.perf_counter()
            results = [
                run_execution(
                    FastFiveColoring(), Cycle(N), inputs, schedule,
                    max_time=MAX_TIME, engine="fast",
                )
                for inputs, schedule in zip(inputs_list, schedules)
            ]
            best = min(best, time.perf_counter() - started)
        return results, best

    def measure_batch():
        best = float("inf")
        results = None
        for _ in range(3):
            inputs_list, schedules = workload()
            algorithms = [FastFiveColoring() for _ in inputs_list]
            started = time.perf_counter()
            results = run_batch(
                algorithms, Cycle(N), inputs_list, schedules,
                max_time=MAX_TIME,
            )
            best = min(best, time.perf_counter() - started)
        return results, best

    seq_results, seq_time = measure_sequential()
    batch_results, batch_time = measure_batch()

    assert all(r.engine == "batch" for r in batch_results), (
        "batch engine declined the workload"
    )
    assert all(r.all_terminated for r in seq_results)
    # Bit-identical per replica — the speedup must not buy any drift.
    for i, (got, want) in enumerate(zip(batch_results, seq_results)):
        assert got == want, f"replica {i}: batch result diverged"

    seq_rate = runs / seq_time
    batch_rate = runs / batch_time
    speedup = batch_rate / seq_rate

    payload = {
        "workload": {
            "algorithm": "fast5", "topology": f"cycle({N})",
            "inputs": "random", "schedule": "bernoulli(p=0.5)",
            "replicas": runs, "max_time": MAX_TIME,
        },
        "numpy_accelerated": numpy_accelerated(),
        "sequential_fast": {"runs_per_sec": seq_rate, "wall_time": seq_time},
        "batch": {"runs_per_sec": batch_rate, "wall_time": batch_time},
        "speedup": speedup,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True))

    emit(
        "batch engine throughput (BENCH_batch.json)",
        [
            {"engine": "fast (sequential)",
             "runs/sec": round(seq_rate, 1),
             "wall [s]": round(seq_time, 3)},
            {"engine": "batch (lockstep)",
             "runs/sec": round(batch_rate, 1),
             "wall [s]": round(batch_time, 3)},
        ],
    )

    # The bar only binds where the accelerator is available; the pure
    # tier exists for correctness, not speed.
    if numpy_accelerated():
        assert speedup >= 5.0, (
            f"batch speedup {speedup:.2f}x < 5x over sequential fast runs"
        )
