"""Batch backend tests: lockstep task packing inside campaigns.

The batch backend's contract is that packing compatible tasks into one
lockstep :func:`repro.model.batch.run_batch` call is *invisible* in the
journal: every task still gets its own terminal record whose result is
bit-identical to per-run execution (which is what keeps ``--resume``
sound when a journal holds half of a former group), and anything the
packer cannot place falls back to sequential per-task execution.
"""

import pytest

from repro.campaign.backends import BatchBackend, SequentialBackend, make_backend
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.fast_coloring5 import FastFiveColoring
from repro.errors import CampaignError
from repro.obs.metrics import NONDETERMINISTIC_METRICS, collecting


class SubclassedFive(FastFiveColoring):
    """Outside exact-type kernel dispatch: no batched kernel covers it."""


def subclassed_five():
    """Dotted-path factory used to force the batch packer to decline."""
    return SubclassedFive()


def spec_with(**overrides):
    defaults = dict(
        algorithms=["fast5", "alg2"],
        ns=[9, 17],
        input_families=["random"],
        schedules=["sync", "bernoulli"],
        seeds=[0, 1, 2],
        engine="batch",
    )
    defaults.update(overrides)
    return CampaignSpec.build(**defaults)


def by_hash(records):
    return {r["hash"]: r for r in records}


def strip_timing(record):
    """Drop fields legitimately differing between backends/runs."""
    clean = dict(record)
    clean.pop("elapsed", None)
    clean.pop("worker", None)
    result = clean.get("result")
    if isinstance(result, dict):
        result = dict(result)
        result.pop("elapsed", None)
        clean["result"] = result
    return clean


class TestMakeBackend:
    def test_batch_backend_constructible(self):
        backend = make_backend("batch")
        assert isinstance(backend, BatchBackend)
        assert backend.name == "batch"

    def test_unknown_backend_lists_batch(self):
        with pytest.raises(CampaignError, match="batch"):
            make_backend("quantum")


class TestBatchRecordsMatchSequential:
    def test_records_bit_identical_up_to_timing(self):
        """24-task grid (2 algorithms × 2 sizes × 2 schedules × 3
        seeds): every record the batch backend journals must equal the
        sequential backend's, ignoring only wall-clock attribution."""
        spec = spec_with()
        batch = run_campaign(spec, backend=BatchBackend())
        sequential = run_campaign(spec, backend=SequentialBackend())

        assert batch.summary.ok == sequential.summary.ok == 24
        assert batch.summary.failed == 0
        assert batch.report == sequential.report

        batch_records = by_hash(batch.records)
        sequential_records = by_hash(sequential.records)
        assert set(batch_records) == set(sequential_records)
        for task_hash, record in batch_records.items():
            assert strip_timing(record) == strip_timing(
                sequential_records[task_hash]
            ), f"task {task_hash}: batch record diverged"

    def test_non_batch_engine_tasks_fall_back(self):
        """A fast-engine spec through the batch backend: nothing packs
        into a lockstep call, every task runs on its own and the report
        equals the sequential backend's."""
        spec = spec_with(engine="fast", seeds=[0])
        outcome = run_campaign(spec, backend=BatchBackend())
        reference = run_campaign(spec, backend=SequentialBackend())
        assert outcome.summary.ok == reference.summary.ok
        assert outcome.report == reference.report

    def test_unpackable_algorithm_falls_back(self):
        """A group whose algorithm has no batched kernel (subclass of a
        registered type) must fall back per task, not fail."""
        spec = spec_with(
            algorithms=["tests.campaign.test_batch_backend:subclassed_five"],
            ns=[9],
            seeds=[0, 1],
        )
        outcome = run_campaign(spec, backend=BatchBackend())
        assert outcome.summary.ok == 4
        assert outcome.summary.failed == 0
        reference = run_campaign(spec, backend=SequentialBackend())
        assert outcome.report == reference.report


class TestBatchResume:
    def test_resume_repacks_remainder(self, tmp_path):
        """A journal holding half of a former group: the resumed run
        re-packs the remainder into a smaller batch and the union of
        records equals a from-scratch sequential run."""
        spec = spec_with(algorithms=["fast5"], ns=[9])
        journal = tmp_path / "journal.jsonl"

        partial = run_campaign(
            spec, backend=BatchBackend(), journal_path=journal, stop_after=3
        )
        assert partial.summary.ok == 3

        resumed = run_campaign(
            spec, backend=BatchBackend(), journal_path=journal, resume=True
        )
        assert resumed.summary.ok == 6
        assert resumed.summary.failed == 0

        reference = run_campaign(spec, backend=SequentialBackend())
        resumed_records = by_hash(resumed.records)
        for task_hash, record in by_hash(reference.records).items():
            assert strip_timing(resumed_records[task_hash]) == strip_timing(
                record
            )


class TestBatchMetrics:
    def test_batch_metrics_emitted_and_nondeterministic(self):
        from repro.analysis.inputs import random_distinct_ids
        from repro.model.batch import run_batch
        from repro.model.topology import Cycle
        from repro.schedulers import BernoulliScheduler

        assert "batch_replicas" in NONDETERMINISTIC_METRICS
        assert "batch_occupancy" in NONDETERMINISTIC_METRICS

        with collecting() as registry:
            results = run_batch(
                [FastFiveColoring() for _ in range(4)], Cycle(9),
                [random_distinct_ids(9, seed=s) for s in range(4)],
                [BernoulliScheduler(p=0.5, seed=s) for s in range(4)],
                max_time=20_000,
            )
        assert results is not None and len(results) == 4
        snapshot = registry.snapshot()
        assert snapshot["batch_replicas"]["samples"][0]["count"] == 1
        occupancy = snapshot["batch_occupancy"]["samples"][0]
        assert 0.0 < occupancy["sum"] <= 1.0
        # Per-replica engine metrics ride along under engine="batch".
        runs = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["engine_runs_total"]["samples"]
        }
        assert sum(runs.values()) == 4
        assert all(dict(k)["engine"] == "batch" for k in runs)

    def test_deterministic_engine_metrics_match_fast(self):
        """Deterministic engine metrics are a pure function of the
        (bit-identical) results, so batch and fast emissions must diff
        clean once the engine label is ignored."""
        from repro.analysis.inputs import random_distinct_ids
        from repro.model.batch import run_batch
        from repro.model.execution import run_execution
        from repro.model.topology import Cycle
        from repro.schedulers import BernoulliScheduler

        def workload():
            return (
                [FastFiveColoring() for _ in range(3)],
                [random_distinct_ids(9, seed=s) for s in range(3)],
                [BernoulliScheduler(p=0.5, seed=s) for s in range(3)],
            )

        with collecting() as registry:
            algorithms, inputs_list, schedules = workload()
            run_batch(
                algorithms, Cycle(9), inputs_list, schedules, max_time=20_000
            )
        batch_snapshot = registry.deterministic_snapshot(
            ignore_labels=("engine",)
        )

        with collecting() as registry:
            algorithms, inputs_list, schedules = workload()
            for algorithm, inputs, schedule in zip(
                algorithms, inputs_list, schedules
            ):
                run_execution(
                    algorithm, Cycle(9), inputs, schedule,
                    max_time=20_000, engine="fast",
                )
            fast_snapshot = registry.deterministic_snapshot(
                ignore_labels=("engine",)
            )
        assert batch_snapshot == fast_snapshot
