"""Fault-tolerance tests: raising, crashing and hanging tasks.

The pool backend's contract is that *no* task failure mode kills the
campaign: raising tasks are retried, hung workers are killed at the
deadline and replaced, dead workers are respawned — and a task that
keeps failing is recorded as ``failed`` while everything else
completes.
"""

import pytest

from repro.campaign.backends import PoolBackend, SequentialBackend, make_backend
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError


def spec_with(algorithms, **overrides):
    defaults = dict(
        algorithms=algorithms,
        ns=[8],
        input_families=["random"],
        schedules=["sync"],
        seeds=[0],
    )
    defaults.update(overrides)
    return CampaignSpec.build(**defaults)


@pytest.fixture
def pool_backend():
    """A two-worker pool backend, reaped when the test ends: a backend
    keeps its pool warm until ``close``, and pools left to interpreter
    exit outlive every later test in the session."""
    backend = PoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FAULT_DIR", str(tmp_path))
    return tmp_path


class TestMakeBackend:
    def test_known_backends(self):
        assert make_backend("sequential").name == "sequential"
        assert make_backend("pool", workers=2).workers == 2

    def test_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown backend"):
            make_backend("quantum")


class TestSequentialFaults:
    def test_raise_once_is_retried(self, fault_dir):
        outcome = run_campaign(
            spec_with(["tests.campaign.faulty:raise_once", "fast5"]),
            backend=SequentialBackend(),
            max_retries=2,
        )
        assert outcome.summary.failed == 0
        assert outcome.summary.ok == 2
        assert outcome.summary.retries == 1
        assert outcome.report.runs == 2
        assert outcome.all_ok

    def test_raise_always_fails_terminally(self, fault_dir):
        outcome = run_campaign(
            spec_with(["tests.campaign.faulty:raise_always", "fast5"]),
            backend=SequentialBackend(),
            max_retries=1,
        )
        assert outcome.summary.failed == 1
        assert outcome.summary.ok == 1
        assert not outcome.all_ok
        failed = [r for r in outcome.records if r["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["attempts"] == 2  # 1 try + 1 retry
        assert "injected failure" in failed[0]["error"]


class TestPoolFaults:
    def test_worker_crash_recovered(self, fault_dir, pool_backend):
        """A dying worker must not kill the campaign (requeue + respawn)."""
        outcome = run_campaign(
            spec_with(["tests.campaign.faulty:crash_once", "fast5"],
                      seeds=[0, 1]),
            backend=pool_backend,
            task_timeout=30.0,
            max_retries=2,
        )
        assert outcome.summary.failed == 0
        assert outcome.summary.ok == 4
        assert outcome.summary.crashes == 1
        assert outcome.summary.retries >= 1
        assert outcome.all_ok

    def test_hung_task_times_out_and_retries(self, fault_dir, pool_backend):
        outcome = run_campaign(
            spec_with(["tests.campaign.faulty:hang_once", "fast5"]),
            backend=pool_backend,
            task_timeout=1.0,
            max_retries=2,
        )
        assert outcome.summary.failed == 0
        assert outcome.summary.ok == 2
        assert outcome.summary.timeouts == 1
        assert outcome.all_ok

    def test_raise_always_fails_terminally(self, fault_dir, pool_backend):
        outcome = run_campaign(
            spec_with(["tests.campaign.faulty:raise_always", "fast5"]),
            backend=pool_backend,
            task_timeout=30.0,
            max_retries=1,
        )
        assert outcome.summary.failed == 1
        assert outcome.summary.ok == 1
        assert not outcome.all_ok

    def test_pool_matches_sequential_report(self, pool_backend):
        """Backends are execution strategies, not semantics: same report."""
        spec = spec_with(["fast5"], seeds=[0, 1, 2],
                         schedules=["sync", "bernoulli"])
        seq = run_campaign(spec, backend=SequentialBackend())
        pool = run_campaign(spec, backend=pool_backend,
                            task_timeout=30.0)
        assert seq.report == pool.report

    def test_empty_task_list_is_noop(self):
        PoolBackend(workers=1).execute(
            [], task_timeout=1.0, max_retries=0, on_record=lambda r: None
        )

    def test_bad_timeout_rejected(self):
        with pytest.raises(CampaignError, match="task_timeout"):
            PoolBackend(workers=1).execute(
                spec_with(["fast5"]).expand(),
                task_timeout=0,
                max_retries=0,
                on_record=lambda r: None,
            )
