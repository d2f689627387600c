"""WorkerPool basics: submission, equivalence, lifecycle, sharing.

The pool is an execution *substrate*, not a semantics layer: whatever
it returns must be bit-identical to running the same work in-process.
Both task kinds are pinned here — campaign task dicts against
:func:`execute_task`, service groups against the coalescer's own
response construction — and the lifecycle contract (lazy spawn, warm
reuse, drain, idempotent shutdown, shared-pool handout) is nailed
down so the service and campaign layers can rely on it blindly.
"""

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import execute_task
from repro.errors import PoolError, PoolTaskError
from repro.obs.metrics import MetricsRegistry
from repro.pool import PoolOutcome, WorkerPool, shared_pool, shutdown_shared_pool
from repro.service.schema import ColorRequest


def task_dict(algorithm="fast5", *, n=8, seed=0):
    spec = CampaignSpec.build(
        algorithms=[algorithm],
        ns=[n],
        input_families=["random"],
        schedules=["sync"],
        seeds=[seed],
    )
    [task] = spec.expand()
    return task.to_dict()


def strip_elapsed(result):
    """Wall time is the one legitimately nondeterministic field."""
    return {k: v for k, v in result.items() if k != "elapsed"}


@pytest.fixture
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown(wait=False)


class TestTaskExecution:
    def test_task_result_is_bit_identical_to_inprocess(self, pool):
        task = task_dict()
        outcome = pool.submit_task(task).result(timeout=60)
        assert isinstance(outcome, PoolOutcome)
        assert outcome.attempts == 1
        assert outcome.timeouts == 0 and outcome.crashes == 0
        want = execute_task(task).to_dict()
        assert strip_elapsed(outcome.value) == strip_elapsed(want)

    def test_group_responses_match_inprocess_construction(self, pool):
        requests = [
            ColorRequest.build(
                "fast5", 16, schedule="bernoulli", seed=seed, max_time=50_000
            )
            for seed in range(3)
        ]
        outcome = pool.submit_group(
            [r.config() for r in requests]
        ).result(timeout=60)
        payload = outcome.value
        assert payload["engine"] in ("batch", "fast")
        assert len(payload["responses"]) == len(requests)
        from repro.service.coalesce import execute_requests
        from repro.service.schema import ColorResponse

        responses, engine = execute_requests(list(requests))
        assert payload["engine"] == engine
        for want, got in zip(responses, payload["responses"]):
            got_response = ColorResponse.from_dict(got)
            assert (
                got_response.deterministic_dict() == want.deterministic_dict()
            )

    def test_warm_workers_are_reused_across_tasks(self, pool):
        for seed in range(3):
            pool.submit_task(task_dict(seed=seed)).result(timeout=60)
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["submitted"] == 3
        assert stats["completed"] == 3
        assert stats["restarts"] == 0

    def test_unknown_kind_fails_with_pool_task_error(self, pool):
        future = pool.submit("nope", {}, max_retries=0)
        with pytest.raises(PoolTaskError, match="unknown pool task kind"):
            future.result(timeout=60)


class TestLifecycle:
    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(1)
        pool.submit_task(task_dict()).result(timeout=60)
        pool.shutdown()
        assert pool.closed
        with pytest.raises(PoolError, match="shut down"):
            pool.submit_task(task_dict())
        with pytest.raises(PoolError, match="shut down"):
            pool.ensure_workers(2)

    def test_shutdown_is_idempotent_and_drain_on_empty_is_true(self):
        pool = WorkerPool(1)
        assert pool.drain(timeout=0.1) is True
        pool.shutdown()
        pool.shutdown()

    def test_ensure_workers_prewarms_eagerly(self):
        with WorkerPool(1) as pool:
            assert pool.stats()["workers"] == 0  # lazy until first use
            pool.ensure_workers(2)
            assert pool.stats()["workers"] == 2
            outcome = pool.submit_task(task_dict()).result(timeout=60)
            assert outcome.attempts == 1

    def test_metrics_flow_into_pinned_registry(self):
        registry = MetricsRegistry()
        with WorkerPool(1, registry=registry) as pool:
            pool.submit_task(task_dict()).result(timeout=60)
            pool.drain(timeout=10)
        assert registry.value("pool_tasks_total", kind="task", status="ok") == 1
        assert registry.value("pool_task_seconds", kind="task")["count"] == 1
        assert registry.value("pool_workers") is not None


class TestSharedPool:
    def test_shared_pool_is_a_singleton_that_grows(self):
        try:
            first = shared_pool(1)
            again = shared_pool()
            assert again is first
            grown = shared_pool(2)
            assert grown is first
            assert grown.workers >= 2
        finally:
            shutdown_shared_pool(wait=False)

    def test_shut_down_shared_pool_is_replaced(self):
        try:
            first = shared_pool(1)
            first.shutdown(wait=False)
            second = shared_pool(1)
            assert second is not first
            assert not second.closed
        finally:
            shutdown_shared_pool(wait=False)
