"""The coalescing pipeline: dedup, backpressure, batch equivalence.

The headline guarantee (Issue 6 acceptance): a response computed as
part of a coalesced lockstep batch is *bit-identical*, in every
deterministic section, to the response a solo reference-engine run
would produce — for every registered algorithm.  This reuses the
differential discipline of ``tests/model/test_batch_equivalence.py``
one layer up, at the service boundary.
"""

import asyncio

import pytest

from repro.campaign.registry import (
    ALGORITHMS,
    resolve_algorithm,
    resolve_inputs,
)
from repro.errors import BackpressureError
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler
from repro.service.coalesce import Coalescer, execute_requests
from repro.service.schema import ColorRequest, ColorResponse

SEEDS = range(4)


def bernoulli_request(algorithm, seed, n=16, max_time=50_000):
    return ColorRequest.build(
        algorithm, n, schedule="bernoulli", seed=seed, max_time=max_time
    )


def reference_response(request):
    """The oracle: a solo run on the straight-from-the-paper engine."""
    result = run_execution(
        resolve_algorithm(request.algorithm)(),
        Cycle(request.n),
        resolve_inputs(request.inputs, request.n, request.seed),
        BernoulliScheduler(p=0.4, seed=request.seed),
        max_time=request.max_time,
        engine="reference",
    )
    return ColorResponse.from_execution(request, result, engine="reference")


class TestBatchEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_coalesced_responses_match_reference_engine(self, algorithm):
        requests = [bernoulli_request(algorithm, seed) for seed in SEEDS]

        async def scenario():
            # A wide window so every submit lands in one batch.
            async with Coalescer(
                queue_limit=32, max_batch=32, coalesce_window=0.2
            ) as coalescer:
                return await asyncio.gather(
                    *(coalescer.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        assert all(r.batch_size == len(requests) for r in responses)
        for request, response in zip(requests, responses):
            want = reference_response(request)
            assert response.deterministic_dict() == want.deterministic_dict()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_execute_requests_group_matches_reference(self, algorithm):
        """The synchronous execution helper alone: batch vs reference."""
        requests = [bernoulli_request(algorithm, seed) for seed in SEEDS]
        responses, engine = execute_requests(list(requests))
        assert engine in ("batch", "fast")
        for request, got in zip(requests, responses):
            want = reference_response(request)
            assert got.deterministic_dict() == want.deterministic_dict()

    def test_mixed_group_keys_split_into_separate_batches(self):
        requests = [bernoulli_request("fast5", s) for s in range(3)] + [
            bernoulli_request("alg1", s) for s in range(2)
        ]

        async def scenario():
            async with Coalescer(
                queue_limit=32, max_batch=32, coalesce_window=0.2
            ) as coalescer:
                return await asyncio.gather(
                    *(coalescer.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        assert [r.batch_size for r in responses] == [3, 3, 3, 2, 2]


@pytest.fixture(scope="module")
def warm_pool():
    """One warm 2-worker pool shared by the pool-path tests."""
    from repro.pool import WorkerPool

    pool = WorkerPool(2)
    yield pool
    pool.shutdown(wait=False)


class TestPoolPathEquivalence:
    """Issue 7 acceptance: routing execution to warm worker processes
    must be invisible in the payload — pool-executed responses are
    bit-identical to the solo reference-engine oracle for every
    registered algorithm, exactly like the thread-executor path."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_pool_responses_match_reference_engine(
        self, algorithm, warm_pool
    ):
        requests = [bernoulli_request(algorithm, seed) for seed in SEEDS]

        async def scenario():
            async with Coalescer(
                queue_limit=32,
                max_batch=32,
                coalesce_window=0.2,
                pool=warm_pool,
            ) as coalescer:
                return await asyncio.gather(
                    *(coalescer.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        assert all(r.batch_size == len(requests) for r in responses)
        for request, response in zip(requests, responses):
            want = reference_response(request)
            assert response.deterministic_dict() == want.deterministic_dict()

    def test_pool_solo_request_matches_reference(self, warm_pool):
        """A singleton group through the pool (fast-path fallback)."""
        request = bernoulli_request("fast5", 7)

        async def scenario():
            async with Coalescer(
                queue_limit=8, coalesce_window=0.0, pool=warm_pool
            ) as coalescer:
                return await coalescer.submit(request)

        response = asyncio.run(scenario())
        assert response.batch_size == 1
        assert response.cached is False
        want = reference_response(request)
        assert response.deterministic_dict() == want.deterministic_dict()

    def test_pool_result_lands_in_cache(self, warm_pool):
        request = bernoulli_request("fast6", 1)

        async def scenario():
            async with Coalescer(
                queue_limit=8, coalesce_window=0.0, pool=warm_pool
            ) as coalescer:
                first = await coalescer.submit(request)
                second = await coalescer.submit(request)
                return first, second

        first, second = asyncio.run(scenario())
        assert first.cached is False
        assert second.cached is True
        assert first.deterministic_dict() == second.deterministic_dict()


class TestIdleFlush:
    def test_lone_request_does_not_wait_for_the_window(self):
        """Issue 7 satellite: with nothing else admitted, the batch
        flushes immediately — a 5 s window must not cost 5 s.  The
        2 s wait_for is the proof: the pre-fix pipeline always held
        the full window and would blow it."""

        async def scenario():
            async with Coalescer(queue_limit=8, coalesce_window=5.0) as co:
                return await asyncio.wait_for(
                    co.submit(bernoulli_request("fast5", 0)), 2.0
                )

        response = asyncio.run(scenario())
        assert response.verdict["ok"] is True
        assert response.batch_size == 1

    def test_sequential_requests_each_flush_immediately(self):
        async def scenario():
            async with Coalescer(queue_limit=8, coalesce_window=5.0) as co:
                responses = []
                for seed in range(3):
                    responses.append(
                        await asyncio.wait_for(
                            co.submit(bernoulli_request("fast5", seed)), 2.0
                        )
                    )
                return responses

        responses = asyncio.run(scenario())
        assert [r.batch_size for r in responses] == [1, 1, 1]
        assert all(r.verdict["ok"] for r in responses)

    def test_concurrent_burst_still_coalesces(self):
        """Idle-flush must not break coalescing when company exists:
        a synchronous burst still forms one full batch."""
        requests = [bernoulli_request("fast5", seed) for seed in SEEDS]

        async def scenario():
            async with Coalescer(
                queue_limit=32, max_batch=32, coalesce_window=0.2
            ) as co:
                return await asyncio.gather(
                    *(co.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        assert all(r.batch_size == len(requests) for r in responses)


    def test_window_holds_while_an_earlier_group_runs(self, monkeypatch):
        """While the first group holds the thread executor's slot, the
        next batch waits for a later arrival instead of flushing its
        lone request.  The second request is taken by the batcher before
        the third is submitted, so only the window can put them in one
        group."""
        import threading

        release = threading.Event()
        groups = []

        def gated(requests):
            groups.append(len(requests))
            if len(groups) == 1:
                release.wait(30)
            return execute_requests(requests)

        monkeypatch.setattr("repro.service.coalesce.execute_requests", gated)

        async def scenario():
            async with Coalescer(
                queue_limit=8, max_batch=2, coalesce_window=30.0
            ) as co:
                try:
                    first = asyncio.ensure_future(
                        co.submit(bernoulli_request("fast5", 0))
                    )
                    while not groups:
                        await asyncio.sleep(0.001)
                    second = asyncio.ensure_future(
                        co.submit(bernoulli_request("fast5", 1))
                    )
                    while co.depth < 2 or not co._queue.empty():
                        await asyncio.sleep(0.001)
                    third = asyncio.ensure_future(
                        co.submit(bernoulli_request("fast5", 2))
                    )
                    later = await asyncio.wait_for(
                        asyncio.gather(second, third), 10.0
                    )
                finally:
                    release.set()
                return [await first] + later

        responses = asyncio.run(scenario())
        assert groups == [1, 2]
        assert [r.batch_size for r in responses] == [1, 2, 2]


class TestSingleFlightDedup:
    def test_concurrent_identical_requests_compute_once(self, monkeypatch):
        calls = []
        real = execute_requests

        def counting(requests):
            calls.append(len(requests))
            return real(requests)

        monkeypatch.setattr(
            "repro.service.coalesce.execute_requests", counting
        )
        request = bernoulli_request("fast5", 0)

        async def scenario():
            async with Coalescer(queue_limit=8, coalesce_window=0.05) as co:
                responses = await asyncio.gather(
                    *(co.submit(request) for _ in range(10))
                )
                # The result is now cached: an eleventh request is a
                # pure cache hit, no new claim, no new execution.
                eleventh = await co.submit(request)
                return responses, eleventh, co.flight.joins, co.cache.hits

        responses, eleventh, joins, hits = asyncio.run(scenario())
        # One execution of one request served all ten concurrent callers.
        assert calls == [1]
        assert joins == 9
        # Leader's response is fresh; followers are flagged as shared.
        assert [r.cached for r in responses] == [False] + [True] * 9
        assert len({r.verdict["ok"] for r in responses}) == 1
        assert eleventh.cached is True
        assert hits == 1


class TestBackpressure:
    def test_zero_queue_limit_sheds_everything(self):
        async def scenario():
            async with Coalescer(queue_limit=0) as coalescer:
                with pytest.raises(BackpressureError):
                    await coalescer.submit(bernoulli_request("fast5", 0))

        asyncio.run(scenario())

    def test_overflow_sheds_with_retry_after(self):
        async def scenario():
            async with Coalescer(
                queue_limit=1, coalesce_window=0.2
            ) as coalescer:
                first = asyncio.ensure_future(
                    coalescer.submit(bernoulli_request("fast5", 0))
                )
                await asyncio.sleep(0)  # let the first request enqueue
                assert coalescer.depth == 1
                with pytest.raises(BackpressureError) as excinfo:
                    await coalescer.submit(bernoulli_request("fast5", 1))
                assert excinfo.value.retry_after >= 1.0
                # The admitted request still completes normally.
                response = await first
                assert response.verdict["ok"] is True
            return coalescer

        coalescer = asyncio.run(scenario())
        assert coalescer.depth == 0

    def test_shed_request_can_be_retried(self):
        """Shedding must clear the single-flight claim, or the retry
        would join a future nobody will ever resolve."""

        async def scenario():
            async with Coalescer(queue_limit=0) as shedder:
                request = bernoulli_request("fast5", 2)
                with pytest.raises(BackpressureError):
                    await shedder.submit(request)
                assert len(shedder.flight) == 0
            async with Coalescer(queue_limit=8) as ok:
                response = await ok.submit(request)
                assert response.verdict["ok"] is True

        asyncio.run(scenario())


class TestDrain:
    def test_drain_waits_for_inflight_work(self):
        async def scenario():
            async with Coalescer(queue_limit=8, coalesce_window=0.05) as co:
                futures = [
                    asyncio.ensure_future(
                        co.submit(bernoulli_request("fast5", seed))
                    )
                    for seed in range(3)
                ]
                await asyncio.sleep(0)
                assert co.depth == 3
                assert await co.drain(10.0)
                assert co.depth == 0
                for future in futures:
                    assert (await future).verdict["ok"] is True

        asyncio.run(scenario())
