"""End-to-end HTTP tests: routes, cache, backpressure, timeout, drain.

Each test runs a real :class:`ColorServer` on a background event-loop
thread (ephemeral port) and talks to it over actual sockets with the
stdlib client — the same path ``repro-color serve`` + ``loadgen``
exercise, minus the subprocess.
"""

import asyncio
import http.client
import json

import pytest

from repro.service.client import ServiceClient
from repro.service.loadgen import run_loadgen
from repro.service.schema import ColorRequest
from repro.service.server import ServerThread


def request_of(seed, *, algorithm="fast5", n=24, max_time=200_000):
    return ColorRequest.build(
        algorithm, n, schedule="bernoulli", seed=seed, max_time=max_time
    )


class TestRoutes:
    def test_color_healthz_metrics_roundtrip(self):
        with ServerThread(coalesce_window=0.01) as server:
            with ServiceClient(port=server.port) as client:
                assert client.wait_ready(10)
                health = client.healthz().body
                assert health["status"] == "ok"
                assert health["queue_depth"] == 0

                reply = client.color(request_of(1))
                assert reply.status == 200
                assert reply.body["verdict"]["ok"] is True
                assert reply.body["cached"] is False
                assert reply.body["engine"] in ("fast", "batch")
                assert reply.body["request_key"] == request_of(1).request_key

                again = client.color(request_of(1))
                assert again.status == 200
                assert again.body["cached"] is True
                # Deterministic sections identical between miss and hit.
                for key in ("verdict", "activations", "colors_used"):
                    assert again.body[key] == reply.body[key]

                metrics = client.metrics_text()
                assert "service_cache_hits_total 1" in metrics
                assert "service_cache_misses_total 1" in metrics
                assert 'service_requests_total{route="/v1/color",status="200"} 2' in metrics

    def test_unknown_route_and_wrong_methods(self):
        with ServerThread() as server:
            with ServiceClient(port=server.port) as client:
                assert client._request("GET", "/nope").status == 404
                assert client._request("GET", "/v1/color").status == 405
                assert client._request("POST", "/healthz").status == 405
                assert client._request("POST", "/metrics").status == 405

    def test_validation_and_parse_errors(self):
        with ServerThread() as server:
            with ServiceClient(port=server.port) as client:
                reply = client.color({"algorithm": "nope", "n": 10})
                assert reply.status == 400
                assert "unknown algorithm" in reply.body["error"]

                reply = client.color({"algorithm": "fast5"})
                assert reply.status == 400
                assert "missing required" in reply.body["error"]

                reply = client.color({"algorithm": "fast5", "n": 8, "typo": 1})
                assert reply.status == 400

            # Raw non-JSON body, below the client abstraction.
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            conn.request(
                "POST", "/v1/color", b"{not json",
                {"Content-Type": "application/json"},
            )
            raw = conn.getresponse()
            body = json.loads(raw.read())
            assert raw.status == 400
            assert "invalid JSON" in body["error"]
            conn.close()

    def test_oversize_body_gets_413_and_connection_close(self):
        # The unread body makes the connection unreusable: the server
        # must answer 413 *and* close, and stay healthy afterwards.
        with ServerThread() as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            conn.request(
                "POST", "/v1/color", b"x" * 70_000,
                {"Content-Type": "application/json"},
            )
            raw = conn.getresponse()
            assert raw.status == 413
            assert raw.getheader("Connection") == "close"
            conn.close()
            with ServiceClient(port=server.port) as client:
                assert client.healthz().body["status"] == "ok"

    def test_bad_schedule_params_fail_alone(self):
        """A request whose schedule cannot be built is refused at
        admission (400), so a valid request sent inside the same
        coalescing window still runs (200) instead of failing with it."""
        from concurrent.futures import ThreadPoolExecutor

        good = {
            "algorithm": "fast5", "n": 24, "schedule": "bernoulli",
            "schedule_params": {"p": 0.5}, "seed": 1,
        }
        bad = dict(good, schedule_params={"p": 2.0}, seed=2)
        with ServerThread(coalesce_window=0.5, max_batch=8) as server:
            def send(body):
                with ServiceClient(port=server.port) as client:
                    return client.color(body)

            with ThreadPoolExecutor(2) as pool:
                ok, refused = pool.map(send, [good, bad])
        assert ok.status == 200, ok.body
        assert ok.body["verdict"]["ok"] is True
        assert refused.status == 400, refused.body
        assert refused.body["field"] == "schedule_params"

    def test_client_sends_schedule_params(self):
        # ColorRequest keeps schedule_params as sorted pairs; the wire
        # form the server validates is a JSON object.
        from repro.campaign.registry import (
            resolve_algorithm,
            resolve_inputs,
            resolve_schedule,
            resolve_topology,
        )
        from repro.model.execution import run_execution
        from repro.service.schema import ColorResponse

        request = ColorRequest.build(
            "fast5", 40, schedule="bernoulli", schedule_params={"p": 0.25},
            seed=3,
        )
        local = run_execution(
            resolve_algorithm("fast5")(),
            resolve_topology("cycle", 40),
            resolve_inputs("random", 40, 3),
            resolve_schedule("bernoulli", seed=3, p=0.25),
            max_time=request.max_time,
            engine="reference",
        )
        want = ColorResponse.from_execution(request, local, engine="reference")
        with ServerThread() as server:
            with ServiceClient(port=server.port) as client:
                reply = client.color(request)
                assert reply.status == 200, reply.body
                assert reply.body["request_key"] == request.request_key
                got = ColorResponse.from_dict(reply.body)
                assert got.deterministic_dict() == want.deterministic_dict()

    def test_time_exhausted_diagnostics_are_served(self):
        # Simulation-time exhaustion is a *successful* exchange (200)
        # carrying the diagnostics, mirroring TimeExhaustedError.
        with ServerThread() as server:
            with ServiceClient(port=server.port) as client:
                reply = client.color(
                    ColorRequest.build("fast5", 8, schedule="sync", max_time=1)
                )
                assert reply.status == 200
                assert reply.body["verdict"]["ok"] is False
                diag = reply.body["time_exhausted"]
                assert diag["final_time"] == 1
                assert diag["pending"]


class TestBackpressure:
    def test_queue_overflow_sheds_with_429(self):
        with ServerThread(queue_limit=0) as server:
            with ServiceClient(port=server.port) as client:
                reply = client.color(request_of(0))
                assert reply.status == 429
                assert reply.retry_after is not None
                assert reply.retry_after >= 1.0
                assert "retry-after" in reply.headers
                metrics = client.metrics_text()
                assert "service_shed_total 1" in metrics
                # Health stays green: shedding is load management, not
                # failure.
                assert client.healthz().body["status"] == "ok"


class TestTimeout:
    def test_slow_request_times_out_with_504_then_lands_in_cache(self):
        # The coalescing window no longer delays a lone request (it
        # idle-flushes), so the timeout must come from the simulation
        # itself: a 32768-process run takes hundreds of milliseconds
        # on any hardware, far past the 10 ms budget.  The computation
        # is not abandoned — it finishes behind the 504 and a retry is
        # served from cache, exactly as the error message advertises.
        import time

        slow = request_of(0, n=32_768, max_time=200_000)
        with ServerThread(
            request_timeout=0.01, drain_timeout=60.0
        ) as server:
            with ServiceClient(port=server.port) as client:
                reply = client.color(slow)
                assert reply.status == 504
                assert "timeout" in reply.body["error"]
                assert reply.body["request_key"] == slow.request_key

                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    retry = client.color(slow)
                    if retry.status == 200:
                        break
                    time.sleep(0.1)
                assert retry.status == 200
                assert retry.body["cached"] is True


class TestCoalescingOverHTTP:
    def test_concurrent_unique_requests_coalesce(self, monkeypatch):
        """The window holds a batch open while an earlier group runs.

        The i-th submission reaches the coalescer 20·i ms after it
        arrives, so no two of the eight are queued together and only
        the window can group them.  The first group is held in
        ``execute_requests`` until the coalescer has admitted all eight:
        it keeps the thread executor's one slot busy, so the batch
        behind it holds its 1 s window and collects the other seven on
        any host.  A window that never held would run them as they
        came, one group each.
        """
        import time

        from repro.service import coalesce

        real_execute = coalesce.execute_requests
        groups = []

        with ServerThread(coalesce_window=1.0, max_batch=16) as server:
            def gated_execute(requests):
                groups.append(len(requests))
                if len(groups) == 1:
                    deadline = time.monotonic() + 30.0
                    while (
                        server.coalescer.depth < 8
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                return real_execute(requests)

            monkeypatch.setattr(coalesce, "execute_requests", gated_execute)
            submit = server.coalescer.submit
            arrivals = []

            async def staggered_submit(request):
                arrivals.append(request)
                await asyncio.sleep(0.02 * (len(arrivals) - 1))
                return await submit(request)

            server.coalescer.submit = staggered_submit
            summary = run_loadgen(
                port=server.port,
                requests=8,
                concurrency=8,
                duplicates=0.0,
                n=16,
                max_time=50_000,
            )
            assert summary["statuses"] == {"200": 8}
            assert summary["outcomes"]["errors"] == 0
            assert summary["outcomes"]["coalesced"] >= 2
            occupancy = server.registry.value("service_batch_occupancy")
            assert occupancy is not None and occupancy["max"] >= 2
            assert len(groups) == 2 and sum(groups) == 8, groups

    def test_duplicate_burst_hits_cache(self):
        with ServerThread() as server:
            summary = run_loadgen(
                port=server.port,
                requests=30,
                concurrency=4,
                duplicates=1.0,
                working_set=2,
                n=16,
                max_time=50_000,
            )
            assert summary["statuses"] == {"200": 30}
            # Two unique configurations; everything else was served
            # from cache or joined in flight.
            assert summary["outcomes"]["cached"] >= 26
            hits = server.registry.value("service_cache_hits_total")
            assert hits is not None and hits >= 20


class TestDrain:
    def test_graceful_shutdown_completes_inflight_work(self):
        harness = ServerThread(coalesce_window=0.05)
        server = harness.__enter__()
        try:
            with ServiceClient(port=server.port) as client:
                assert client.wait_ready(10)
                assert client.color(request_of(3)).status == 200
        finally:
            harness.__exit__(None, None, None)
        # After a clean exit the pipeline is empty and closed.
        assert server.coalescer.depth == 0
        assert server.draining is True

    def test_drain_records_duration_histogram(self):
        with ServerThread() as server:
            with ServiceClient(port=server.port) as client:
                assert client.color(request_of(5)).status == 200
        drain = server.registry.value("service_drain_seconds")
        assert drain is not None and drain["count"] == 1
        assert drain["max"] < 30.0


class TestPoolMode:
    """The server on warm worker processes (--pool-workers)."""

    def test_pool_server_roundtrip_and_metrics(self):
        harness = ServerThread(pool_workers=2, coalesce_window=0.01)
        server = harness.__enter__()
        try:
            with ServiceClient(port=server.port) as client:
                assert client.wait_ready(15)
                health = client.healthz().body
                # Workers are pre-spawned before the socket opens.
                assert health["pool"]["workers"] == 2
                reply = client.color(request_of(9))
                assert reply.status == 200
                assert reply.body["verdict"]["ok"] is True
                again = client.color(request_of(9))
                assert again.body["cached"] is True
                metrics = client.metrics_text()
                assert "pool_tasks_total" in metrics
                assert "pool_workers 2" in metrics
        finally:
            harness.__exit__(None, None, None)
        assert server.coalescer.depth == 0
        # The pool was reaped with the server.
        assert server._pool is None

    def test_pool_server_coalesces_bursts(self):
        with ServerThread(
            pool_workers=2, coalesce_window=0.1, max_batch=16
        ) as server:
            summary = run_loadgen(
                port=server.port,
                requests=8,
                concurrency=8,
                duplicates=0.0,
                n=16,
                max_time=50_000,
            )
            assert summary["statuses"] == {"200": 8}
            assert summary["outcomes"]["errors"] == 0
            tasks_ok = server.registry.value(
                "pool_tasks_total", kind="group", status="ok"
            )
            assert tasks_ok is not None and tasks_ok >= 1
