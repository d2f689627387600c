"""Admission control and request coalescing into the batch engine.

The service's execution pipeline, between the cache and the engines:

1. **Admission** — a bounded queue.  :meth:`Coalescer.submit` sheds
   with :class:`~repro.errors.BackpressureError` (the server's 429)
   the moment the number of admitted-but-unfinished requests reaches
   ``queue_limit``: explicit backpressure instead of unbounded memory
   growth and collapsing latency.
2. **Single-flight** — concurrent identical requests collapse onto one
   computation before ever reaching the queue (see
   :mod:`repro.service.cache`).
3. **Coalescing** — a batcher task drains the queue, waits at most
   ``coalesce_window`` seconds for company, groups compatible requests
   by the same signature the campaign batch packer uses —
   ``(algorithm, topology, n, max_time)``; seeds, input families and
   schedules are free to differ — and runs each group through
   :func:`execute_requests`, the campaign's resolver under
   ``engine="auto"``: a group is *one* lockstep
   :func:`repro.model.batch.run_batch` call, a singleton runs through
   ``run_execution(engine="auto")`` (:mod:`repro.model.select`).
   Whatever the plane kernels decline runs on the fast path inside
   the engines themselves.  Each response's ``engine`` is the engine
   that actually ran.  Either way the per-request results are
   bit-identical to what a solo run would produce — the equivalence
   tests pin this against the reference engine.

The coalescing window is *adaptive*: the batcher only holds a batch
open while every execution slot is running an earlier group — one slot
per pool worker, one on the GIL-bound thread executor — so the batch
could not start yet anyway.  A batch that could start at once flushes
immediately, so coalescing never costs latency when there is nothing
to wait for — a lone cold request pays execution time, not execution
time plus the window.

Executions are CPU-bound, so groups run on a thread-pool executor by
default; when a :class:`~repro.pool.WorkerPool` is attached they run
in warm worker *processes* instead, which is what lets a multi-core
box serve cold misses faster than a single core (the thread executor
is GIL-bound).  Either way :func:`execute_requests` runs *and
verifies* the group off the event loop, which stays free to serve
cache hits, health checks and metric scrapes while a batch computes,
and the per-request responses are bit-identical — the pool path is
pinned against the in-process reference by the same equivalence tests.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.chaos.injector import maybe_fault
from repro.errors import BackpressureError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TraceContext,
    active_recorder,
    current_context,
    record_event,
    start_span,
    use_context,
)
from repro.service.cache import LRUCache, SingleFlight
from repro.service.schema import ColorRequest, ColorResponse

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pool import WorkerPool

__all__ = ["Coalescer", "execute_requests"]


def execute_requests(
    requests: List[ColorRequest],
) -> Tuple[List[ColorResponse], str]:
    """Run and verify one compatible group; returns (responses, engine).

    Pure and thread-safe: the thread executor and the pool worker's
    ``"group"`` kind both call it.  The group runs through
    :func:`~repro.campaign.worker.run_specs` under ``engine="auto"``;
    each response's ``elapsed`` is an even share of the run time.  The
    engine label is the one that actually ran (``result.engine``):
    ``batch``, ``wide``, or ``fast`` where selection picked it or the
    plane engine declined.
    """
    from repro.campaign.worker import run_specs

    started = perf_counter()
    topology, results = run_specs(requests, "auto")
    results = list(results)
    share = (perf_counter() - started) / len(requests)
    engine = results[0].engine
    responses = [
        ColorResponse.from_execution(
            request, result,
            engine=engine, batch_size=len(requests), elapsed=share,
            topology=topology,
        )
        for request, result in zip(requests, results)
    ]
    return responses, engine


def _execute_traced(
    requests: List[ColorRequest], ctx: Optional[TraceContext]
) -> Tuple[List[ColorResponse], str]:
    """:func:`execute_requests` on an executor thread, under ``ctx``.

    Executor threads do not inherit the submitting task's contextvars,
    so the trace context crosses the thread boundary explicitly here.
    """
    if ctx is None:
        return execute_requests(requests)
    with use_context(ctx):
        with start_span("service.execute") as sp:
            responses, engine = execute_requests(requests)
            sp.set_attribute("engine", engine)
        return responses, engine


@dataclass
class _WorkItem:
    request: ColorRequest
    key: str
    # Trace context captured at submit() time — the batcher task runs
    # under its own (empty) contextvar context, so causality must ride
    # the work item, not the ambient context.
    ctx: Optional[TraceContext] = None


class Coalescer:
    """The cache-fronted, backpressured, coalescing execution pipeline.

    Owns the :class:`LRUCache`, the :class:`SingleFlight` table, the
    bounded admission queue and the batcher task.  Use as an async
    context manager, or call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        *,
        cache_size: int = 1024,
        queue_limit: int = 64,
        max_batch: int = 32,
        coalesce_window: float = 0.002,
        executor: Optional[concurrent.futures.Executor] = None,
        pool: Optional["WorkerPool"] = None,
        registry: Optional[MetricsRegistry] = None,
        pool_task_timeout: Optional[float] = None,
    ):
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.cache = LRUCache(cache_size)
        self.flight = SingleFlight()
        self.queue_limit = queue_limit
        self.max_batch = max_batch
        self.coalesce_window = coalesce_window
        self.registry = registry
        self._executor = executor
        self._owns_executor = executor is None
        self.pool = pool
        # Per-attempt hang deadline for pool-executed groups: without
        # one, a worker hung by a fault (or a genuine wedge) would hold
        # its group's waiters forever — every request must reach a
        # definite status.  ``None`` preserves the no-deadline default.
        self.pool_task_timeout = pool_task_timeout
        # Loop-bound primitives are created in start(), on the serving
        # loop: on Python 3.9 a Queue constructed off-loop would bind
        # whatever loop the constructing thread had.
        self._queue: Optional["asyncio.Queue[_WorkItem]"] = None
        self._admitted = 0
        self._running = 0  # groups dispatched and not yet finished
        self._idle: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._group_tasks: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._batcher is not None:
            return
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        if self._executor is None and self.pool is None:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-service"
            )
        self._batcher = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Cancel the batcher and fail whatever is still in flight."""
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except (asyncio.CancelledError, Exception):
                pass
            self._batcher = None
        for task in list(self._group_tasks):
            task.cancel()
        for key in list(self.flight._inflight):
            self.flight.reject(key, asyncio.CancelledError())
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def __aenter__(self) -> "Coalescer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request has finished.

        Returns ``True`` when the pipeline emptied within ``timeout``
        seconds (``None`` = wait forever) — the graceful-shutdown hook.
        """
        if self._idle is None:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # -- bookkeeping ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Admitted-but-unfinished requests (queued or executing)."""
        return self._admitted

    def _admit(self) -> None:
        self._admitted += 1
        self._idle.clear()
        if self.registry is not None:
            self.registry.set_gauge("service_queue_depth", self._admitted)

    def _retire(self, count: int) -> None:
        self._admitted -= count
        if self._admitted <= 0:
            self._admitted = 0
            self._idle.set()
        if self.registry is not None:
            self.registry.set_gauge("service_queue_depth", self._admitted)

    def _inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if self.registry is not None:
            self.registry.inc(name, value, **labels)

    # -- request path --------------------------------------------------
    async def submit(self, request: ColorRequest) -> ColorResponse:
        """Serve one validated request through cache → dedup → queue.

        Raises :class:`BackpressureError` when the admission queue is
        full.  The returned response is private to the caller (cache
        hits are copies flagged ``cached=True``).
        """
        if self._queue is None:
            raise RuntimeError("Coalescer.submit before start()")
        key = request.request_key
        ctx = current_context() if active_recorder() is not None else None
        hit = self.cache.get(key)
        if hit is not None and not hit.digest_ok:
            # The stored response no longer matches its content seal
            # (bit flip, corrupting bug): drop it and recompute rather
            # than serve a corrupt result.  The chaos harness drives
            # this path deliberately via the ``cache.bitflip`` site.
            self.cache.invalidate(key)
            self._inc("service_cache_digest_failures_total")
            record_event("cache.digest_mismatch", context=ctx, request_key=key)
            hit = None
        if hit is not None:
            self._inc("service_cache_hits_total")
            record_event("cache.hit", context=ctx, request_key=key)
            return replace(hit, cached=True)
        self._inc("service_cache_misses_total")

        future, leader = self.flight.claim(key)
        if not leader:
            self._inc("service_singleflight_joins_total")
            record_event("singleflight.join", context=ctx, request_key=key)
            return replace(await self.flight.wait(future), cached=True)

        if self._admitted >= self.queue_limit:
            # The claim must not leak: fail it so a concurrent
            # follower of this doomed request is shed too.
            error = BackpressureError(
                f"admission queue full ({self._admitted}/{self.queue_limit})",
                retry_after=self._retry_after_hint(),
            )
            self.flight.reject(key, error)
            self._inc("service_shed_total")
            raise error

        self._admit()
        self._queue.put_nowait(_WorkItem(request=request, key=key, ctx=ctx))
        return await self.flight.wait(future)

    def _retry_after_hint(self) -> float:
        """Crude capacity hint: a full queue of batchable work drains
        roughly one coalesced group per execution slot."""
        return max(1.0, self.queue_limit / max(1, self.max_batch))

    # -- batcher -------------------------------------------------------
    def _slots_busy(self) -> bool:
        """Whether every execution slot is running a group: one per pool
        worker, one on the thread executor (a second CPU-bound group
        there would only share the GIL with the first)."""
        slots = self.pool.workers if self.pool is not None else 1
        return self._running >= slots

    def _group_done(self, task: "asyncio.Task") -> None:
        self._group_tasks.discard(task)
        self._running -= 1

    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            batch = [item]
            if self.coalesce_window > 0 and self.max_batch > 1:
                loop = asyncio.get_event_loop()
                deadline = loop.time() + self.coalesce_window
                while len(batch) < self.max_batch:
                    try:
                        batch.append(self._queue.get_nowait())
                        continue
                    except asyncio.QueueEmpty:
                        pass
                    # Idle-flush: a batch that could execute now never
                    # waits for company; one that would only queue
                    # behind running groups holds the window open.
                    if not self._slots_busy():
                        break
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break

            groups: Dict[Tuple[str, str, int, int], List[_WorkItem]] = {}
            for work in batch:
                groups.setdefault(work.request.group_key, []).append(work)
            for group in groups.values():
                # Groups execute as independent tasks so the batcher
                # keeps coalescing the next wave while they run.
                task = asyncio.ensure_future(self._execute_group(group))
                self._group_tasks.add(task)
                self._running += 1
                task.add_done_callback(self._group_done)

    async def _execute_group(self, group: List[_WorkItem]) -> None:
        requests = [w.request for w in group]
        # The first sampled submitter leads the batch: the batch span
        # hangs under its request span, and every other traced member
        # records a follower link event pointing at the leader's batch
        # so a coalesced wait is attributable from either side.
        leader_ctx = next(
            (w.ctx for w in group if w.ctx is not None and w.ctx.sampled),
            None,
        )
        batch_span = start_span(
            "coalesce.batch", context=leader_ctx, batch_size=len(group)
        )
        started = perf_counter()
        try:
            with batch_span:
                batch_ctx = batch_span.context
                if batch_ctx is not None:
                    for work in group:
                        if (
                            work.ctx is not None
                            and work.ctx.sampled
                            and work.ctx is not leader_ctx
                        ):
                            record_event(
                                "coalesce.follower",
                                context=work.ctx,
                                leader_trace_id=batch_ctx.trace_id,
                                leader_span_id=batch_ctx.span_id,
                            )
                if self.pool is not None:
                    # Warm-process path: the worker executes, verifies
                    # and serializes; only JSON-shaped dicts cross the
                    # process boundary (the trace context included) and
                    # the event loop never burns engine CPU.
                    outcome = await asyncio.wrap_future(
                        self.pool.submit_group(
                            [r.config() for r in requests],
                            timeout=self.pool_task_timeout,
                            trace=(
                                batch_ctx.to_dict()
                                if batch_ctx is not None
                                else None
                            ),
                        )
                    )
                    engine = outcome.value["engine"]
                    responses = [
                        ColorResponse.from_dict(d)
                        for d in outcome.value["responses"]
                    ]
                else:
                    loop = asyncio.get_event_loop()
                    responses, engine = await loop.run_in_executor(
                        self._executor, _execute_traced, requests, batch_ctx
                    )
                batch_span.set_attribute("engine", engine)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            for work in group:
                self.flight.reject(work.key, exc)
            self._inc("service_errors_total", len(group))
            self._retire(len(group))
            return
        elapsed = perf_counter() - started
        if self.registry is not None:
            self.registry.observe("service_batch_occupancy", len(group))
            self.registry.observe("service_exec_seconds", elapsed)
        if len(group) > 1:
            self._inc("service_coalesced_requests_total", len(group))
        for work, response in zip(group, responses):
            stored = response
            decision = maybe_fault("cache.bitflip", self.registry)
            if decision is not None:
                # Corrupt only the *stored* copy (the current waiters
                # still get the genuine response): the seeded bit flip
                # is there to prove the digest check catches silent
                # cache corruption on the next hit.
                stored = replace(
                    response,
                    colors_used=list(response.colors_used) + ["__bitflip__"],
                )
            self.cache.put(work.key, stored)
            self.flight.resolve(work.key, response)
        self._retire(len(group))
