"""Campaign execution backends: sequential reference and process pool.

Both backends implement one contract — :meth:`CampaignBackend.execute`
takes a list of :class:`~repro.campaign.spec.TaskSpec` and invokes
``on_record`` exactly once per task with a *terminal* record
(``status`` ``"ok"`` or ``"failed"``), in completion order.  The
runner journals and aggregates those records without knowing which
backend produced them.

:class:`SequentialBackend` runs tasks in-process, in grid order.  It
retries raising tasks but cannot enforce wall-clock timeouts or
survive a task that kills the interpreter — it exists for tests,
small grids, and as the semantics reference.

:class:`PoolBackend` is the production path, built on the shared warm
worker pool (:class:`repro.pool.WorkerPool`).  Each worker has a
private task queue and holds at most one task, so the supervisor
always knows exactly which task every worker holds.  That makes the
three failure modes recoverable without losing or duplicating tasks:

* a task **raises** — the worker reports the error and lives on; the
  supervisor requeues the task (bounded by ``max_retries``);
* a task **hangs** — the supervisor's deadline fires, the worker is
  killed and replaced, the task requeued (counted as a timeout);
* a worker **dies** (segfault, ``os._exit``, OOM-kill) — liveness
  monitoring spots the corpse, respawns a worker, requeues the task
  (counted as a crash).

A task that exhausts ``max_retries`` is recorded as ``"failed"`` with
its last error; the campaign always completes.  The pool persists
across :meth:`~PoolBackend.execute` calls, so sharded campaigns and
``--resume`` reuse the same warm workers instead of respawning.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign import worker
from repro.campaign.registry import resolve_palette
from repro.campaign.spec import TaskSpec
from repro.errors import CampaignError, PoolTaskError
from repro.obs.metrics import active_registry
from repro.obs.trace import (
    active_recorder,
    deterministic_context,
    record_complete,
    use_context,
)

__all__ = [
    "CampaignBackend",
    "SequentialBackend",
    "BatchBackend",
    "PoolBackend",
    "make_backend",
]

#: ``on_record`` callback signature: one terminal record per task.
RecordSink = Callable[[Dict[str, Any]], None]


def _record(
    task: TaskSpec,
    status: str,
    *,
    result: Optional[Dict[str, Any]],
    error: Optional[str],
    attempts: int,
    elapsed: float,
    worker: Optional[int],
    timeouts: int = 0,
    crashes: int = 0,
) -> Dict[str, Any]:
    return {
        "hash": task.task_hash,
        "task": task.to_dict(),
        "status": status,
        "result": result,
        "error": error,
        "attempts": attempts,
        "elapsed": elapsed,
        "worker": worker,
        "timeouts": timeouts,
        "crashes": crashes,
    }


class CampaignBackend:
    """Interface: execute tasks, emitting one terminal record each."""

    name = "abstract"
    workers = 1

    def execute(
        self,
        tasks: Sequence[TaskSpec],
        *,
        task_timeout: float = 60.0,
        max_retries: int = 2,
        on_record: RecordSink,
    ) -> None:
        raise NotImplementedError


class SequentialBackend(CampaignBackend):
    """In-process, in-order execution (tests / small grids).

    Honors ``max_retries`` for raising tasks; ``task_timeout`` is not
    enforceable in-process and is ignored (documented limitation).
    """

    name = "sequential"
    workers = 1

    def execute(
        self,
        tasks: Sequence[TaskSpec],
        *,
        task_timeout: float = 60.0,
        max_retries: int = 2,
        on_record: RecordSink,
    ) -> None:
        registry = active_registry()
        traced = active_recorder() is not None
        for i, task in enumerate(tasks):
            if registry is not None:
                registry.set_gauge(
                    "campaign_queue_depth", len(tasks) - i, backend=self.name
                )
            # Deterministic per-task root span: the same task hash
            # yields the same trace/span ids on every run, so the
            # timelines of a --resume'd campaign join up instead of
            # fragmenting across sessions.
            root = deterministic_context(task.task_hash) if traced else None
            attempts = 0
            status = "ok"
            started = time.perf_counter()
            wall = time.time()
            with use_context(root):
                while True:
                    attempts += 1
                    try:
                        result = worker.execute_task(task.to_dict())
                    except Exception as exc:
                        if attempts > max_retries:
                            status = "failed"
                            on_record(
                                _record(
                                    task,
                                    "failed",
                                    result=None,
                                    error=f"{type(exc).__name__}: {exc}",
                                    attempts=attempts,
                                    elapsed=time.perf_counter() - started,
                                    worker=None,
                                )
                            )
                            break
                        continue
                    on_record(
                        _record(
                            task,
                            "ok",
                            result=result.to_dict(),
                            error=None,
                            attempts=attempts,
                            elapsed=result.elapsed,
                            worker=None,
                        )
                    )
                    break
            if root is not None:
                record_complete(
                    "campaign.task", root, wall,
                    time.perf_counter() - started,
                    task_hash=task.task_hash, status=status,
                    attempts=attempts, backend=self.name,
                )
        if registry is not None:
            registry.set_gauge("campaign_queue_depth", 0, backend=self.name)


class BatchBackend(CampaignBackend):
    """Batch-aware task packer: compatible tasks run in one call.

    Tasks are grouped by ``(algorithm, topology, n, max_time, engine)``
    and each group is one :func:`~repro.campaign.worker.run_specs`
    call, packed by :func:`~repro.model.execution.run_executions`'s
    rule: a ``"batch"`` group, or an ``"auto"`` group of several tasks,
    is *one* lockstep :func:`~repro.model.batch.run_batch` call; other
    groups run per task, one result at a time.  Every task still gets
    its own terminal record with its own hash and
    :class:`~repro.campaign.worker.TaskResult` — bit-identical to what
    per-run execution would journal, which is what keeps ``--resume``
    sound when a journal holds half of a former group (the remainder
    simply re-packs into a smaller batch).  A lockstep run's wall time
    is attributed evenly across its tasks.

    A group that raises falls back, from the task that raised on, to
    per-task execution with the sequential backend's retry semantics.
    Like :class:`SequentialBackend`, this backend runs in-process and
    ignores ``task_timeout``.
    """

    name = "batch"
    workers = 1

    def execute(
        self,
        tasks: Sequence[TaskSpec],
        *,
        task_timeout: float = 60.0,
        max_retries: int = 2,
        on_record: RecordSink,
    ) -> None:
        registry = active_registry()
        traced = active_recorder() is not None
        groups: Dict[Any, List[TaskSpec]] = {}
        for task in tasks:
            key = (task.algorithm, task.topology, task.n, task.max_time,
                   task.engine)
            groups.setdefault(key, []).append(task)

        fallback: List[TaskSpec] = []
        done = 0
        for (algorithm, _, _, _, engine), group in groups.items():
            if registry is not None:
                registry.set_gauge(
                    "campaign_queue_depth", len(tasks) - done, backend=self.name
                )
            try:
                started = time.perf_counter()
                topology, results = worker.run_specs(group, engine)
                # What the call itself took (resolution, and the whole
                # lockstep run when it packed) is shared evenly; a
                # per-task run adds its own time as it is drawn.
                share = (time.perf_counter() - started) / len(group)
                results = iter(results)
            except Exception:
                fallback.extend(group)
                continue
            palette = resolve_palette(algorithm)
            for i, task in enumerate(group):
                drawn = time.perf_counter()
                try:
                    result = next(results)
                except Exception:
                    fallback.extend(group[i:])
                    break
                elapsed = share + time.perf_counter() - drawn
                task_result = worker.task_result_from_execution(
                    task, topology, result, palette, elapsed=elapsed
                )
                if traced:
                    # Each packed task keeps its own deterministic
                    # root, spanning the time attributed to it.
                    record_complete(
                        "campaign.task",
                        deterministic_context(task.task_hash),
                        time.time() - elapsed, elapsed,
                        task_hash=task.task_hash, status="ok",
                        attempts=1, backend=self.name,
                        group_size=len(group),
                    )
                on_record(
                    _record(
                        task,
                        "ok",
                        result=task_result.to_dict(),
                        error=None,
                        attempts=1,
                        elapsed=elapsed,
                        worker=None,
                    )
                )
                done += 1

        if fallback:
            SequentialBackend().execute(
                fallback,
                task_timeout=task_timeout,
                max_retries=max_retries,
                on_record=on_record,
            )
        if registry is not None:
            registry.set_gauge("campaign_queue_depth", 0, backend=self.name)


class PoolBackend(CampaignBackend):
    """Campaign execution on the supervised warm worker pool.

    A thin adapter: task specs are submitted to a
    :class:`repro.pool.WorkerPool` (crash/hang supervision, bounded
    retry and warm-worker reuse all live there) and the resulting
    :class:`~repro.pool.PoolOutcome` / :class:`PoolTaskError` are
    translated into the campaign's terminal record vocabulary.  The
    pool is created lazily on the first :meth:`execute` and kept warm
    for subsequent calls (shards, ``--resume``); pass ``pool=`` to
    share one across backends, or call :meth:`close` to reap workers
    eagerly instead of at interpreter exit.
    """

    name = "pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        mp_context: Optional[str] = None,
        poll_interval: float = 0.05,
        pool: Optional[Any] = None,
    ):
        import os

        self.workers = max(1, workers or os.cpu_count() or 1)
        self._mp_context = mp_context
        self._poll = poll_interval
        self._pool = pool
        self._owns_pool = pool is None

    def _ensure_pool(self) -> Any:
        from repro.pool import WorkerPool

        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(
                self.workers,
                mp_context=self._mp_context,
                poll_interval=self._poll,
            )
            self._owns_pool = True
        return self._pool

    def close(self) -> None:
        """Reap this backend's workers now (idempotent)."""
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=False)
        self._pool = None

    def execute(
        self,
        tasks: Sequence[TaskSpec],
        *,
        task_timeout: float = 60.0,
        max_retries: int = 2,
        on_record: RecordSink,
    ) -> None:
        import concurrent.futures

        if not tasks:
            return
        if task_timeout <= 0:
            raise CampaignError(f"task_timeout must be > 0, got {task_timeout}")
        seen = set()
        for task in tasks:
            if task.task_hash in seen:
                raise CampaignError(
                    f"duplicate task hash {task.task_hash} in campaign grid"
                )
            seen.add(task.task_hash)

        pool = self._ensure_pool()
        registry = active_registry()
        total = len(tasks)
        done = 0
        if registry is not None:
            registry.set_gauge(
                "campaign_queue_depth", total, backend=self.name
            )
        # Deterministic per-task roots (same ids on every run of the
        # same grid) so pool-worker spans from a --resume'd campaign
        # land in the same timelines as the original run's.
        roots = (
            {task.task_hash: deterministic_context(task.task_hash)
             for task in tasks}
            if active_recorder() is not None
            else {}
        )
        wall_started = time.time()
        perf_started = time.perf_counter()
        futures = {
            pool.submit_task(
                task.to_dict(),
                timeout=task_timeout,
                max_retries=max_retries,
                label=task.task_hash,
                trace=(
                    roots[task.task_hash].to_dict()
                    if task.task_hash in roots
                    else None
                ),
            ): task
            for task in tasks
        }
        for future in concurrent.futures.as_completed(futures):
            task = futures[future]
            try:
                outcome = future.result()
            except PoolTaskError as exc:
                record = _record(
                    task,
                    "failed",
                    result=None,
                    error=str(exc),
                    attempts=exc.attempts,
                    elapsed=exc.elapsed,
                    worker=exc.worker,
                    timeouts=exc.timeouts,
                    crashes=exc.crashes,
                )
            except Exception as exc:  # pool shut down underneath us
                record = _record(
                    task,
                    "failed",
                    result=None,
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=1,
                    elapsed=0.0,
                    worker=None,
                )
            else:
                record = _record(
                    task,
                    "ok",
                    result=outcome.value,
                    error=None,
                    attempts=outcome.attempts,
                    # Prefer the task's own measured run time (what the
                    # journal has always carried) over queue-to-finish.
                    elapsed=outcome.value.get("elapsed", outcome.elapsed),
                    worker=outcome.worker,
                    timeouts=outcome.timeouts,
                    crashes=outcome.crashes,
                )
            done += 1
            if registry is not None:
                registry.set_gauge(
                    "campaign_queue_depth", total - done, backend=self.name
                )
            root = roots.get(task.task_hash)
            if root is not None:
                # Queue-to-finish envelope over the worker-side
                # pool.task span (which rode back with the result).
                record_complete(
                    "campaign.task", root, wall_started,
                    time.perf_counter() - perf_started,
                    task_hash=task.task_hash, status=record["status"],
                    attempts=record["attempts"], backend=self.name,
                )
            on_record(record)


def make_backend(
    name: str,
    *,
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
) -> CampaignBackend:
    """Backend factory used by the CLI (``--backend``)."""
    if name == "sequential":
        return SequentialBackend()
    if name == "batch":
        return BatchBackend()
    if name == "pool":
        return PoolBackend(workers=workers, mp_context=mp_context)
    raise CampaignError(
        f"unknown backend {name!r} (known: sequential, batch, pool)"
    )
