"""The pool worker: warm process entry point and task execution.

:func:`pool_worker_main` is the target function of every
:class:`~repro.pool.pool.WorkerPool` child process.  It warms the
expensive import graph exactly once (kernels, fast path, batch engine,
registries) and then serves tasks until it receives the ``None``
sentinel — so the kernel caches and register-value identity caches
built by one task stay hot for every task after it (neighbor arrays
are memoized on the topology instance and live as long as it).  That
spawn-once/warm-forever lifecycle is the whole point of the pool: the
per-task cost is one queue hop, not an interpreter plus an import tree.

Two task kinds cross the queue, both as plain JSON-shaped dicts (the
pickle-light protocol — no live objects, everything rebuilt from the
registries inside the worker):

* ``"task"`` — a campaign :class:`~repro.campaign.spec.TaskSpec`
  description; runs :func:`repro.campaign.worker.execute_task` and
  returns the :class:`TaskResult` dict, byte-identical to what the
  in-process backends journal.
* ``"group"`` — a list of service request configurations (the
  :meth:`~repro.service.schema.ColorRequest.config` shape, already
  grouped by the coalescer's batch signature); rebuilds them with
  :meth:`~repro.service.schema.ColorRequest.build` (which re-validates)
  and runs them through :func:`~repro.service.coalesce.execute_requests`,
  the same call the thread executor makes, returning its verified
  :class:`~repro.service.schema.ColorResponse` dicts.  Verification
  happens *in the worker*, so the serving event loop never burns CPU
  on a pool-executed response.

A worker exits on its own when its parent process dies (a SIGKILLed
campaign or server cannot send the sentinel): it never outlives the
pool that owns it.

This module must stay importable without side effects and must not
capture parent-process state beyond the registries and environment.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Mapping

__all__ = [
    "pool_worker_main",
    "run_item",
    "run_item_traced",
]


def warm_imports() -> None:
    """Pre-import the execution stack so the first task pays no import
    cost and compiled-kernel caches persist across tasks."""
    import repro.campaign.registry  # noqa: F401
    import repro.campaign.worker  # noqa: F401
    import repro.model.batch  # noqa: F401
    import repro.model.fastpath  # noqa: F401
    import repro.model.kernels  # noqa: F401
    import repro.obs.trace  # noqa: F401
    import repro.service.coalesce  # noqa: F401
    import repro.service.schema  # noqa: F401


def run_item(kind: str, payload: Any) -> Any:
    """Execute one protocol item; the single dispatch point the
    recovery tests drive both in-process and through real workers."""
    if kind == "task":
        from repro.campaign.worker import execute_task

        return execute_task(payload).to_dict()
    if kind == "group":
        from repro.service.coalesce import execute_requests
        from repro.service.schema import ColorRequest

        responses, engine = execute_requests(
            [ColorRequest.build(**config) for config in payload]
        )
        return {
            "engine": engine,
            "responses": [response.to_dict() for response in responses],
        }
    raise ValueError(f"unknown pool task kind {kind!r}")


def run_item_traced(
    wid: int, kind: str, payload: Any, trace: Mapping[str, Any]
) -> Dict[str, Any]:
    """:func:`run_item` under the submitted trace context.

    The worker records into its own short-lived
    :class:`~repro.obs.trace.FlightRecorder` and ships the span dicts
    back wrapped around the value — ``{"__trace__": [...], "value":
    ...}`` — so the parent's supervisor can merge them into the serving
    process's recorder.  The ``pool.task`` span's parent is the
    submitting span in the *parent* process, which is exactly what
    joins the cross-process tree back up.
    """
    from repro.obs.trace import (
        FlightRecorder,
        TraceContext,
        start_span,
        tracing,
        use_context,
    )

    ctx = TraceContext.from_dict(trace)
    recorder = FlightRecorder()
    with tracing(recorder):
        with use_context(ctx):
            with start_span(
                "pool.task",
                worker=wid,
                attempt=int(trace.get("attempt", 1)),
                kind=kind,
            ):
                value = run_item(kind, payload)
    return {
        "__trace__": [record.to_dict() for record in recorder.snapshot()],
        "value": value,
    }


def _exit_with_parent() -> None:
    """Exit this worker as soon as its parent process dies.

    A parent killed outright never sends the shutdown sentinel, and
    the re-parented worker would block on its task queue forever.  The
    parent's sentinel becomes ready when it dies, whatever the start
    method; a daemon thread waits on it and ends the process.
    """
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(0)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


def pool_worker_main(wid: int, task_q, result_q) -> None:
    """Worker loop: warm up once, then serve tasks until the sentinel.

    Runs in a child process.  Results are ``(item_id, wid, status,
    payload)`` tuples where payload is a JSON-shaped dict on ``"ok"``
    and an error string on ``"error"`` — a raising task is reported
    (the worker lives on); only a dying process ends the loop.

    When a fault plan rides in via the chaos environment export, the
    worker installs its own ``worker:<wid>``-scoped copy and probes the
    ``pool.worker.*`` sites: ``slow_start`` (once, before serving),
    then per task ``crash`` (``os._exit``), ``hang`` (sleep past any
    deadline) and ``raise`` (a reported :class:`ChaosInjectedError`) —
    exactly the three failure modes the supervisor recovers from.
    """
    from repro.chaos.injector import ensure_worker_plan, maybe_fault

    _exit_with_parent()
    warm_imports()
    plan = ensure_worker_plan(f"worker:{wid}")
    if plan is not None:
        decision = maybe_fault("pool.worker.slow_start")
        if decision is not None:
            time.sleep(decision.param if decision.param is not None else 0.2)
    while True:
        message = task_q.get()
        if message is None:
            return
        item_id = message["id"]
        trace = message.get("trace")
        if plan is not None:
            if maybe_fault("pool.worker.crash") is not None:
                os._exit(57)
            decision = maybe_fault("pool.worker.hang")
            if decision is not None:
                time.sleep(
                    decision.param if decision.param is not None else 600.0
                )
        try:
            if plan is not None:
                decision = maybe_fault("pool.worker.raise")
                if decision is not None:
                    from repro.errors import ChaosInjectedError

                    raise ChaosInjectedError(
                        "injected worker fault",
                        site=decision.site,
                        index=decision.index,
                    )
            if trace is not None:
                value = run_item_traced(
                    wid, message["kind"], message["payload"], trace
                )
            else:
                value = run_item(message["kind"], message["payload"])
        except Exception as exc:  # noqa: BLE001 - reported to supervisor
            result_q.put(
                (item_id, wid, "error", f"{type(exc).__name__}: {exc}")
            )
        else:
            result_q.put((item_id, wid, "ok", value))
