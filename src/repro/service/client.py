"""Blocking HTTP client for the simulation service (stdlib only).

A thin, dependency-free wrapper over :mod:`http.client` with
keep-alive and one transparent reconnect (servers may close idle
connections between calls).  Used by the load generator, the CI smoke
job and the test suite; application code gets structured
:class:`ServiceReply` objects instead of raw sockets.

Timeouts are **never** silently retried: after a socket timeout the
server may still be processing the original request, so a transparent
re-send would duplicate work and hide the latency.  The connection is
dropped (it is mid-response, unusable) and
:class:`~repro.errors.ServiceTimeout` raised.  The one transparent
reconnect covers only connection-*setup*-level failures — a
server-closed keep-alive socket — where no request can have been
executing.

Opt-in resilience (the chaos layer's consuming side): construct with a
:class:`~repro.chaos.resilience.BackoffPolicy` and :meth:`color`
retries retryable outcomes (429, 5xx, transport errors) under capped
seeded-jitter exponential backoff that honors ``Retry-After``, bounded
by an optional per-call wall-clock ``deadline``; add a
:class:`~repro.chaos.resilience.CircuitBreaker` and repeated failures
fail fast with a synthetic 503 until a half-open probe succeeds.  All
of it is deterministic under the policy's seed, so tests assert exact
backoff schedules.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from repro.chaos.resilience import BackoffPolicy, CircuitBreaker
from repro.errors import CircuitOpenError, ServiceError, ServiceTimeout
from repro.obs.trace import TRACE_HEADER
from repro.service.schema import ColorRequest

__all__ = ["ServiceReply", "ServiceClient"]


@dataclass
class ServiceReply:
    """One HTTP exchange: status code, decoded JSON body, headers.

    ``attempts`` counts the sends behind this reply — 1 without
    resilience, possibly more when a retry policy was active.
    """

    status: int
    body: Any
    headers: Dict[str, str]
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after(self) -> Optional[float]:
        """The server's backoff hint on 429/503 replies, if any."""
        value = self.headers.get("retry-after")
        if value is None and isinstance(self.body, dict):
            value = self.body.get("retry_after")
        try:
            return float(value) if value is not None else None
        except (TypeError, ValueError):
            return None

    @property
    def trace_id(self) -> str:
        """The server-side trace id of this exchange, when the server
        ran with tracing on — joinable against ``/debug/trace``.
        Empty string otherwise."""
        header = self.headers.get(TRACE_HEADER.lower(), "")
        if header:
            return header.split("-", 1)[0]
        if isinstance(self.body, dict):
            return str(self.body.get("trace_id", ""))
        return ""


class ServiceClient:
    """Keep-alive client bound to one server address.

    Not thread-safe (one underlying connection): give each load-
    generator worker its own instance.

    Parameters
    ----------
    timeout:
        Socket timeout per exchange; expiry raises
        :class:`ServiceTimeout` (never a silent re-send).
    resilience:
        Opt-in retry policy for :meth:`color`; ``None`` (default)
        keeps the historical one-shot behavior.
    breaker:
        Optional circuit breaker consulted by :meth:`color` when
        ``resilience`` is set; open-circuit calls return a synthetic
        503 reply without touching the network.
    deadline:
        Wall-clock budget in seconds for one :meth:`color` call
        including all retries and backoff sleeps; ``None`` = only the
        per-exchange socket timeout applies.
    sleeper:
        Injection point for tests — receives each backoff delay.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8731,
        *,
        timeout: float = 60.0,
        resilience: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        deadline: Optional[float] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.resilience = resilience
        self.breaker = breaker
        self.deadline = deadline
        self._sleep = sleeper
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> ServiceReply:
        headers = {"Content-Type": "application/json"} if body else {}
        if extra_headers:
            headers.update(extra_headers)
        started = time.monotonic()
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                raw = conn.getresponse()
                payload = raw.read()
                break
            except socket.timeout as exc:
                # The request may still be executing server-side; the
                # connection is mid-exchange and must not be reused,
                # and re-sending would silently duplicate the work.
                # Drop the socket and surface the timeout explicitly.
                self.close()
                raise ServiceTimeout(
                    f"request to {self.host}:{self.port}{path} timed out "
                    f"after {self.timeout:g}s",
                    elapsed=time.monotonic() - started,
                ) from exc
            except (
                ConnectionError,
                http.client.HTTPException,
                OSError,
            ) as exc:
                # One silent reconnect covers a server-closed keep-alive
                # socket (nothing was executing); a second failure is a
                # real outage.  The half-broken connection is rebuilt
                # either way — never reused.
                self.close()
                if attempt:
                    raise ServiceError(
                        f"service at {self.host}:{self.port} unreachable: {exc}"
                    ) from exc
        content_type = raw.getheader("Content-Type", "")
        decoded: Any = payload.decode("utf-8", "replace")
        if "json" in content_type:
            try:
                decoded = json.loads(decoded or "null")
            except json.JSONDecodeError:
                pass
        return ServiceReply(
            status=raw.status,
            body=decoded,
            headers={k.lower(): v for k, v in raw.getheaders()},
        )

    # -- API -----------------------------------------------------------
    def color(
        self,
        request: Union[ColorRequest, Dict[str, Any]],
        *,
        trace_header: Optional[str] = None,
    ) -> ServiceReply:
        """POST one coloring request (a :class:`ColorRequest` or a raw
        JSON-shaped dict, sent as-is so tests can probe validation).
        ``trace_header`` sends an ``X-Repro-Trace-Id`` value so the
        server joins this request to a caller-owned trace.

        With a ``resilience`` policy installed, retryable outcomes
        (429, 5xx, transport errors, timeouts) are retried up to the
        policy's ``max_retries`` under its deterministic backoff,
        honoring ``Retry-After`` and the client ``deadline`` budget;
        the returned reply's ``attempts`` records the sends.  Coloring
        requests are deterministic and cached server-side, so a retry
        after a timeout costs at most duplicate work, never divergent
        results.
        """
        if isinstance(request, ColorRequest):
            # The wire form of schedule_params is a JSON object; config()
            # keeps its pair list, which is what request keys hash.
            payload = {
                **request.config(),
                "schedule_params": dict(request.schedule_params),
            }
        else:
            payload = dict(request)
        extra = {TRACE_HEADER: trace_header} if trace_header else None
        body = json.dumps(payload).encode("utf-8")
        if self.resilience is None:
            return self._request("POST", "/v1/color", body, extra_headers=extra)
        return self._color_resilient(body, extra)

    def _color_resilient(
        self, body: bytes, extra: Optional[Dict[str, str]]
    ) -> ServiceReply:
        policy = self.resilience
        cutoff = (
            time.monotonic() + self.deadline
            if self.deadline is not None
            else None
        )
        attempts = 0
        reply: Optional[ServiceReply] = None
        last_exc: Optional[ServiceError] = None
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.acquire()
                except CircuitOpenError as exc:
                    return ServiceReply(
                        status=503,
                        body={
                            "error": str(exc),
                            "circuit_open": True,
                            "retry_after": exc.retry_after,
                        },
                        headers={},
                        attempts=attempts + 1,
                    )
            attempts += 1
            try:
                reply = self._request(
                    "POST", "/v1/color", body, extra_headers=extra
                )
                last_exc = None
            except ServiceError as exc:
                reply = None
                last_exc = exc
                if self.breaker is not None:
                    self.breaker.record_failure()
            if reply is not None:
                if self.breaker is not None:
                    # 5xx trips the breaker; everything the server
                    # answered deliberately (2xx–4xx, backpressure
                    # included) proves it alive.
                    if reply.status >= 500:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                if reply.status != 429 and reply.status < 500:
                    reply.attempts = attempts
                    return reply
            retries_used = attempts - 1
            if retries_used >= policy.max_retries:
                break
            delay = policy.delay(
                retries_used,
                reply.retry_after if reply is not None else None,
            )
            if cutoff is not None:
                remaining = cutoff - time.monotonic()
                if remaining <= 0:
                    break
                delay = min(delay, remaining)
            if delay > 0:
                self._sleep(delay)
        if reply is None:
            assert last_exc is not None
            raise last_exc
        reply.attempts = attempts
        return reply

    def healthz(self) -> ServiceReply:
        return self._request("GET", "/healthz")

    def debug_trace(self) -> Dict[str, Any]:
        """The flight recorder as Chrome trace-event JSON
        (``GET /debug/trace``); raises when tracing is off."""
        reply = self._request("GET", "/debug/trace")
        if not reply.ok:
            raise ServiceError(f"GET /debug/trace returned {reply.status}")
        return reply.body

    def metrics_text(self) -> str:
        """The Prometheus exposition body of ``GET /metrics``."""
        reply = self._request("GET", "/metrics")
        if not reply.ok:
            raise ServiceError(f"GET /metrics returned {reply.status}")
        return reply.body

    def wait_ready(self, timeout: float = 15.0, interval: float = 0.05) -> bool:
        """Poll ``/healthz`` until the server answers (or time out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.healthz().ok:
                    return True
            except ServiceError:
                pass
            time.sleep(interval)
        return False
