"""Request/response schema of the simulation service.

A :class:`ColorRequest` is a *description* of one coloring execution —
the same JSON-round-trippable shape as a campaign
:class:`~repro.campaign.spec.TaskSpec`, minus the engine choice (the
service picks the engine: coalesced requests run on the batch engine,
singletons on the fast path, and the engines are observably
identical).  Validation is strict: unknown fields, unknown registry
names and out-of-range sizes are rejected with
:class:`~repro.errors.RequestValidationError` before any work is
admitted, so the serving layer never materializes objects from an
unvetted description.

Keys follow the repo-wide content-hash discipline
(:mod:`repro.util.hashing`, shared with ``campaign.spec``):
:attr:`ColorRequest.request_key` is the canonical hash of the
engine-free configuration and doubles as the cache / single-flight
key, while :meth:`ColorRequest.task_spec` produces the journal-
compatible :class:`TaskSpec` (whose hash additionally pins the engine
that actually ran).  Because both hashes are computed by the same
helper over the same field names, service keys and campaign hashes
cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.analysis.verify import Summary, summarize
from repro.campaign.registry import (
    ALGORITHMS,
    INPUT_FAMILIES,
    SCHEDULERS,
    TOPOLOGIES,
    resolve_schedule,
)
from repro.campaign.spec import TaskSpec
from repro.errors import ReproError, RequestValidationError
from repro.model.topology import Topology
from repro.util.hashing import canonical_hash

__all__ = [
    "MAX_COMPLETE_N",
    "MAX_N",
    "MAX_TIME_CAP",
    "ColorRequest",
    "ColorResponse",
    "summary_sections",
]

#: Hard cap on the cycle size a single request may ask for — a serving
#: process must bound the memory and CPU one admission can consume.
MAX_N = 65_536

#: Hard cap on ``n`` for ``topology="complete"``: a step on K_n reads
#: every register, so a run costs about n^3.  The slowest terminating
#: request on K_112 takes about one second (see docs/SERVICE.md).
MAX_COMPLETE_N = 112

#: Hard cap on the simulated-time budget of one request.
MAX_TIME_CAP = 10_000_000

#: The request fields the schema knows; anything else is a typo that
#: would otherwise silently change the cache key.
_FIELDS = frozenset(
    {
        "algorithm",
        "topology",
        "n",
        "inputs",
        "schedule",
        "schedule_params",
        "seed",
        "max_time",
    }
)


def _require_int(value: Any, field: str) -> int:
    # bool is an int subclass; `true` is not a size.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestValidationError(
            f"field {field!r} must be an integer, got {type(value).__name__}",
            field=field,
        )
    return value


def _require_registered(name: Any, registry: Mapping[str, Any], field: str) -> str:
    if not isinstance(name, str):
        raise RequestValidationError(
            f"field {field!r} must be a string, got {type(name).__name__}",
            field=field,
        )
    # Unlike campaign specs, service requests may not use dotted import
    # paths: the server must never import code named by a client.
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise RequestValidationError(
            f"unknown {field} {name!r} (known: {known})", field=field
        )
    return name


@dataclass(frozen=True)
class ColorRequest:
    """One validated coloring execution request.

    Construct with :meth:`from_json_dict` (the HTTP path) or
    :meth:`build` (in-process callers); both validate.  Instances are
    frozen and hashable, so they can key dictionaries directly.
    """

    algorithm: str
    n: int
    topology: str = "cycle"
    inputs: str = "random"
    schedule: str = "sync"
    schedule_params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    max_time: int = 200_000

    # -- construction --------------------------------------------------
    @classmethod
    def build(
        cls,
        algorithm: str,
        n: int,
        *,
        topology: str = "cycle",
        inputs: str = "random",
        schedule: str = "sync",
        schedule_params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        max_time: int = 200_000,
    ) -> "ColorRequest":
        """A validated request; also the inverse of :meth:`config`, so
        ``schedule_params`` may be a mapping or ``[key, value]`` pairs."""
        request = cls(
            algorithm=algorithm,
            n=n,
            topology=topology,
            inputs=inputs,
            schedule=schedule,
            schedule_params=tuple(sorted(dict(schedule_params or {}).items())),
            seed=seed,
            max_time=max_time,
        )
        request.validate()
        return request

    @classmethod
    def from_json_dict(cls, payload: Any) -> "ColorRequest":
        """Parse and validate one decoded JSON request body."""
        if not isinstance(payload, dict):
            raise RequestValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - _FIELDS)
        if unknown:
            raise RequestValidationError(
                f"unknown request field(s): {', '.join(unknown)}",
                field=unknown[0],
            )
        for required in ("algorithm", "n"):
            if required not in payload:
                raise RequestValidationError(
                    f"missing required field {required!r}", field=required
                )
        params = payload.get("schedule_params") or {}
        if not isinstance(params, dict):
            raise RequestValidationError(
                "field 'schedule_params' must be a JSON object",
                field="schedule_params",
            )
        return cls.build(
            algorithm=payload["algorithm"],
            n=_require_int(payload["n"], "n"),
            topology=payload.get("topology", "cycle"),
            inputs=payload.get("inputs", "random"),
            schedule=payload.get("schedule", "sync"),
            schedule_params=params,
            seed=_require_int(payload.get("seed", 0), "seed"),
            max_time=_require_int(payload.get("max_time", 200_000), "max_time"),
        )

    def validate(self) -> None:
        """Fail fast on anything the serving layer must not admit."""
        _require_registered(self.algorithm, ALGORITHMS, "algorithm")
        _require_registered(self.topology, TOPOLOGIES, "topology")
        _require_registered(self.inputs, INPUT_FAMILIES, "inputs")
        _require_registered(self.schedule, SCHEDULERS, "schedule")
        _require_int(self.n, "n")
        _require_int(self.seed, "seed")
        _require_int(self.max_time, "max_time")
        if not 3 <= self.n <= MAX_N:
            raise RequestValidationError(
                f"n must be in [3, {MAX_N}], got {self.n}", field="n"
            )
        if self.topology == "complete" and self.n > MAX_COMPLETE_N:
            raise RequestValidationError(
                f"n must be in [3, {MAX_COMPLETE_N}] on topology 'complete', "
                f"got {self.n}",
                field="n",
            )
        if not 1 <= self.max_time <= MAX_TIME_CAP:
            raise RequestValidationError(
                f"max_time must be in [1, {MAX_TIME_CAP}], got {self.max_time}",
                field="max_time",
            )
        for key, value in self.schedule_params:
            if not isinstance(key, str):
                raise RequestValidationError(
                    "schedule_params keys must be strings",
                    field="schedule_params",
                )
            if isinstance(value, (dict, list)):
                raise RequestValidationError(
                    f"schedule_params[{key!r}] must be a JSON scalar",
                    field="schedule_params",
                )
        # Build the schedule once, so a bad parameter is this request's
        # 400 and not an error for every request coalesced with it.
        try:
            resolve_schedule(self.schedule, self.seed, **dict(self.schedule_params))
        except (ReproError, TypeError, ValueError) as exc:
            raise RequestValidationError(
                f"schedule_params rejected by {self.schedule!r}: {exc}",
                field="schedule_params",
            ) from exc

    # -- identity ------------------------------------------------------
    def config(self) -> Dict[str, Any]:
        """The engine-free run configuration, in TaskSpec field names."""
        return {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "n": self.n,
            "inputs": self.inputs,
            "schedule": self.schedule,
            "schedule_params": [list(kv) for kv in self.schedule_params],
            "seed": self.seed,
            "max_time": self.max_time,
        }

    @property
    def request_key(self) -> str:
        """Cache / single-flight key: canonical hash of :meth:`config`.

        The engine is deliberately *not* part of the key — the engines
        are observably identical (the differential harnesses pin it),
        so a result computed by one may be served for a request that
        another engine would have run.
        """
        return canonical_hash(self.config())

    @property
    def group_key(self) -> Tuple[str, str, int, int]:
        """Coalescing signature, matching the campaign batch packer:
        requests agreeing on it may run in one lockstep batch."""
        return (self.algorithm, self.topology, self.n, self.max_time)

    def task_spec(self, engine: str) -> TaskSpec:
        """The journal-compatible TaskSpec of this request under
        ``engine`` — its ``task_hash`` records how a result was
        actually produced."""
        return TaskSpec(
            algorithm=self.algorithm,
            topology=self.topology,
            n=self.n,
            inputs=self.inputs,
            schedule=self.schedule,
            schedule_params=self.schedule_params,
            seed=self.seed,
            max_time=self.max_time,
            engine=engine,
        )

    def label(self) -> str:
        return (
            f"{self.algorithm}/{self.topology}{self.n}/{self.inputs}"
            f"/{self.schedule}/s{self.seed}"
        )


def summary_sections(summary: Summary) -> Dict[str, Any]:
    """A response's deterministic sections (``run --json`` prints them too)."""
    pending = summary.pending_activations
    return {
        "verdict": {
            "ok": summary.ok and summary.all_terminated,
            "all_terminated": summary.all_terminated,
            "terminated": summary.terminated_count,
            "proper": summary.proper,
            "palette_ok": summary.palette_ok,
        },
        "activations": {
            "round_complexity": summary.round_complexity,
            "total": summary.total_activations,
            "max": summary.round_complexity,
            "mean": summary.mean_activation,
            "final_time": summary.final_time,
        },
        "colors_used": sorted({str(c) for c in summary.colors}),
        "time_exhausted": None if pending is None else {
            "final_time": summary.final_time,
            "pending": list(pending),
            "activations": {str(p): count for p, count in pending.items()},
        },
    }


@dataclass
class ColorResponse:
    """One served execution result, JSON-shaped.

    The *deterministic* sections (verdict, activations, colors,
    exhaustion diagnostics) are pure functions of the request — equal
    across engines, cache hits and coalesced batches, which is what
    the equivalence tests assert.  The *provenance* sections (engine,
    cached, batch_size, elapsed, task_hash) record how this particular
    response was produced.

    ``content_digest`` seals the deterministic sections with their
    canonical hash at construction time, so any later corruption of a
    stored response (the chaos layer's cache bit-flip site, a buggy
    serializer) is detectable by :meth:`digest_ok` before the response
    is served from cache.  It is excluded from
    :meth:`deterministic_dict` — it is a seal *over* that payload, not
    part of it.
    """

    request_key: str
    task_hash: str
    engine: str
    cached: bool
    batch_size: int
    verdict: Dict[str, Any]
    activations: Dict[str, Any]
    colors_used: list
    time_exhausted: Optional[Dict[str, Any]]
    elapsed: float
    content_digest: str = ""

    @classmethod
    def from_execution(
        cls,
        request: ColorRequest,
        result: Any,
        *,
        engine: str,
        batch_size: int = 1,
        elapsed: float = 0.0,
        topology: Optional[Topology] = None,
    ) -> "ColorResponse":
        """Verify one finished execution and distill it into a response.

        ``topology`` is the request's resolved topology when the caller
        already has it; it is resolved from the request otherwise.
        """
        from repro.campaign.registry import resolve_palette, resolve_topology

        if topology is None:
            topology = resolve_topology(request.topology, request.n)
        summary = summarize(topology, result, resolve_palette(request.algorithm))
        response = cls(
            request_key=request.request_key,
            task_hash=request.task_spec(engine).task_hash,
            engine=engine,
            cached=False,
            batch_size=batch_size,
            elapsed=elapsed,
            **summary_sections(summary),
        )
        response.content_digest = response.compute_digest()
        return response

    def compute_digest(self) -> str:
        """Canonical hash of the deterministic payload as it is *now*."""
        return canonical_hash(self.deterministic_dict())

    @property
    def digest_ok(self) -> bool:
        """Does the stored seal still match the deterministic payload?

        Responses without a seal (older serializations) pass vacuously.
        """
        return (
            not self.content_digest
            or self.content_digest == self.compute_digest()
        )

    def to_dict(self) -> Dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ColorResponse":
        return cls(
            request_key=d["request_key"],
            task_hash=d["task_hash"],
            engine=d["engine"],
            cached=bool(d["cached"]),
            batch_size=int(d["batch_size"]),
            verdict=dict(d["verdict"]),
            activations=dict(d["activations"]),
            colors_used=list(d["colors_used"]),
            time_exhausted=(
                dict(d["time_exhausted"])
                if d.get("time_exhausted") is not None
                else None
            ),
            elapsed=float(d["elapsed"]),
            content_digest=str(d.get("content_digest", "")),
        )

    def deterministic_dict(self) -> Dict[str, Any]:
        """The engine-/provenance-independent sections only — the part
        that must be bit-identical however the request was executed."""
        return {
            "request_key": self.request_key,
            "verdict": self.verdict,
            "activations": self.activations,
            "colors_used": self.colors_used,
            "time_exhausted": self.time_exhausted,
        }
