"""The chaos harness: loadgen vs a fault-injected server, invariants checked.

The headline artifact of the chaos layer (``repro-color chaos`` and
``tests/integration/test_chaos.py``): boot an in-process
:class:`~repro.service.server.ServerThread` armed with a seeded
:class:`~repro.chaos.plan.FaultPlan`, drive it with the deterministic
load generator in retry mode, and check the system invariants the
paper's fault-tolerance discipline demands of the stack itself:

1. **Definite status** — every request terminates with a concrete
   outcome (an HTTP status or a raised client error); nothing hangs
   silently.  Proven by the burst completing with its accounting
   closed: statuses + client errors = requests sent.
2. **Bit-identical results** — every eventually-successful response's
   deterministic payload equals what the straight-from-the-paper
   reference engine computes for that configuration, and its content
   digest still seals it.  Injected latency, 5xx, worker crashes and
   cache bit flips may cost retries, never wrong answers.
3. **Bounded respawns** — with a worker pool attached, injected
   crashes/hangs never push worker restarts past ``initial workers +
   restart_burst`` inside one burst: the supervisor's storm brake
   holds.
4. **Clean journal resume** — a campaign killed by an injected
   journal fault resumes to the exact uninterrupted result
   (:func:`run_campaign_chaos`, driven through the real CLI in a
   subprocess).

Everything is a pure function of the seed: the plan's fault sequence,
the load mix and the backoff schedules all replay bit-for-bit, so a
red harness run is reproducible from its seed alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.chaos.plan import FaultPlan, FaultRule
from repro.chaos.resilience import BackoffPolicy

__all__ = ["default_plan", "run_service_chaos", "run_campaign_chaos"]

#: Storm-brake budget the harness configures and asserts against.
HARNESS_RESTART_BURST = 8


def default_plan(seed: int, *, pool: bool = False) -> FaultPlan:
    """The harness's default fault mix for one burst.

    Rates are modest and capped so a ~60-request burst sees every
    fault class a handful of times without drowning in them; worker
    rules are included only when a pool is attached (their caps apply
    per worker scope).
    """
    rules = [
        FaultRule("service.dispatch.latency", rate=0.15, param=0.02),
        FaultRule("service.dispatch.error", rate=0.10, max_faults=8),
        FaultRule(
            "service.queue.saturate", rate=0.05, max_faults=4, param=0.05
        ),
        FaultRule("cache.bitflip", rate=0.10, max_faults=4),
    ]
    if pool:
        rules += [
            FaultRule("pool.worker.crash", rate=0.08, max_faults=1),
            FaultRule("pool.worker.raise", rate=0.08, max_faults=2),
            FaultRule("pool.worker.hang", rate=0.04, max_faults=1, param=30.0),
            FaultRule(
                "pool.worker.slow_start", rate=0.3, max_faults=1, param=0.05
            ),
        ]
    return FaultPlan(seed, rules)


def _reference_response(request):
    """What the reference engine says this request's response must be."""
    from repro.campaign.worker import run_specs
    from repro.service.schema import ColorResponse

    topology, (result,) = run_specs([request], "reference")
    return ColorResponse.from_execution(
        request, result, engine="reference", topology=topology
    )


def run_service_chaos(
    seed: int,
    *,
    requests: int = 60,
    concurrency: int = 4,
    duplicates: float = 0.3,
    algorithm: str = "fast5",
    n: int = 32,
    pool_workers: int = 0,
    queue_limit: int = 32,
    plan: Optional[FaultPlan] = None,
    verify_reference: bool = True,
    client_deadline: float = 30.0,
) -> Dict[str, Any]:
    """One fault-injected burst; returns the invariant report.

    The report's ``ok`` is True iff every checked invariant held and
    no request ended in a client-side error; ``violations`` lists what
    broke, each entry carrying enough to reproduce (seed, plan hash,
    request key).
    """
    from repro.service.loadgen import run_loadgen
    from repro.service.schema import ColorResponse
    from repro.service.server import ServerThread

    plan = plan if plan is not None else default_plan(
        seed, pool=pool_workers > 0
    )
    collected: List[Dict[str, Any]] = []

    def collect(index, request, reply):
        collected.append(
            {"index": index, "request": request, "reply": reply}
        )

    with ServerThread(
        queue_limit=queue_limit,
        request_timeout=20.0,
        pool_workers=pool_workers,
        pool_task_timeout=2.0 if pool_workers else None,
        chaos=plan,
    ) as server:
        if server._pool is not None:
            server._pool.restart_burst = HARNESS_RESTART_BURST
        summary = run_loadgen(
            port=server.port,
            requests=requests,
            concurrency=concurrency,
            duplicates=duplicates,
            algorithm=algorithm,
            n=n,
            timeout=25.0,
            retry=True,
            retry_policy=BackoffPolicy(
                base=0.02, cap=0.25, jitter=0.5, seed=seed, max_retries=8
            ),
            deadline=client_deadline,
            collect=collect,
        )
        pool_stats = (
            server._pool.stats() if server._pool is not None else None
        )
        chaos_total = sum(
            sample["value"]
            for sample in server.registry.snapshot()
            .get("chaos_faults_injected_total", {"samples": []})["samples"]
        )

    violations: List[Dict[str, Any]] = []

    # Invariant 1: definite status for every request.
    accounted = sum(summary["statuses"].values()) + summary["outcomes"]["errors"]
    if accounted != summary["requests"]:
        violations.append(
            {
                "invariant": "definite_status",
                "detail": f"{accounted} outcomes for {summary['requests']} requests",
            }
        )

    # Invariant 2: every eventually-successful response bit-identical
    # to the reference engine, digest seal intact.
    references: Dict[str, Dict[str, Any]] = {}
    for entry in collected:
        reply = entry["reply"]
        if reply.status != 200 or not isinstance(reply.body, dict):
            continue
        response = ColorResponse.from_dict(reply.body)
        if not response.digest_ok:
            violations.append(
                {
                    "invariant": "content_digest",
                    "request_key": response.request_key,
                    "detail": "served response fails its digest seal",
                }
            )
            continue
        if not verify_reference:
            continue
        key = entry["request"].request_key
        if key not in references:
            references[key] = _reference_response(
                entry["request"]
            ).deterministic_dict()
        if response.deterministic_dict() != references[key]:
            violations.append(
                {
                    "invariant": "bit_identical",
                    "request_key": key,
                    "detail": "served payload differs from the reference engine",
                }
            )

    # Invariant 3: bounded respawns (pool mode only).
    if pool_stats is not None:
        respawn_bound = pool_workers + HARNESS_RESTART_BURST
        if pool_stats["restarts"] > respawn_bound:
            violations.append(
                {
                    "invariant": "bounded_respawns",
                    "detail": (
                        f"{pool_stats['restarts']} restarts exceed the "
                        f"storm-brake bound {respawn_bound}"
                    ),
                }
            )

    if summary["outcomes"]["errors"]:
        violations.append(
            {
                "invariant": "definite_status",
                "detail": (
                    f"{summary['outcomes']['errors']} request(s) ended in "
                    "client-side errors despite retries"
                ),
            }
        )

    return {
        "seed": seed,
        "plan_hash": plan.plan_hash,
        "plan": plan.to_dict(),
        "requests": summary["requests"],
        "statuses": summary["statuses"],
        "retries": summary["retries"],
        "outcomes": summary["outcomes"],
        "chaos_faults_injected": chaos_total,
        "pool": pool_stats,
        "verified_unique_configs": len(references),
        "violations": violations,
        "ok": not violations,
    }


def run_campaign_chaos(
    seed: int,
    workdir: Path,
    *,
    site: str = "campaign.journal.torn",
    after: int = 6,
    seeds: int = 8,
) -> Dict[str, Any]:
    """Invariant 4: kill a real campaign at a journal append, resume.

    Runs the actual CLI in subprocesses: a baseline campaign, then the
    same campaign with a fault plan that kills the process at its
    ``after``-th journal line (header included), then ``--resume``
    without the plan.  Checks the kill landed (exit 137), the resume
    skipped exactly the journaled records, and the final report is
    bit-identical to the uninterrupted baseline.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    repo_root = Path(__file__).resolve().parents[3]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_CHAOS_PLAN", None)
    campaign_args = [
        sys.executable, "-m", "repro.cli", "campaign",
        "--algorithms", "fast5",
        "--ns", "16",
        "--inputs", "random",
        "--schedules", "sync,bernoulli",
        "--seeds", str(seeds),
        "--backend", "sequential",
        "--json",
    ]

    def run(extra, check=True):
        proc = subprocess.run(
            campaign_args + extra,
            cwd=repo_root, env=env, capture_output=True, text=True,
        )
        if check and proc.returncode != 0:
            raise RuntimeError(
                f"campaign subprocess failed ({proc.returncode}): {proc.stderr}"
            )
        return proc

    baseline = run(["--journal", str(workdir / "base.jsonl")])
    base_payload = json.loads(baseline.stdout)

    plan = FaultPlan(seed, [FaultRule(site, rate=1.0, after=after)])
    plan_path = workdir / "plan.json"
    plan_path.write_text(plan.to_json() + "\n")
    journal = workdir / "campaign.jsonl"
    killed = run(
        ["--journal", str(journal), "--chaos-plan", str(plan_path)],
        check=False,
    )
    violations: List[Dict[str, Any]] = []
    if killed.returncode != 137:
        violations.append(
            {
                "invariant": "journal_resume",
                "detail": (
                    f"injected {site} did not kill the campaign "
                    f"(exit {killed.returncode})"
                ),
            }
        )
    resumed = run(["--journal", str(journal), "--resume"])
    payload = json.loads(resumed.stdout)
    total = 2 * seeds
    summary = payload["summary"]
    if summary["skipped"] + summary["executed"] != total:
        violations.append(
            {
                "invariant": "journal_resume",
                "detail": (
                    f"resume accounting broken: {summary['skipped']} skipped "
                    f"+ {summary['executed']} executed != {total}"
                ),
            }
        )
    # The fault fired at journal probe ``after`` (probe 0 is the
    # header): records 1..after-1 are durable, the ``after``-th is
    # either never written (kill) or torn and skipped on load (torn) —
    # both sites leave exactly ``after - 1`` resumable records.
    expected_skipped = after - 1
    if killed.returncode == 137 and summary["skipped"] != expected_skipped:
        violations.append(
            {
                "invariant": "journal_resume",
                "detail": (
                    f"resume skipped {summary['skipped']} records, expected "
                    f"exactly {expected_skipped}"
                ),
            }
        )
    if payload["report"] != base_payload["report"] or not payload["all_ok"]:
        violations.append(
            {
                "invariant": "journal_resume",
                "detail": "resumed report differs from the uninterrupted baseline",
            }
        )
    return {
        "seed": seed,
        "plan_hash": plan.plan_hash,
        "site": site,
        "kill_exit": killed.returncode,
        "skipped": summary["skipped"],
        "executed": summary["executed"],
        "violations": violations,
        "ok": not violations,
    }
