"""Command-line interface: run any algorithm / scheduler / input combo.

Installed as ``repro-color`` (see pyproject) and runnable as
``python -m repro.cli``.  Examples::

    repro-color run --algorithm fast5 --n 50 --inputs random --schedule sync
    repro-color run --algorithm alg2 --n 16 --inputs monotone \\
        --schedule bernoulli --seed 3 --timeline
    repro-color run --algorithm fast6 --n 32 --json
    repro-color metrics --algorithm alg1 --n 64 --schedule round-robin
    repro-color metrics --algorithm fast5 --n 128 --format prom --output m.prom
    repro-color livelock --loops 50
    repro-color falsify --target mis
    repro-color sweep --algorithm fast5 --max-n 4096
    repro-color campaign --algorithms fast5,fast6 --ns 16,32 --seeds 10 \\
        --backend pool --journal artifacts/campaign.jsonl --resume
    repro-color serve --port 8731 --queue-limit 64
    repro-color loadgen --port 8731 --requests 200 --duplicates 0.5 --json

Exit status is non-zero when a verification fails, so the CLI can be
used in scripts as a smoke check.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.complexity import fit_linear, fit_logstar
from repro.analysis.experiments import format_table
from repro.analysis.inputs import monotone_ids, random_distinct_ids, zigzag_ids
from repro.analysis.verify import summarize, verify_execution
from repro.campaign.registry import (
    ALGORITHMS as _ALGORITHMS,
    INPUT_FAMILIES as _INPUTS,
    PALETTES as _PALETTES,
    resolve_schedule,
)
from repro.core.coloring5 import FiveColoring
from repro.core.fast_coloring5 import FastFiveColoring
from repro.core.coin_tossing import log_star
from repro.errors import ReproError
from repro.extensions.livelock import demonstrate_livelock
from repro.model.execution import ENGINES, run_execution, time_exhausted_error
from repro.model.topology import Cycle
from repro.render import render_cycle, render_outputs, render_timeline
from repro.schedulers import (
    AlternatingScheduler,
    BernoulliScheduler,
    RoundRobinScheduler,
    StaggeredScheduler,
    SynchronousScheduler,
)

__all__ = ["main", "build_parser"]

_SCHEDULE_CHOICES = [
    "sync", "round-robin", "bernoulli", "subset", "staggered", "alternating",
]


def _make_schedule(name: str, seed: int):
    return resolve_schedule(name, seed=seed)


def _add_metrics_flags(subparser) -> None:
    subparser.add_argument(
        "--metrics", choices=["off", "json", "prom"], default="off",
        help="collect instrumentation metrics and emit them as a JSON "
             "artifact or Prometheus text exposition (default: off — "
             "zero overhead; see docs/OBSERVABILITY.md)",
    )
    subparser.add_argument(
        "--metrics-output", metavar="PATH",
        help="write the metrics artifact here instead of stdout",
    )


def _add_trace_flags(subparser) -> None:
    subparser.add_argument(
        "--trace-output", metavar="PATH",
        help="record spans end to end and write the trace artifact "
             "here: Chrome trace-event JSON loadable in Perfetto / "
             "chrome://tracing, or one-span-per-line JSONL when PATH "
             "ends in .jsonl (see docs/OBSERVABILITY.md)",
    )


def _write_trace(output, recorder, **metadata) -> None:
    """Write one flight recorder as the requested trace artifact."""
    from repro.obs.trace import write_trace_artifact

    fmt = "jsonl" if str(output).endswith(".jsonl") else "chrome"
    write_trace_artifact(
        output,
        recorder.snapshot(),
        fmt=fmt,
        metadata={**recorder.stats(), **metadata},
    )
    print(f"wrote {output}", file=sys.stderr)


def _emit_metrics(registry, fmt: str, output, *, extra=None) -> None:
    """Print or write one collected registry in the chosen format."""
    from repro.obs.exposition import (
        render_json,
        render_prometheus,
        write_json_artifact,
    )

    # The "wrote" notice goes to stderr: --metrics-output composes with
    # --json modes whose stdout must stay one machine-readable document.
    if fmt == "prom":
        text = render_prometheus(registry)
        if output:
            path = Path(output)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {output}", file=sys.stderr)
        else:
            print(text, end="")
    else:
        if output:
            write_json_artifact(registry, output, extra=extra)
            print(f"wrote {output}", file=sys.stderr)
        else:
            print(
                json.dumps(
                    render_json(registry, extra=extra),
                    indent=2,
                    sort_keys=True,
                )
            )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-color",
        description="Wait-free coloring of the asynchronous cycle (PODC 2022 reproduction).",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verified execution")
    run.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="fast5")
    run.add_argument("--n", type=int, default=20)
    run.add_argument("--inputs", choices=sorted(_INPUTS), default="random")
    run.add_argument("--schedule", choices=_SCHEDULE_CHOICES, default="sync")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--timeline", action="store_true", help="print an activation timeline")
    run.add_argument("--svg", metavar="BASENAME",
                     help="write BASENAME_ring.svg (+ _timeline.svg with --timeline)")
    run.add_argument("--max-time", type=int, default=1_000_000)
    run.add_argument(
        "--engine", choices=list(ENGINES), default="fast",
        help="execution engine: compiled fast path, lockstep batch, "
             "node-vectorized wide, the straight-from-the-paper "
             "reference loop, or 'auto' to pick from the workload "
             "shape (see docs/ENGINE.md)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="machine-readable output: JSON verdict + activation stats",
    )
    _add_metrics_flags(run)
    _add_trace_flags(run)

    metrics = sub.add_parser(
        "metrics",
        help="instrumented, bound-monitored run: checks the paper's "
             "activation budget, palette and proper-coloring promises "
             "live and emits the metrics artifact",
    )
    metrics.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="alg1")
    metrics.add_argument("--n", type=int, default=64)
    metrics.add_argument("--inputs", choices=sorted(_INPUTS), default="random")
    metrics.add_argument("--schedule", choices=_SCHEDULE_CHOICES, default="sync")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--max-time", type=int, default=1_000_000)
    metrics.add_argument("--engine", choices=list(ENGINES), default="fast")
    metrics.add_argument(
        "--budget-scale", type=float, default=1.0,
        help="multiply the paper activation budget (scale < 1 tightens "
             "the bound — useful to demonstrate violation detection)",
    )
    metrics.add_argument("--format", choices=["json", "prom"], default="json")
    metrics.add_argument("--output", metavar="PATH",
                         help="write the artifact here instead of stdout")

    livelock = sub.add_parser(
        "livelock", help="replay the Algorithm 2 livelock witness (finding E13)"
    )
    livelock.add_argument("--loops", type=int, default=50)
    livelock.add_argument(
        "--algorithm", choices=["alg2", "fast5"], default="alg2",
    )

    falsify = sub.add_parser(
        "falsify", help="defeat candidate MIS / 4-color algorithms (Properties 2.1/2.3)"
    )
    falsify.add_argument("--target", choices=["mis", "coloring"], default="mis")
    falsify.add_argument("--n", type=int, default=3)

    sweep = sub.add_parser("sweep", help="activation scaling sweep over n")
    sweep.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="fast5")
    sweep.add_argument("--max-n", type=int, default=1024)
    sweep.add_argument("--seed", type=int, default=0)

    ensemble = sub.add_parser(
        "ensemble", help="verified (inputs x schedulers) ensemble statistics"
    )
    ensemble.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="fast5")
    ensemble.add_argument("--n", type=int, default=24)
    ensemble.add_argument("--seeds", type=int, default=5)

    models = sub.add_parser(
        "models", help="compare LOCAL / DECOUPLED / asynchronous / self-stabilizing"
    )
    models.add_argument("--n", type=int, default=30)
    models.add_argument("--seed", type=int, default=0)

    progress = sub.add_parser(
        "progress",
        help="exact wait-/starvation-/obstruction-freedom classification (E18)",
    )
    progress.add_argument("--n", type=int, default=3)

    campaign = sub.add_parser(
        "campaign",
        help="sharded, resumable experiment campaign (see docs/CAMPAIGN.md)",
    )
    campaign.add_argument(
        "--algorithms", default="fast5",
        help="comma-separated algorithm names (default: fast5)",
    )
    campaign.add_argument(
        "--ns", default="24",
        help="comma-separated cycle sizes (default: 24)",
    )
    campaign.add_argument(
        "--inputs", default="random,monotone,zigzag",
        help="comma-separated input families",
    )
    campaign.add_argument(
        "--schedules", default="sync,round-robin,bernoulli",
        help="comma-separated scheduler names",
    )
    campaign.add_argument("--seeds", type=int, default=5,
                          help="seeds 0..K-1 per grid point")
    campaign.add_argument("--topology", default="cycle")
    campaign.add_argument("--max-time", type=int, default=200_000)
    campaign.add_argument("--engine", choices=list(ENGINES), default="auto",
                          help="execution engine for every task of the grid; "
                               "'auto' (default) packs the grid into lockstep "
                               "batches and adapts per task otherwise")
    campaign.add_argument("--backend", choices=["sequential", "batch", "pool"],
                          default="pool")
    campaign.add_argument("--workers", type=int, default=None,
                          help="pool size (default: cpu count)")
    campaign.add_argument("--pool-workers", dest="workers", type=int,
                          help="alias for --workers: warm worker processes "
                               "of the pool backend (see docs/POOL.md)")
    campaign.add_argument("--timeout", type=float, default=60.0,
                          help="per-task timeout in seconds (pool backend)")
    campaign.add_argument("--retries", type=int, default=2,
                          help="max retries per task")
    campaign.add_argument("--journal", metavar="PATH",
                          help="JSONL journal path (enables --resume)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip tasks already journaled as finished")
    campaign.add_argument("--summary", metavar="PATH",
                          help="write the campaign summary JSON artifact here")
    campaign.add_argument("--json", action="store_true",
                          help="print the summary as JSON instead of text")
    campaign.add_argument("--chaos-plan", metavar="PATH",
                          help="arm a seeded FaultPlan JSON file for this "
                               "campaign (journal kill/torn sites and pool "
                               "worker faults; see docs/CHAOS.md)")
    _add_metrics_flags(campaign)
    _add_trace_flags(campaign)

    serve = sub.add_parser(
        "serve",
        help="serve coloring executions over HTTP with caching, request "
             "coalescing and backpressure (see docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="TCP port (0 = ephemeral; default: 8731)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU result-cache capacity (0 disables caching)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission-queue bound; overflow is shed with 429")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="max requests coalesced into one lockstep batch")
    serve.add_argument("--coalesce-window", type=float, default=0.002,
                       help="seconds to wait for coalescible company "
                            "(default: 0.002)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request wall-clock timeout → 504")
    serve.add_argument("--workers", type=int, default=2,
                       help="executor threads running simulations "
                            "(ignored when --pool-workers is set)")
    serve.add_argument("--pool-workers", type=int, default=0,
                       help="warm worker processes executing simulations; "
                            "0 (default) keeps the in-process thread "
                            "executor — use the CPU count for multi-core "
                            "serving (see docs/POOL.md)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-shutdown drain budget on SIGTERM")
    serve.add_argument("--trace", default="off", metavar="MODE",
                       help="tracing mode: off (default), on (trace every "
                            "request), or sample=K (every Kth request); "
                            "serves the flight recorder at /debug/trace "
                            "and echoes X-Repro-Trace-Id on responses "
                            "(see docs/OBSERVABILITY.md)")
    serve.add_argument("--trace-buffer", type=int, default=4096,
                       help="flight-recorder capacity in spans (bounded "
                            "ring: oldest spans are evicted first)")
    serve.add_argument("--chaos-plan", metavar="PATH",
                       help="arm a seeded FaultPlan JSON file: deterministic "
                            "fault injection at the service/pool sites "
                            "(see docs/CHAOS.md)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the startup/shutdown notices")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a serve endpoint with a deterministic request burst "
             "and report throughput / latency / status split",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8731)
    loadgen.add_argument("--requests", type=int, default=100)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--duplicates", type=float, default=0.0,
                         help="fraction of requests drawn from a hot "
                              "working set (cache exerciser), in [0, 1]")
    loadgen.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                         default="fast5")
    loadgen.add_argument("--n", type=int, default=64)
    loadgen.add_argument("--inputs", choices=sorted(_INPUTS), default="random")
    loadgen.add_argument("--schedule", choices=_SCHEDULE_CHOICES,
                         default="bernoulli")
    loadgen.add_argument("--max-time", type=int, default=200_000)
    loadgen.add_argument("--seed-base", type=int, default=0,
                         help="first seed of the burst (shift to defeat "
                              "a warm server cache)")
    loadgen.add_argument("--working-set", type=int, default=4,
                         help="distinct hot requests behind --duplicates")
    loadgen.add_argument("--timeout", type=float, default=60.0,
                         help="client-side timeout per request")
    loadgen.add_argument("--retry", action="store_true",
                         help="retry retryable outcomes (429/5xx/transport "
                              "errors) under seeded exponential backoff "
                              "honoring Retry-After; off by default so the "
                              "burst measures shedding instead of hiding it")
    loadgen.add_argument("--retry-max", type=int, default=4,
                         help="max retries per request with --retry")
    loadgen.add_argument("--retry-base", type=float, default=0.05,
                         help="base backoff delay in seconds with --retry")
    loadgen.add_argument("--retry-seed", type=int, default=0,
                         help="seed of the deterministic backoff jitter")
    loadgen.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget per request including "
                              "retries (seconds; default: unbounded)")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full summary as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run the chaos harness: a fault-injected in-process server "
             "under retrying load, with invariants checked "
             "(see docs/CHAOS.md)",
    )
    chaos.add_argument("--seeds", default="0",
                       help="comma-separated fault-plan seeds; the harness "
                            "runs once per seed (default: 0)")
    chaos.add_argument("--requests", type=int, default=60,
                       help="requests per burst")
    chaos.add_argument("--concurrency", type=int, default=4)
    chaos.add_argument("--n", type=int, default=32,
                       help="cycle size (kept small: every unique config is "
                            "re-verified on the reference engine)")
    chaos.add_argument("--pool-workers", type=int, default=0,
                       help="arm pool-worker fault sites with this many "
                            "warm worker processes (0 = thread executor)")
    chaos.add_argument("--plan", metavar="PATH",
                       help="override the default fault mix with a "
                            "FaultPlan JSON file (its seed wins)")
    chaos.add_argument("--campaign", action="store_true",
                       help="also run the journal kill/resume leg "
                            "(subprocess campaigns; slower)")
    chaos.add_argument("--no-verify", action="store_true",
                       help="skip the reference-engine bit-identity check")
    chaos.add_argument("--json", action="store_true",
                       help="print the full invariant report as JSON")
    return parser


def _cmd_run(args) -> int:
    algorithm = _ALGORITHMS[args.algorithm]()
    inputs = _INPUTS[args.inputs](args.n, args.seed)
    schedule = _make_schedule(args.schedule, args.seed)
    topology = Cycle(args.n)
    with ExitStack() as stack:
        registry = None
        if args.metrics != "off":
            from repro.obs.metrics import collecting

            registry = stack.enter_context(collecting())
        recorder = None
        if args.trace_output:
            from repro.obs.trace import (
                FlightRecorder,
                TraceContext,
                start_span,
                tracing,
                use_context,
            )

            recorder = FlightRecorder()
            stack.enter_context(tracing(recorder))
            stack.enter_context(use_context(TraceContext.new_root()))
            stack.enter_context(
                start_span(
                    "run",
                    algorithm=args.algorithm, n=args.n,
                    inputs=args.inputs, schedule=args.schedule,
                    seed=args.seed, engine=args.engine,
                )
            )
        result = run_execution(
            algorithm, topology, inputs, schedule,
            max_time=args.max_time, record_trace=args.timeline,
            engine=args.engine,
        )
    if recorder is not None:
        _write_trace(
            args.trace_output, recorder,
            command="run", algorithm=args.algorithm, engine=args.engine,
        )
    summary = summarize(topology, result, _PALETTES[args.algorithm])
    ok = summary.ok and summary.all_terminated
    if result.time_exhausted:
        # Satellite of the observability PR: a run cut off by max_time
        # is surfaced with its partial state, not a bare flag.
        print(f"warning: {time_exhausted_error(result)}", file=sys.stderr)
    if args.json:
        from repro.service.schema import summary_sections

        payload = {
            "algorithm": args.algorithm,
            "n": args.n,
            "inputs": args.inputs,
            "schedule": args.schedule,
            "seed": args.seed,
            "engine": args.engine,
            "engine_used": result.engine,
            **summary_sections(summary),
        }
        if payload["time_exhausted"] is None:
            del payload["time_exhausted"]
        if registry is not None and args.metrics == "json" and not args.metrics_output:
            payload["metrics"] = registry.snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True))
        if registry is not None and (args.metrics == "prom" or args.metrics_output):
            _emit_metrics(registry, args.metrics, args.metrics_output)
        return 0 if ok else 1
    print(f"algorithm : {algorithm.name}")
    print(f"schedule  : {schedule!r}")
    print(f"terminated: {summary.terminated_count}/{args.n}")
    print(f"rounds    : {summary.round_complexity}")
    print(f"proper    : {summary.proper}   palette-ok: {summary.palette_ok}")
    print()
    print(render_cycle(inputs, result.outputs))
    print()
    print(render_outputs(result))
    if args.timeline and result.trace is not None:
        print()
        print(render_timeline(result.trace, args.n))
    if args.svg:
        from repro.svg import save_execution_svgs

        for path in save_execution_svgs(result, inputs, args.svg):
            print(f"wrote {path}")
    if registry is not None:
        print()
        _emit_metrics(registry, args.metrics, args.metrics_output)
    return 0 if ok else 1


def _cmd_metrics(args) -> int:
    from repro.obs import collecting, default_monitors

    algorithm = _ALGORITHMS[args.algorithm]()
    inputs = _INPUTS[args.inputs](args.n, args.seed)
    schedule = _make_schedule(args.schedule, args.seed)
    monitors = default_monitors(args.algorithm, args.n, scale=args.budget_scale)
    with collecting() as registry:
        result = run_execution(
            algorithm, Cycle(args.n), inputs, schedule,
            max_time=args.max_time, engine=args.engine, monitors=monitors,
        )
    reports = [m.report() for m in monitors]
    ok = all(m.ok for m in monitors) and result.all_terminated
    extra = {
        "run": {
            "algorithm": args.algorithm,
            "n": args.n,
            "inputs": args.inputs,
            "schedule": args.schedule,
            "seed": args.seed,
            "engine": args.engine,
            "budget_scale": args.budget_scale,
            "all_terminated": result.all_terminated,
            "round_complexity": result.round_complexity,
        },
        "monitors": reports,
        "ok": ok,
    }
    _emit_metrics(registry, args.format, args.output, extra=extra)
    if not result.all_terminated:
        print(
            f"warning: only {len(result.outputs)}/{args.n} processes returned",
            file=sys.stderr,
        )
    for report in reports:
        for violation in report["violations"]:
            print(f"violation: {violation['message']}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_livelock(args) -> int:
    algorithm = FiveColoring() if args.algorithm == "alg2" else FastFiveColoring()
    result = demonstrate_livelock(algorithm, loop_iterations=args.loops)
    print(f"witness on C_3, ids (1, 2, 3), {args.loops} loop iterations:")
    print(render_outputs(result))
    stuck = sorted(result.pending)
    print(
        f"\nprocesses {stuck} were activated "
        f"{[result.activations[p] for p in stuck]} times without returning "
        "— no finite activation bound exists (finding E13)."
    )
    return 0


def _cmd_falsify(args) -> int:
    if args.target == "mis":
        from repro.lowerbounds.mis import candidate_mis_algorithms, falsify_mis

        for name, algorithm in candidate_mis_algorithms().items():
            outcome = falsify_mis(algorithm, n=args.n)
            status = "DEFEATED" if outcome.found else "survived (bounded)"
            print(f"{name:28s} {status}: {outcome.description}")
    else:
        from repro.lowerbounds.small_palette import (
            candidate_small_palette_algorithms,
            falsify_coloring,
        )

        for name, algorithm in candidate_small_palette_algorithms().items():
            outcome = falsify_coloring(algorithm, n=args.n)
            status = "DEFEATED" if outcome.found else "survived (bounded)"
            print(f"{name:28s} {status}: {outcome.description}")
    return 0


def _cmd_sweep(args) -> int:
    algorithm_factory = _ALGORITHMS[args.algorithm]
    ns = []
    n = 4
    while n <= args.max_n:
        ns.append(n)
        n *= 2
    rows = []
    measured = []
    for n in ns:
        topology = Cycle(n)
        result = run_execution(
            algorithm_factory(), topology, monotone_ids(n), RoundRobinScheduler(),
        )
        summary = summarize(topology, result)
        rows.append(
            {
                "n": n,
                "log*n": log_star(n),
                "rounds": summary.round_complexity,
                "mean": round(summary.mean_activation, 2),
                "terminated": f"{summary.terminated_count}/{n}",
            }
        )
        measured.append(summary.round_complexity)
    print(format_table(rows))
    if len(ns) >= 3:
        c_lin, _ = fit_linear(ns, measured)
        c_log, _ = fit_logstar(ns, measured)
        print(f"\nfit rounds ~ c*n:      c = {c_lin:.4f}")
        print(f"fit rounds ~ c*log*n:  c = {c_log:.4f}")
    return 0


def _cmd_ensemble(args) -> int:
    from repro.analysis.ensembles import run_ensemble
    from repro.analysis.inputs import monotone_ids, zigzag_ids

    n = args.n
    inputs_list = [monotone_ids(n), zigzag_ids(n)] + [
        random_distinct_ids(n, seed=s) for s in range(args.seeds)
    ]
    schedules = [
        ("sync", SynchronousScheduler()),
        ("round-robin", RoundRobinScheduler()),
        ("alternating", AlternatingScheduler()),
        ("staggered", StaggeredScheduler(stagger=2)),
    ] + [
        (f"bernoulli-{s}", BernoulliScheduler(p=0.4, seed=s))
        for s in range(args.seeds)
    ]
    report = run_ensemble(
        _ALGORITHMS[args.algorithm],
        Cycle(n),
        inputs_list,
        schedules,
        palette=_PALETTES[args.algorithm],
    )
    print(f"{args.algorithm} on C_{n} — verified ensemble:")
    print(report)
    return 0 if report.all_ok else 1


def _cmd_models(args) -> int:
    import random as _random

    from repro.analysis.verify import coloring_violations
    from repro.decoupled import AnnouncementColoring, run_decoupled
    from repro.localmodel import ColeVishkinRing, run_local
    from repro.selfstab import ColoringRule, corrupt_states, run_selfstab

    n, seed = args.n, args.seed
    ids = random_distinct_ids(n, seed=seed)
    rows = []

    local = run_local(ColeVishkinRing(id_bits=64), Cycle(n), ids)
    rows.append({"model": "LOCAL", "colors": len(set(local.outputs.values())),
                 "cost": f"{local.rounds} rounds"})

    dec = run_decoupled(
        AnnouncementColoring(), Cycle(n), ids, BernoulliScheduler(p=0.5, seed=seed),
    )
    rows.append({"model": "DECOUPLED", "colors": len(set(dec.outputs.values())),
                 "cost": f"{dec.activation_complexity} activations"})

    asyn = run_execution(
        FastFiveColoring(), Cycle(n), ids, BernoulliScheduler(p=0.5, seed=seed),
    )
    rows.append({"model": "async (paper)", "colors": len(set(asyn.outputs.values())),
                 "cost": f"{asyn.round_complexity} activations"})

    rule = ColoringRule(max_degree=2)
    stab = run_selfstab(
        rule, Cycle(n), corrupt_states(ids, _random.Random(seed)),
        BernoulliScheduler(p=0.5, seed=seed), max_steps=100_000,
    )
    rows.append({"model": "self-stabilizing",
                 "colors": len({s.color for s in stab.states}),
                 "cost": f"{stab.moves} moves"})

    ok = (
        not coloring_violations(Cycle(n), local.outputs)
        and not coloring_violations(Cycle(n), dec.outputs)
        and verify_execution(Cycle(n), asyn, palette=range(5)).ok
        and stab.stabilized
    )
    print(format_table(rows))
    return 0 if ok else 1


def _cmd_progress(args) -> int:
    from repro.core.coloring6 import SixColoring
    from repro.extensions.fast_six import FastSixColoring
    from repro.lowerbounds.progress import classify_progress

    rows = []
    for label, factory in (
        ("alg1", SixColoring), ("alg2", FiveColoring),
        ("fast5", FastFiveColoring), ("fast6", FastSixColoring),
    ):
        report = classify_progress(
            factory(), Cycle(args.n), list(range(1, args.n + 1)),
        )
        rows.append(
            {
                "algorithm": label,
                "wait_free": report.wait_free,
                "starvation_free": report.starvation_free,
                "obstruction_free": report.obstruction_free,
                "configs": report.configs,
                "exhaustive": report.exhausted,
            }
        )
    print(f"progress taxonomy on C_{args.n} (ids 1..{args.n}):\n")
    print(format_table(rows))
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import CampaignSpec, make_backend, run_campaign

    def split(csv: str) -> List[str]:
        return [item.strip() for item in csv.split(",") if item.strip()]

    spec = CampaignSpec.build(
        algorithms=split(args.algorithms),
        ns=[int(n) for n in split(args.ns)],
        input_families=split(args.inputs),
        schedules=split(args.schedules),
        seeds=range(args.seeds),
        topology=args.topology,
        max_time=args.max_time,
        engine=args.engine,
    )
    backend = make_backend(args.backend, workers=args.workers)
    with ExitStack() as stack:
        if getattr(args, "chaos_plan", None):
            from repro.chaos import FaultPlan, chaos as chaos_ctx

            # Installed before the backend spawns so pool workers
            # inherit the plan (journal sites fire in this process).
            stack.enter_context(chaos_ctx(FaultPlan.from_file(args.chaos_plan)))
        registry = None
        if args.metrics != "off":
            from repro.obs.metrics import collecting

            registry = stack.enter_context(collecting())
        recorder = None
        if args.trace_output:
            from repro.obs.trace import FlightRecorder, tracing

            # Campaigns get a deep buffer: every task contributes a
            # handful of spans, and a truncated timeline defeats the
            # point of a campaign-wide artifact.
            recorder = FlightRecorder(max(65536, 8 * spec.size))
            stack.enter_context(tracing(recorder))
        outcome = run_campaign(
            spec,
            backend=backend,
            journal_path=args.journal,
            resume=args.resume,
            task_timeout=args.timeout,
            max_retries=args.retries,
        )
    if recorder is not None:
        _write_trace(
            args.trace_output, recorder,
            command="campaign", spec_hash=spec.spec_hash,
            backend=args.backend, tasks=spec.size,
        )
    if args.summary:
        outcome.summary.write(args.summary)
    if args.json:
        payload = {
            "summary": outcome.summary.to_dict(),
            "all_ok": outcome.all_ok,
            "report": None,
        }
        if outcome.report is not None:
            r = outcome.report
            payload["report"] = {
                "runs": r.runs,
                "terminated_runs": r.terminated_runs,
                "proper_runs": r.proper_runs,
                "palette_ok_runs": r.palette_ok_runs,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"campaign of {spec.size} tasks ({spec.spec_hash}):")
        print(outcome.summary)
        if outcome.report is not None:
            print()
            print(outcome.report)
        if args.summary:
            print(f"\nwrote {args.summary}")
    if registry is not None and (args.metrics == "prom" or args.metrics_output):
        _emit_metrics(registry, args.metrics, args.metrics_output)
    return 0 if outcome.all_ok else 1


def _cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        coalesce_window=args.coalesce_window,
        request_timeout=args.request_timeout,
        executor_workers=args.workers,
        pool_workers=args.pool_workers,
        drain_timeout=args.drain_timeout,
        quiet=args.quiet,
        trace=args.trace,
        trace_buffer=args.trace_buffer,
        chaos_plan=args.chaos_plan,
    )


def _cmd_loadgen(args) -> int:
    from repro.chaos.resilience import BackoffPolicy
    from repro.service.loadgen import run_loadgen

    retry_policy = None
    if args.retry:
        retry_policy = BackoffPolicy(
            base=args.retry_base,
            seed=args.retry_seed,
            max_retries=args.retry_max,
        )
    summary = run_loadgen(
        host=args.host,
        port=args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        duplicates=args.duplicates,
        algorithm=args.algorithm,
        n=args.n,
        inputs=args.inputs,
        schedule=args.schedule,
        max_time=args.max_time,
        seed_base=args.seed_base,
        working_set=args.working_set,
        timeout=args.timeout,
        retry=args.retry,
        retry_policy=retry_policy,
        deadline=args.deadline,
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        outcomes = summary["outcomes"]
        latency = summary["latency_ms"]
        print(
            f"{summary['requests']} requests @ concurrency "
            f"{summary['concurrency']} in {summary['wall_seconds']:.2f}s "
            f"({summary['requests_per_sec']:.1f} req/s)"
        )
        print(f"statuses  : {summary['statuses']}")
        print(
            f"outcomes  : computed={outcomes['computed']} "
            f"cached={outcomes['cached']} coalesced={outcomes['coalesced']} "
            f"errors={outcomes['errors']}"
        )
        print(
            f"latency   : p50={latency['p50']:.1f}ms "
            f"p95={latency['p95']:.1f}ms p99={latency['p99']:.1f}ms "
            f"max={latency['max']:.1f}ms"
        )
        retries = summary["retries"]
        if retries["enabled"]:
            print(
                f"retries   : total={retries['total']} "
                f"attempts={retries['attempts_histogram']}"
            )
        failures = summary.get("failures") or []
        for failure in failures[:5]:
            trace_id = failure.get("trace_id", "")
            suffix = f" trace={trace_id}" if trace_id else ""
            print(
                f"failure   : request #{failure['index']} "
                f"status={failure['status']}{suffix}"
            )
        if len(failures) > 5:
            print(f"            ... and {len(failures) - 5} more")
    # A burst that only produced errors/sheds is a failed smoke check.
    return 0 if summary["ok"] > 0 and summary["outcomes"]["errors"] == 0 else 1


def _cmd_chaos(args) -> int:
    import tempfile
    from pathlib import Path

    from repro.chaos import FaultPlan, run_campaign_chaos, run_service_chaos

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ReproError("chaos: --seeds must name at least one seed")
    plan_override = FaultPlan.from_file(args.plan) if args.plan else None
    reports = []
    for seed in seeds:
        plan = None
        if plan_override is not None:
            plan = FaultPlan(
                plan_override.seed, list(plan_override.rules.values())
            )
        report = run_service_chaos(
            seed,
            requests=args.requests,
            concurrency=args.concurrency,
            n=args.n,
            pool_workers=args.pool_workers,
            plan=plan,
            verify_reference=not args.no_verify,
        )
        if args.campaign:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report["campaign"] = run_campaign_chaos(seed, Path(tmp))
            report["ok"] = report["ok"] and report["campaign"]["ok"]
            report["violations"] = (
                report["violations"] + report["campaign"]["violations"]
            )
        reports.append(report)
    all_ok = all(r["ok"] for r in reports)
    if args.json:
        print(
            json.dumps(
                {"ok": all_ok, "runs": reports}, indent=2, sort_keys=True
            )
        )
    else:
        for report in reports:
            verdict = "OK" if report["ok"] else "VIOLATED"
            print(
                f"seed {report['seed']} [{verdict}]: plan={report['plan_hash']} "
                f"faults={report['chaos_faults_injected']} "
                f"retries={report['retries']['total']} "
                f"statuses={report['statuses']}"
            )
            for violation in report["violations"]:
                print(
                    f"  violation [{violation['invariant']}]: "
                    f"{violation['detail']}"
                )
        print(
            f"{len(reports)} seed(s): "
            + ("all invariants held" if all_ok else "INVARIANT VIOLATIONS")
        )
    return 0 if all_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "metrics": _cmd_metrics,
        "livelock": _cmd_livelock,
        "falsify": _cmd_falsify,
        "sweep": _cmd_sweep,
        "ensemble": _cmd_ensemble,
        "models": _cmd_models,
        "progress": _cmd_progress,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "chaos": _cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"repro-color: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
