"""``python -m repro`` — campaign CLI for the paper's experiments.

Subcommands
-----------
``list``
    Show every registered experiment with its paper artefact and parameters.
``attacks``
    Show every registered attack kind with its physical parameters and the
    experiments that sweep over kinds (mirroring ``list``).
``run <experiment_id>``
    Execute one experiment (through the cache) and print its payload.
``sweep <experiment_id>``
    Expand a parameter sweep (``--grid``/``--zip``/``--set``/``--seeds``)
    and run it serially or on a worker pool (``-j N``) with caching.
``search <kind>``
    Black-box adversarial attack search: a deterministic optimizer
    (``random``, ``evolutionary`` or ``halving``) drives the kind's bounded
    parameter space to maximize accuracy drop per attacked MR, reducing the
    evaluated candidates to a Pareto front over stealth vs. damage.  Every
    candidate is a cached ``fig7_candidate`` run, so interrupted searches
    resume from the result cache; ``--serve`` dispatches each generation to
    a running daemon as a zipped sweep.
``train``
    Pre-warm the trained-model checkpoint cache: train mitigation variant
    grids in one stacked pass and store every trained model
    content-addressed, so later ``fig8``/``fig9``/``fig8_variant``/
    ``fig7_candidate`` runs with ``checkpoint_cache`` load instead of
    re-train.
``report``
    Summarize the records accumulated in the result cache, including
    min/mean/max per-run wall time per experiment, the trained-model
    checkpoint store (entries, size, hits), and Pareto fronts rebuilt from
    cached ``fig7_candidate``/``fig7_adversarial`` records.
``serve``
    Run the persistent campaign service: a durable on-disk job queue, N
    worker processes shared by every submitted sweep (work-stealing across
    concurrent campaigns) and the HTTP API (``POST /sweeps``,
    ``GET /jobs/<id>``, ``GET /results/<id>``, …).  Interrupted campaigns
    resume from the result cache on restart.
``submit``
    Submit a sweep (same ``--grid``/``--zip``/``--set``/``--seeds`` flags as
    ``sweep``) to a running daemon and, by default, wait streaming progress.
``jobs``
    List a daemon's jobs (plus worker-pool and per-node cluster health),
    show/cancel one, or fetch its cached results.
``node``
    Run a federated worker node: register with a coordinator daemon, pull
    runs via time-bounded leases, execute them on a local worker pool, and
    upload results.  SIGTERM/Ctrl-C drains gracefully (finish leased runs,
    upload, deregister); a second signal stops hard — held leases then
    expire on the coordinator and re-dispatch elsewhere.

``repro --version`` prints the library version that keys the caches.

Parameter values are parsed as JSON when possible (``0.05`` → float,
``true`` → bool, ``[1,2]`` → list) and fall back to plain strings, so
``--grid kind=actuation,hotspot`` and ``--set fraction=0.05`` both do what
they look like they do.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Sequence

from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.engine.campaign import Campaign, ProgressEvent
from repro.engine.spec import SweepSpec
from repro.version import __version__

__all__ = ["main", "build_parser"]

#: Exit code for a graceful Ctrl-C/SIGTERM stop (128 + SIGINT).
EXIT_INTERRUPTED = 130


# ------------------------------------------------------------------ parsing
def parse_value(text: str):
    """Parse one CLI value: JSON when valid, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_assignment(text: str) -> tuple[str, object]:
    """Parse ``name=value`` into a (name, parsed value) pair."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}"
        )
    return name, parse_value(value)


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside brackets or quotes."""
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    current = ""
    for char in text:
        if quote is not None:
            current += char
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
            current += char
        elif char in "[{(":
            depth += 1
            current += char
        elif char in ")}]":
            depth -= 1
            current += char
        elif char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    parts.append(current)
    return [part for part in parts if part]


def parse_axis(text: str) -> tuple[str, list]:
    """Parse ``name=v1,v2,v3`` into a (name, values) sweep axis.

    Values are split on top-level commas only, so JSON lists work as single
    axis values: ``shifts_nm=[0.2,2.0],[1.0]`` is a two-point axis.
    """
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    return name, [parse_value(part) for part in _split_top_level(raw)]


def parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and sweep the paper's experiments through the campaign engine.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the library version that keys the result/checkpoint caches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    attacks = sub.add_parser("attacks", help="list registered attack kinds")
    attacks.add_argument("--json", action="store_true", help="print the registry as JSON")

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
            help="result-cache directory (env: REPRO_CACHE_DIR)",
        )
        p.add_argument(
            "--no-cache", action="store_true", help="bypass the result cache"
        )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id")
    run.add_argument(
        "--set", "-p", dest="params", type=parse_assignment, action="append",
        default=[], metavar="NAME=VALUE", help="override one parameter",
    )
    run.add_argument("--seed", type=int, default=None, help="experiment seed")
    run.add_argument("--json", action="store_true", help="print the payload as JSON")
    add_cache_args(run)

    def add_sweep_axis_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("experiment_id")
        p.add_argument(
            "--grid", type=parse_axis, action="append", default=[],
            metavar="NAME=V1,V2,..", help="Cartesian sweep axis (repeatable)",
        )
        p.add_argument(
            "--zip", dest="zipped", type=parse_axis, action="append", default=[],
            metavar="NAME=V1,V2,..", help="position-wise sweep axis (repeatable)",
        )
        p.add_argument(
            "--set", "-p", dest="params", type=parse_assignment, action="append",
            default=[], metavar="NAME=VALUE", help="fixed parameter override",
        )
        p.add_argument(
            "--seeds", type=parse_seeds, default=(0,), metavar="S1,S2,..",
            help="seeds replicated over every point (default: 0)",
        )

    def add_retry_args(p: argparse.ArgumentParser, scope: str) -> None:
        p.add_argument(
            "--max-attempts", type=int, default=None, metavar="N",
            help=f"total attempts per run before it is quarantined "
                 f"({scope})",
        )
        p.add_argument(
            "--run-deadline", type=float, default=None, metavar="SECONDS",
            help="per-run wall-clock budget; a run past it is killed and "
                 "charged a failed attempt (default: none)",
        )
        p.add_argument(
            "--retry-backoff", type=float, default=None, metavar="SECONDS",
            help="base re-dispatch delay, doubled per attempt with "
                 "deterministic jitter",
        )

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_sweep_axis_args(sweep)
    add_retry_args(sweep, scope="default: 1 — failures are final")
    sweep.add_argument(
        "--workers", "-j", default=None,
        help="worker-pool size (default/1: run serially)",
    )
    sweep.add_argument("--serial", action="store_true", help="force serial execution")
    sweep.add_argument("--json", action="store_true", help="print payloads as JSON")
    sweep.add_argument("--quiet", "-q", action="store_true", help="no per-point progress")
    add_cache_args(sweep)

    train = sub.add_parser(
        "train", help="pre-warm the trained-model checkpoint cache"
    )
    train.add_argument(
        "models", nargs="*", default=["cnn_mnist"],
        help="workload models to train (default: cnn_mnist)",
    )
    train.add_argument(
        "--variants", default="all", metavar="V1,V2,..",
        help="variant names ('all': the paper's 11-variant grid; "
             "e.g. Original,L2_reg,l2+n3)",
    )
    train.add_argument("--seed", type=int, default=0, help="study master seed")
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint store (env: REPRO_CHECKPOINT_DIR; "
             "default: .repro-cache/checkpoints)",
    )
    train.add_argument("--json", action="store_true", help="print the summary as JSON")

    report = sub.add_parser("report", help="summarize cached campaign records")
    report.add_argument("--experiment", default=None, help="restrict to one experiment id")
    report.add_argument("--json", action="store_true", help="print the summary as JSON")
    report.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
        help="result-cache directory (env: REPRO_CACHE_DIR)",
    )
    report.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint store to summarize (env: REPRO_CHECKPOINT_DIR)",
    )

    serve = sub.add_parser(
        "serve", help="run the persistent campaign service (job queue + HTTP API)"
    )
    serve.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, help="bind port (default: 8321)")
    serve.add_argument(
        "--workers", "-j", type=int, default=2,
        help="local worker processes shared by all submitted sweeps "
             "(default: 2; 0 = coordinator-only, capacity comes from "
             "federated repro node agents)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=32,
        help="admission bound: active (queued+running) jobs before submits "
             "get 429 (default: 32)",
    )
    serve.add_argument(
        "--max-jobs-per-client", type=int, default=None, metavar="N",
        help="per-client admission bound under --max-jobs, keyed by the "
             "X-Repro-Client header (default: none)",
    )
    serve.add_argument(
        "--jobstore-dir", default=None,
        help="durable job-store directory (env: REPRO_JOBSTORE_DIR; "
             "default: <cache-dir>/jobs)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECONDS",
        help="federated lease time-to-live; a node must renew within this "
             "or its runs re-dispatch (default: 15)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=2.0, metavar="SECONDS",
        help="heartbeat cadence node agents must follow (default: 2)",
    )
    serve.add_argument(
        "--node-timeout", type=float, default=None, metavar="SECONDS",
        help="silence before a node is declared dead and its leases requeue "
             "(default: 5 heartbeats)",
    )
    add_retry_args(serve, scope="service default: 3; per-job overridable")
    add_cache_args(serve)

    def add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default=os.environ.get("REPRO_SERVE_URL", None),
            help="daemon base URL (env: REPRO_SERVE_URL; "
                 "default: http://127.0.0.1:8321)",
        )
        p.add_argument(
            "--client", default=os.environ.get("REPRO_CLIENT", ""),
            metavar="NAME",
            help="client identity sent as X-Repro-Client for per-client "
                 "quotas (env: REPRO_CLIENT; default: anonymous)",
        )

    node = sub.add_parser(
        "node", help="run a federated worker node against a coordinator daemon"
    )
    node.add_argument(
        "--coordinator", default=os.environ.get("REPRO_SERVE_URL", None),
        metavar="URL",
        help="coordinator base URL (env: REPRO_SERVE_URL; "
             "default: http://127.0.0.1:8321)",
    )
    node.add_argument(
        "--workers", "-j", type=int, default=2,
        help="local worker processes this node contributes (default: 2)",
    )
    node.add_argument(
        "--node-id", default=None,
        help="stable node identity (default: <hostname>-<pid>)",
    )
    node.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR", None),
        help="optional local result cache for the node's workers (env: "
             "REPRO_CACHE_DIR; results are always uploaded to the "
             "coordinator's cache — sharing one directory on the same host "
             "makes local runs cache hits too)",
    )

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running repro serve daemon"
    )
    add_sweep_axis_args(submit)
    add_retry_args(submit, scope="default: the daemon's policy")
    add_client_args(submit)
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return immediately after submission instead of streaming progress",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="max seconds to wait for completion (default: forever)",
    )
    submit.add_argument("--json", action="store_true", help="print the job as JSON")
    submit.add_argument("--quiet", "-q", action="store_true", help="no per-point progress")

    jobs = sub.add_parser("jobs", help="inspect a running daemon's jobs")
    jobs.add_argument("job_id", nargs="?", default=None, help="show one job")
    add_client_args(jobs)
    jobs.add_argument(
        "--cancel", action="store_true", help="cancel the given job"
    )
    jobs.add_argument(
        "--results", action="store_true",
        help="fetch the given job's cached results",
    )
    jobs.add_argument(
        "--events", action="store_true",
        help="print the given job's progress lines",
    )
    jobs.add_argument("--json", action="store_true", help="print as JSON")

    search = sub.add_parser(
        "search",
        help="black-box attack search: Pareto front over damage vs. stealth",
    )
    search.add_argument(
        "kind", nargs="?", default="hotspot",
        help="attack kind whose parameter space to search (default: hotspot)",
    )
    search.add_argument(
        "--model", default="cnn_mnist", help="workload model (default: cnn_mnist)"
    )
    search.add_argument(
        "--variant", default="", metavar="V1,V2,..",
        help="mitigation variant(s) to attack, one search per name "
             "(default: the unmitigated model)",
    )
    search.add_argument(
        "--block", default="both", choices=("conv", "fc", "both"),
        help="attacked accelerator block (default: both)",
    )
    search.add_argument(
        "--optimizer", default="random",
        choices=("random", "evolutionary", "halving"),
        help="random: uniform sampling; evolutionary: (mu+lambda) ES; "
             "halving: successive halving over placement budgets "
             "(default: random)",
    )
    search.add_argument(
        "--budget", type=int, default=64,
        help="scenario-evaluation budget — each candidate costs its "
             "placement count (default: 64)",
    )
    search.add_argument(
        "--generation", dest="generation_size", type=int, default=8,
        help="candidates asked per optimizer generation (default: 8)",
    )
    search.add_argument(
        "--placements", type=int, default=2,
        help="random placements evaluated per candidate (default: 2)",
    )
    search.add_argument(
        "--fraction-range", default="0.005,0.1", metavar="LO,HI",
        help="attacked-MR fraction bounds (default: 0.005,0.1)",
    )
    search.add_argument(
        "--sigma", type=float, default=0.2,
        help="[evolutionary] mutation scale in the unit cube (default: 0.2)",
    )
    search.add_argument(
        "--mu", type=int, default=0,
        help="[evolutionary] parents kept per generation "
             "(default: generation/4)",
    )
    search.add_argument(
        "--eta", type=int, default=2,
        help="[halving] survivor divisor per rung (default: 2)",
    )
    search.add_argument("--seed", type=int, default=0, help="search seed")
    search.add_argument(
        "--workers", "-j", default=None,
        help="evaluate generations on one worker pool of this size instead "
             "of the stacked in-process path",
    )
    search.add_argument(
        "--serial", action="store_true",
        help="evaluate generations through the serial campaign executor",
    )
    search.add_argument(
        "--serve", action="store_true",
        help="submit each generation to a repro serve daemon as a zipped "
             "sweep (inherits its retry/quarantine policy)",
    )
    add_client_args(search)
    search.add_argument(
        "--timeout", type=float, default=3600.0,
        help="[--serve] max seconds to wait per generation (default: 3600)",
    )
    add_retry_args(search, scope="campaign/serve backends")
    search.add_argument(
        "--checkpoint-cache", action="store_true",
        help="load/store the variant's trained-model checkpoint",
    )
    search.add_argument("--json", action="store_true", help="print the result as JSON")
    search.add_argument("--quiet", "-q", action="store_true", help="no per-generation progress")
    add_cache_args(search)
    return parser


# ----------------------------------------------------------------- commands
def _cmd_list() -> int:
    from repro.analysis.experiments import EXPERIMENTS
    from repro.analysis.reporting import format_table

    rows = [
        (
            descriptor.experiment_id,
            descriptor.paper_reference,
            descriptor.title,
            ", ".join(sorted(descriptor.default_params)) or "-",
        )
        for descriptor in EXPERIMENTS.values()
    ]
    print(format_table(("id", "artefact", "title", "parameters"), rows))
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    """List the attack-kind registry and where each kind can be swept."""
    from repro.analysis.experiments import EXPERIMENTS
    from repro.analysis.reporting import format_table
    from repro.attacks import attack_kind_info

    accepting = [
        descriptor.experiment_id
        for descriptor in EXPERIMENTS.values()
        if descriptor.attack_kind_params
    ]
    kinds = attack_kind_info()
    if args.json:
        print(json.dumps(
            {"kinds": kinds, "experiments": accepting},
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    rows = []
    for info in kinds:
        params = ", ".join(
            f"{name}={value}{_param_domain(info['param_info'].get(name, {}))}"
            for name, value in info["params"].items()
        ) or "-"
        rows.append((info["kind"], params, info["summary"]))
    print(format_table(("kind", "parameters", "threat model"), rows))
    print(
        "\nexperiments accepting attack kinds (via their kind/kinds parameter): "
        + ", ".join(accepting)
    )
    print("e.g.  python -m repro sweep fig7_point --grid kind=" +
          ",".join(info["kind"] for info in kinds))
    print("e.g.  python -m repro search hotspot --optimizer evolutionary --budget 64")
    return 0


def _param_domain(info: dict) -> str:
    """Render one parameter's search domain: ``[lo..hi]``/``{a|b}`` suffix."""
    bounds = info.get("bounds")
    if bounds is not None:
        lo, hi = bounds
        log = ",log" if info.get("log") else ""
        return f"[{lo:g}..{hi:g}{log}]"
    choices = info.get("choices")
    if choices is not None:
        return "{" + "|".join(str(choice) for choice in choices) + "}"
    return ""


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import get_experiment

    try:
        descriptor = get_experiment(args.experiment_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    params = dict(args.params)
    if "seed" in params and args.seed is None:
        args.seed = int(params.pop("seed"))  # --set seed=N behaves like --seed N
    if args.seed is not None and not descriptor.seedable:
        print(f"error: experiment {args.experiment_id!r} does not take a seed",
              file=sys.stderr)
        return 2
    spec = descriptor.spec(params, args.seed if args.seed is not None else 0)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    campaign = Campaign([spec], cache=cache)
    result = campaign.run()
    record = result.records[0]
    if not record.ok:
        print(f"error: {record.error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(dict(record.payload), indent=2, sort_keys=True))
    else:
        source = "cache" if record.cached else f"executed in {record.duration_s:.2f}s"
        print(f"{descriptor.experiment_id} ({descriptor.paper_reference}) — {source}")
        for key, value in record.payload.items():
            print(f"  {key}: {value}")
    return 0


def _retry_overrides(args: argparse.Namespace) -> dict | None:
    """The retry-policy fields explicitly set on the command line, or None."""
    overrides: dict = {}
    if getattr(args, "max_attempts", None) is not None:
        overrides["max_attempts"] = args.max_attempts
    if getattr(args, "run_deadline", None) is not None:
        overrides["deadline_s"] = args.run_deadline
    if getattr(args, "retry_backoff", None) is not None:
        overrides["backoff_s"] = args.retry_backoff
    return overrides or None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.executor import RetryPolicy

    workers = "serial" if args.serial else args.workers
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    completed = {"count": 0}  # progress survives an interrupt for the report

    def progress(event: ProgressEvent) -> None:
        completed["count"] = event.done
        if not args.quiet and not args.json:
            print(event.message, flush=True)

    try:
        overrides = _retry_overrides(args)
        retry = RetryPolicy.from_dict(overrides) if overrides else None
        sweep = SweepSpec(
            experiment_id=args.experiment_id,
            base=dict(args.params),
            grid=dict(args.grid),
            zipped=dict(args.zipped),
            seeds=args.seeds,
        )
        campaign = Campaign(
            sweep, cache=cache, workers=workers, progress=progress, retry=retry
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    total = len(campaign.specs)
    print(
        f"sweep {args.experiment_id}: {total} points ({campaign.executor.kind})",
        file=sys.stderr,
    )
    # Ctrl-C / SIGTERM stop the sweep *gracefully*: every completed point is
    # already flushed to the cache (Campaign persists per completion), so a
    # re-run resumes exactly where this one stopped.
    with _graceful_sigterm():
        try:
            result = campaign.run()
        except KeyboardInterrupt:
            done = completed["count"]
            where = f"{done}/{total} points complete"
            resume = (
                "; completed runs are cached — re-run the same sweep to resume"
                if cache is not None
                else ""
            )
            print(f"\ninterrupted: {where}{resume}", file=sys.stderr)
            return EXIT_INTERRUPTED
    if args.json:
        print(json.dumps(
            {"summary": result.summary(), "payloads": result.payloads},
            indent=2, sort_keys=True,
        ))
    else:
        summary = result.summary()
        print(
            f"done: {summary['points']} points, {summary['executed']} executed, "
            f"{summary['cache_hits']} cache hits, {summary['failures']} failures "
            f"in {summary['duration_s']}s"
        )
    return 1 if result.failures else 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Run one black-box attack search per requested mitigation variant."""
    from repro.analysis.reporting import format_pareto_table
    from repro.attacks.search import AttackSearch, AttackSearchConfig, SearchError
    from repro.engine.executor import RetryPolicy

    try:
        parts = [float(part) for part in args.fraction_range.split(",")]
        fraction_range = (parts[0], parts[1])
        if len(parts) != 2:
            raise ValueError
    except (IndexError, ValueError):
        print("error: --fraction-range expects LO,HI (e.g. 0.005,0.1)",
              file=sys.stderr)
        return 2
    overrides = _retry_overrides(args)
    retry = RetryPolicy.from_dict(overrides) if overrides else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    client = _make_client(args) if args.serve else None
    workers = "serial" if args.serial else args.workers
    variants = (
        [part.strip() for part in args.variant.split(",")] if args.variant else [""]
    )
    payloads: dict[str, dict] = {}
    for variant in variants:
        try:
            config = AttackSearchConfig(
                kind=args.kind,
                model=args.model,
                variant=variant,
                block=args.block,
                optimizer=args.optimizer,
                budget=args.budget,
                generation_size=args.generation_size,
                placements=args.placements,
                fraction_range=fraction_range,
                sigma=args.sigma,
                mu=args.mu or None,
                eta=args.eta,
                checkpoint_cache=args.checkpoint_cache,
                seed=args.seed,
            )
            search = AttackSearch(
                config, cache=cache, workers=workers, client=client,
                retry=retry, serve_timeout=args.timeout,
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1
        name = variant or "(unmitigated)"
        print(
            f"search {args.kind} on {args.model} {name}: "
            f"{args.optimizer} optimizer, budget {args.budget} "
            f"({search.evaluator.name} evaluation)",
            file=sys.stderr,
        )

        def progress(result) -> None:
            if args.quiet or args.json:
                return
            best = result.best
            best_note = (
                f", best drop {best['drop_mean']:.3f} @ "
                f"{best['num_attacked_mrs']} MRs" if best else ""
            )
            print(
                f"[gen {result.generations}] {result.evaluations}/"
                f"{config.budget} evaluations, {len(result.candidates)} "
                f"candidates{best_note}",
                flush=True,
            )

        with _graceful_sigterm():
            try:
                result = search.run(progress=progress)
            except SearchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            except KeyboardInterrupt:
                resume = (
                    "; evaluated candidates are cached — re-run the same "
                    "search to resume" if cache is not None else ""
                )
                print(f"\ninterrupted{resume}", file=sys.stderr)
                return EXIT_INTERRUPTED
        payloads[name] = result.to_payload()
        if not args.json:
            title = (
                f"Pareto front — {args.model} {name} {args.kind} "
                f"({len(result.candidates)} candidates, "
                f"baseline {result.baseline:.4f})"
            )
            print(format_pareto_table(result.front, title=title))
            best = result.best
            if best is not None:
                print(
                    f"best damage/MR: {best['damage_per_mr']:.2e} "
                    f"(drop {best['drop_mean']:.3f} over "
                    f"{best['num_attacked_mrs']} MRs at fraction "
                    f"{best['fraction']:g})"
                )
            print(
                f"done: {result.evaluations} evaluations in "
                f"{result.generations} generations — {result.executed} "
                f"executed, {result.cache_hits} cache hits in "
                f"{result.duration_s:.2f}s"
            )
    if args.json:
        print(json.dumps(
            payloads if len(payloads) > 1 else payloads[next(iter(payloads))],
            indent=2, sort_keys=True,
        ))
    return 0


class _graceful_sigterm:
    """Context manager turning SIGTERM into KeyboardInterrupt (main thread).

    Lets ``repro sweep`` and ``repro serve`` treat a polite ``kill`` exactly
    like Ctrl-C: flush state, report progress, exit without a traceback.
    Outside the main thread (e.g. tests driving ``cli_main`` from a worker
    thread) signal handlers cannot be installed, so it degrades to a no-op.
    """

    def __enter__(self):
        self._previous = None
        try:
            self._previous = signal.signal(
                signal.SIGTERM, lambda signum, frame: (_ for _ in ()).throw(
                    KeyboardInterrupt()
                )
            )
        except ValueError:  # not the main thread
            pass
        return self

    def __exit__(self, *exc_info):
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        return False


def _jobstore_dir(args: argparse.Namespace) -> str:
    if args.jobstore_dir:
        return args.jobstore_dir
    env = os.environ.get("REPRO_JOBSTORE_DIR")
    if env:
        return env
    return os.path.join(args.cache_dir, "jobs")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent campaign service until interrupted."""
    from repro.engine.executor import RetryPolicy
    from repro.faults import active_plan
    from repro.serve.api import DEFAULT_HOST, DEFAULT_PORT, ServeDaemon
    from repro.serve.service import DEFAULT_POLICY, CampaignService

    if args.no_cache:
        print(
            "error: repro serve requires the result cache — it is what makes "
            "jobs durable and repeat queries free",
            file=sys.stderr,
        )
        return 2
    plan = active_plan()
    if plan is not None:
        # A forgotten REPRO_FAULTS in a real deployment would look like
        # mysterious crashes/hangs; make the chaos plan impossible to miss.
        print(
            f"WARNING: fault injection ACTIVE (REPRO_FAULTS): {plan.describe()}",
            file=sys.stderr, flush=True,
        )
    overrides = _retry_overrides(args)
    policy = RetryPolicy.from_dict(overrides, default=DEFAULT_POLICY) if overrides else None
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    service = CampaignService(
        jobstore_dir=_jobstore_dir(args),
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_jobs=args.max_jobs,
        max_jobs_per_client=args.max_jobs_per_client,
        policy=policy,
        lease_ttl_s=args.lease_ttl,
        heartbeat_s=args.heartbeat,
        node_timeout_s=args.node_timeout,
    )
    daemon = ServeDaemon(
        service,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
    )
    recovered = service.start()  # recover before accepting traffic
    for job in recovered:
        print(f"resuming job {job.job_id} ({job.total} points)", file=sys.stderr)
    workers_note = (
        f"{args.workers} local workers" if args.workers else "coordinator-only"
    )
    print(
        f"repro serve listening on {daemon.url} "
        f"({workers_note}, cache {service.cache.root}, "
        f"jobs {service.store.root})",
        file=sys.stderr, flush=True,
    )
    with _graceful_sigterm():
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            print(
                "\nshutting down: letting workers finish their current runs "
                "(completed points are cached; active jobs resume on restart)",
                file=sys.stderr,
            )
            daemon.shutdown(graceful=True)
            return 0
    return 0


def _sweep_payload(args: argparse.Namespace) -> dict:
    payload = {
        "experiment_id": args.experiment_id,
        "base": dict(args.params),
        "grid": dict(args.grid),
        "zipped": dict(args.zipped),
        "seeds": list(args.seeds),
    }
    overrides = _retry_overrides(args)
    if overrides:
        payload["policy"] = overrides
    return payload


def _make_client(args: argparse.Namespace):
    from repro.serve.client import DEFAULT_URL, ServeClient

    return ServeClient(
        args.url or DEFAULT_URL, client=getattr(args, "client", "") or ""
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import JobFailedError, ServeError

    client = _make_client(args)
    try:
        job = client.submit(_sweep_payload(args))
    except ServeError as exc:
        if exc.status == 429:
            print(f"busy (429): {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 1
    deduped = "" if job.get("created") else " (deduplicated to existing job)"
    print(
        f"job {job['job_id']}: {job['state']}, {job['total']} points{deduped}",
        file=sys.stderr,
    )
    if args.no_wait:
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    on_event = None
    if not args.quiet and not args.json:
        def on_event(line: str) -> None:
            print(line, flush=True)
    try:
        job = client.wait(job["job_id"], timeout=args.timeout, on_event=on_event)
    except JobFailedError as exc:
        # The campaign reached a bad terminal state (distinct from transport
        # errors): report what was given up on and exit non-zero.
        print(f"error: {exc}", file=sys.stderr)
        for entry in exc.quarantined:
            print(
                f"  quarantined: {entry.get('label')} after "
                f"{entry.get('attempts')} attempts — {entry.get('error')}",
                file=sys.stderr,
            )
        if args.json:
            print(json.dumps(exc.job, indent=2, sort_keys=True))
        return 1
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(
            f"\ndetached from job {job['job_id']} (it keeps running; "
            f"check it with: repro jobs {job['job_id']})",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if args.json:
        print(json.dumps(client.results(job["job_id"]), indent=2, sort_keys=True))
    else:
        print(
            f"{job['state']}: {job['total']} points, {job['executed']} executed, "
            f"{job['cache_hits']} cache hits, {job['failures']} failures"
        )
    return 0 if job["state"] == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.serve.client import ServeError

    client = _make_client(args)
    try:
        if args.job_id is None:
            jobs = client.jobs()
            health = client.health()
            pool = health.get("pool", {})
            nodes = health.get("nodes", [])
            if args.json:
                print(json.dumps(
                    {"jobs": jobs, "pool": pool, "nodes": nodes,
                     "degraded": health.get("degraded", False)},
                    indent=2, sort_keys=True,
                ))
                return 0
            print(
                f"workers: {pool.get('alive', '?')}/{pool.get('workers', '?')} alive, "
                f"{pool.get('respawns', 0)}/{pool.get('max_respawns', '?')} respawns"
                + (" — DEGRADED (respawn budget spent)" if pool.get("degraded") else ""),
                file=sys.stderr,
            )
            for entry in nodes:
                flags = "".join(
                    f" [{flag}]"
                    for flag, on in (
                        ("draining", entry.get("draining")),
                        ("quarantined", entry.get("quarantined")),
                    )
                    if on
                )
                print(
                    f"node {entry['node_id']}: {entry['state']}, "
                    f"{entry['leases']} leased / {entry['workers']} workers, "
                    f"{entry['completed']} completed, "
                    f"last heartbeat {entry['last_heartbeat_age_s']}s ago"
                    f"{flags}",
                    file=sys.stderr,
                )
            if health.get("degraded") and any(
                entry["state"] in ("dead", "quarantined") for entry in nodes
            ):
                print(
                    "cluster DEGRADED: dead or quarantined node(s) above",
                    file=sys.stderr,
                )
            if not jobs:
                print("no jobs")
            else:
                rows = [
                    (
                        job["job_id"], job.get("experiment_id", "-"), job["state"],
                        f"{job['done']}/{job['total']}", job["executed"],
                        job["cache_hits"], job["failures"], job["created_at"],
                    )
                    for job in jobs
                ]
                print(format_table(
                    ("job", "experiment", "state", "done", "executed",
                     "cache_hits", "failures", "created"),
                    rows,
                ))
            return 0
        if args.cancel:
            payload = client.cancel(args.job_id)
        elif args.results:
            payload = client.results(args.job_id)
        elif args.events:
            for line in client.events(args.job_id):
                print(line)
            return 0
        else:
            payload = client.job(args.job_id)
        if args.json or args.results:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for key in (
                "job_id", "state", "total", "done", "executed", "cache_hits",
                "failures", "submits", "created_at", "started_at",
                "finished_at", "error", "note",
            ):
                if key in payload and payload[key] not in (None, ""):
                    print(f"  {key}: {payload[key]}")
            for entry in payload.get("quarantined", ()) or ():
                print(
                    f"  quarantined: {entry.get('label')} after "
                    f"{entry.get('attempts')} attempts — {entry.get('error')}"
                )
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_node(args: argparse.Namespace) -> int:
    """Run a federated worker node until drained or stopped."""
    from repro.faults import active_plan
    from repro.serve.client import DEFAULT_URL
    from repro.serve.federation import NodeAgent

    plan = active_plan()
    if plan is not None:
        print(
            f"WARNING: fault injection ACTIVE (REPRO_FAULTS): {plan.describe()}",
            file=sys.stderr, flush=True,
        )
    agent = NodeAgent(
        coordinator=args.coordinator or DEFAULT_URL,
        workers=args.workers,
        node_id=args.node_id or "",
        cache_dir=args.cache_dir,
    )

    signals = {"count": 0}

    def _on_signal(signum, frame):  # noqa: ARG001 — signal signature
        signals["count"] += 1
        if signals["count"] == 1:
            print(
                "\ndraining: finishing leased runs, then deregistering "
                "(signal again to stop hard)",
                file=sys.stderr, flush=True,
            )
            agent.request_drain()
        else:
            agent.stop()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    except ValueError:
        pass  # not the main thread (tests): drain via the agent API instead
    print(
        f"repro node {agent.node_id}: {args.workers} workers -> "
        f"{agent.coordinator}",
        file=sys.stderr, flush=True,
    )
    abandoned = agent.run()
    stats = agent.stats
    print(
        f"node {agent.node_id} exiting: {stats['executed']} executed, "
        f"{stats['uploaded']} uploaded, {stats['fenced']} fenced, "
        f"{abandoned} abandoned",
        file=sys.stderr, flush=True,
    )
    return 0 if not abandoned else EXIT_INTERRUPTED


def _cmd_train(args: argparse.Namespace) -> int:
    """Pre-warm the trained-model checkpoint cache for the given workloads."""
    from time import perf_counter

    from repro.analysis.mitigation_analysis import MitigationAnalysisConfig, MitigationStudy
    from repro.mitigation.robust_training import variant_spec_from_name

    if args.variants == "all":
        variants = None  # the study resolves this to the default 11-variant grid
    else:
        try:
            variants = tuple(
                variant_spec_from_name(name)
                for name in args.variants.split(",")
                if name
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    summary: dict[str, dict] = {}
    for model in args.models:
        config = MitigationAnalysisConfig(
            variants=variants,
            seed=args.seed,
            checkpoint_cache=True,
            checkpoint_dir=args.checkpoint_dir,
        )
        study = MitigationStudy(config)
        try:
            split = study.prepare_split(model)
        except KeyError:
            print(f"error: unknown workload model {model!r}", file=sys.stderr)
            return 1
        start = perf_counter()
        study.train_variants(model, split)
        stats = dict(study.last_training_stats[model])
        stats["duration_s"] = round(perf_counter() - start, 3)
        summary[model] = stats
        if not args.json:
            print(
                f"{model}: {stats['variants']} variants — "
                f"{stats['checkpoint_hits']} loaded from cache, "
                f"{stats['trained']} trained "
                f"({stats['training_steps']} steps) in {stats['duration_s']:.2f}s"
            )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        from repro.engine.checkpoints import CheckpointCache

        cache = CheckpointCache(args.checkpoint_dir)
        print(f"checkpoint store: {cache.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table

    cache = ResultCache(args.cache_dir)
    durations: dict[str, list[float]] = {}
    last_runs: dict[str, str] = {}
    pareto_groups: dict[tuple, list] = {}
    for record in cache.records(args.experiment):
        experiment_id = record.spec.experiment_id
        durations.setdefault(experiment_id, []).append(record.duration_s)
        last_runs[experiment_id] = max(
            last_runs.get(experiment_id, ""), record.started_at
        )
        _collect_pareto_points(record, pareto_groups)
    per_experiment = {
        experiment_id: {
            "records": len(times),
            "total_duration_s": sum(times),
            "min_duration_s": min(times),
            "mean_duration_s": sum(times) / len(times),
            "max_duration_s": max(times),
            "last_run": last_runs[experiment_id],
        }
        for experiment_id, times in durations.items()
    }
    checkpoints = _checkpoint_report(args.checkpoint_dir)
    corrupt = cache.quarantined_count()
    fronts = _pareto_report(pareto_groups)
    if args.json:
        print(json.dumps(
            {
                "experiments": per_experiment,
                "checkpoints": checkpoints,
                "corrupt_quarantined": corrupt,
                "pareto": {
                    "/".join(part or "-" for part in key): payload
                    for key, payload in fronts.items()
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    if not per_experiment:
        print(f"no cached records under {cache.root}")
    else:
        rows = [
            (
                experiment_id,
                stats["records"],
                f"{stats['total_duration_s']:.2f}",
                f"{stats['min_duration_s']:.3f}",
                f"{stats['mean_duration_s']:.3f}",
                f"{stats['max_duration_s']:.3f}",
                stats["last_run"] or "-",
            )
            for experiment_id, stats in sorted(per_experiment.items())
        ]
        print(format_table(
            ("experiment", "records", "compute_s", "min_s", "mean_s", "max_s", "last_run"),
            rows,
        ))
    if checkpoints:
        rows = [
            (
                model,
                stats["checkpoints"],
                f"{stats['size_mb']:.2f}",
                stats["cache_hits"],
            )
            for model, stats in sorted(checkpoints.items())
        ]
        print()
        print(format_table(
            ("model checkpoints", "entries", "size_mb", "cache_hits"), rows
        ))
    if fronts:
        from repro.analysis.reporting import format_pareto_table

        for key in sorted(fronts):
            model, variant, kind = key
            evaluated = len(pareto_groups[key])
            title = (
                f"Pareto front — {model} {variant or '(unmitigated)'} {kind} "
                f"({evaluated} cached candidates)"
            )
            print()
            print(format_pareto_table(fronts[key], title=title))
    if corrupt:
        print(
            f"\nWARNING: {corrupt} corrupt cache file(s) quarantined under "
            f"{cache.corrupt_dir} (recomputed on next access; inspect or delete)"
        )
    return 0


def _checkpoint_report(checkpoint_dir: str | None) -> dict[str, dict]:
    """Per-model summary of the trained-model checkpoint store."""
    from repro.engine.checkpoints import CheckpointCache

    cache = CheckpointCache(checkpoint_dir)
    summary: dict[str, dict] = {}
    for entry in cache.entries():
        stats = summary.setdefault(
            entry["group"], {"checkpoints": 0, "size_mb": 0.0, "cache_hits": 0}
        )
        stats["checkpoints"] += 1
        stats["size_mb"] += entry["size_bytes"] / 1e6
        stats["cache_hits"] += entry["hits"]
    return summary


def _collect_pareto_points(record, groups: dict[tuple, list]) -> None:
    """Fold one cached record into the (model, variant, kind) Pareto pools.

    ``fig7_candidate`` records contribute themselves; ``fig7_adversarial``
    records contribute their embedded front (already reduced per search).
    """
    from repro.attacks.search.pareto import ParetoPoint, candidate_label

    if not record.ok or not record.payload:
        return
    payload = record.payload
    experiment_id = record.spec.experiment_id
    if experiment_id == "fig7_candidate":
        key = (payload["model"], payload.get("variant", ""), payload["kind"])
        groups.setdefault(key, []).append(ParetoPoint(
            stealth=int(payload["num_attacked_mrs"]),
            damage=float(payload["drop_mean"]),
            label=candidate_label(
                payload["kind"],
                payload["fraction"],
                payload.get("attack_params"),
                payload["placements"],
            ),
        ))
    elif experiment_id == "fig7_adversarial":
        key = (payload["model"], payload.get("variant", ""), payload["kind"])
        for point in payload.get("front", ()):
            groups.setdefault(key, []).append(ParetoPoint(
                stealth=int(point["num_attacked_mrs"]),
                damage=float(point["accuracy_drop"]),
                label=point.get("label", ""),
            ))


def _pareto_report(groups: dict[tuple, list]) -> dict[tuple, list]:
    """Reduce each candidate pool to its front, as JSON-ready dicts."""
    from repro.attacks.search.pareto import front_payload, pareto_front

    return {
        key: front_payload(pareto_front(points))
        for key, points in groups.items()
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "attacks":
            return _cmd_attacks(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "node":
            return _cmd_node(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        sys.stderr.close()  # suppress the interpreter's flush-time warning
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
