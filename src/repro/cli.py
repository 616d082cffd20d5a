"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets`` — list the six datasets with summary statistics.
* ``traces``   — export a dataset's traces (bandwidth CSV or Mahimahi
  packet-delivery format, ready for a real emulation testbed).
* ``figures``  — regenerate the paper's figures at a configuration tier.
* ``runtimes`` — measure the Section 3.1 running-time remark.
* ``shapes``   — run the qualitative shape checks and exit non-zero on
  failure (CI-friendly).
* ``serve-demo`` — build one safety suite and serve N concurrent
  monitored sessions through the :mod:`repro.serve` engine.
* ``serve-api`` — boot the long-lived multi-tenant safety service
  (:mod:`repro.service`): clients attach sessions over a line-delimited
  JSON socket and stream observations for monitored decisions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.config import ExperimentConfig, get_config
from repro.errors import ReproError
from repro.pensieve import checkpoint
from repro.experiments import (
    measure_runtimes,
    render_report,
    run_all_distributions,
    shape_checks,
)
from repro.experiments.artifacts import ArtifactCache
from repro.traces.dataset import DATASET_NAMES, make_dataset
from repro.traces.mahimahi import write_mahimahi
from repro.util.tables import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Online Safety Assurance for Learning-"
            "Augmented Systems' (HotNets '20)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list datasets with statistics")

    traces = subparsers.add_parser("traces", help="export a dataset's traces")
    traces.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    traces.add_argument("--out", required=True, help="output directory")
    traces.add_argument(
        "--format", default="csv", choices=["csv", "mahimahi"],
        help="bandwidth CSV or Mahimahi packet-delivery format",
    )
    traces.add_argument("--count", type=int, default=5)
    traces.add_argument("--duration", type=float, default=600.0)
    traces.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve-demo",
        help="serve N concurrent monitored sessions through one engine",
    )
    serve.add_argument(
        "--config", default="smoke", choices=["smoke", "fast", "paper"]
    )
    serve.add_argument(
        "--sessions", type=int, default=16, help="number of concurrent sessions"
    )
    serve.add_argument(
        "--domain",
        default="abr",
        metavar="KEY",
        help=(
            "registered domain to serve (see repro.domains); an unknown "
            "key fails with the registered domains listed"
        ),
    )
    serve.add_argument(
        "--scheme",
        default=None,
        choices=["ND", "A-ensemble", "V-ensemble", "demo"],
        help=(
            "which safety scheme serves the sessions: a trained ABR "
            "suite controller, or the domain's self-contained 'demo' "
            "scheme (default: A-ensemble for abr, demo otherwise)"
        ),
    )
    serve.add_argument(
        "--dataset",
        default=None,
        choices=DATASET_NAMES,
        help="training/test distribution (default: the config's first)",
    )
    serve.add_argument(
        "--continuous",
        action="store_true",
        help=(
            "serve through a bounded slot table (default: half the "
            "sessions) so finished sessions hand their slot to queued "
            "ones mid-wave; trajectories are identical either way"
        ),
    )
    serve.add_argument(
        "--max-slots",
        type=int,
        default=None,
        metavar="N",
        help=(
            "cap concurrently live sessions at N slots (implies "
            "--continuous admission through the slot free-list)"
        ),
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "collect serving metrics (serve.batch_size, "
            "serve.steps_per_second, serve.wave_occupancy, ...) and "
            "export them as JSON Lines to PATH"
        ),
    )

    api = subparsers.add_parser(
        "serve-api",
        help="boot the multi-tenant safety service on a TCP socket",
    )
    api.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    api.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks a free port, announced on stdout)",
    )
    api.add_argument(
        "--scheme",
        default="demo",
        choices=["demo"],
        help="safety scheme to serve (the self-contained demo scheme)",
    )
    api.add_argument(
        "--domain",
        default="abr",
        metavar="KEY",
        help=(
            "registered domain whose demo scheme the service hosts; an "
            "unknown key fails with the registered domains listed"
        ),
    )
    api.add_argument(
        "--store",
        default="memory",
        choices=["memory", "sqlite"],
        help="cold-store backend for evicted session snapshots",
    )
    api.add_argument(
        "--store-path",
        default=None,
        metavar="PATH",
        help="SQLite database path (required with --store sqlite)",
    )
    api.add_argument(
        "--hot-ttl",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="idle bound before a hot session is snapshotted to cold",
    )
    api.add_argument(
        "--evict-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="period of the background TTL eviction task (0 disables)",
    )
    api.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="hot-slot budget; attaches beyond it get 'overloaded'",
    )
    api.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="concurrent stateful requests before load shedding",
    )
    api.add_argument(
        "--alpha",
        type=float,
        default=None,
        metavar="THRESH",
        help=(
            "demo scheme's trigger threshold (default: the domain's "
            "calibrated value)"
        ),
    )
    api.add_argument(
        "--seed", type=int, default=0, help="demo scheme's artifact seed"
    )
    api.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "collect per-tenant service metrics (service.steps, "
            "service.evictions, service.resumes, ...) and export them "
            "as JSON Lines to PATH when the service stops"
        ),
    )

    for name, help_text in (
        ("figures", "regenerate the paper's figures"),
        ("runtimes", "measure the running-time remark"),
        ("shapes", "run the qualitative shape checks"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--config", default="fast", choices=["smoke", "fast", "paper"]
        )
        sub.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help=(
                "collect runtime metrics/traces and export them as JSON "
                f"Lines to PATH (also enabled by the {obs.METRICS_ENV} "
                "environment variable); result payloads are unaffected"
            ),
        )
        if name in ("figures", "shapes"):
            sub.add_argument(
                "--workers",
                type=int,
                default=None,
                help=(
                    "process-pool size for building the training "
                    "distributions (default: serial); results are "
                    "identical at any setting"
                ),
            )
            sub.add_argument(
                "--cache-root",
                default=None,
                metavar="DIR",
                help=(
                    "artifact cache directory (default: artifacts/ next to "
                    "the repository root)"
                ),
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help=(
                    "checkpoint training at epoch boundaries and resume "
                    "any interrupted suite build from its last checkpoint "
                    f"(cadence: the {checkpoint.CHECKPOINT_EVERY_ENV} "
                    "environment variable, else every epoch); resumed "
                    "results are bitwise identical to uninterrupted runs"
                ),
            )
    return parser


def _cmd_datasets(out) -> int:
    rows = []
    for name in DATASET_NAMES:
        dataset = make_dataset(name, num_traces=3, duration_s=300.0, seed=0)
        mean = sum(t.mean_bandwidth for t in dataset.traces) / len(dataset)
        rows.append(
            [
                name,
                "synthetic" if dataset.is_synthetic else "cellular (simulated)",
                round(mean, 2),
            ]
        )
    print(
        render_table(["dataset", "kind", "mean bandwidth (Mbit/s)"], rows),
        file=out,
    )
    return 0


def _cmd_traces(args, out) -> int:
    dataset = make_dataset(
        args.dataset, num_traces=args.count, duration_s=args.duration, seed=args.seed
    )
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for trace in dataset.traces:
        if args.format == "mahimahi":
            path = directory / f"{trace.name}.mahi"
            write_mahimahi(trace, path)
        else:
            path = directory / f"{trace.name}.csv"
            lines = ["time_s,bandwidth_mbps"] + [
                f"{t:.3f},{b:.6f}"
                for t, b in zip(trace.times, trace.bandwidths_mbps)
            ]
            path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}", file=out)
    return 0


def _experiment_config(args) -> ExperimentConfig:
    """The configuration tier with ``--resume`` applied: it switches on
    epoch checkpointing, whose cadence rides on the config object shipped
    to every worker.
    """
    config = get_config(args.config)
    if getattr(args, "resume", False):
        every = checkpoint.resolve_checkpoint_every(None) or 1
        config = config.scaled(checkpoint_every=every)
    return config


def _cmd_figures(args, out) -> int:
    config = _experiment_config(args)
    cache = ArtifactCache(config.describe(), root=args.cache_root)
    matrix = run_all_distributions(
        config, cache, max_workers=args.workers, weight_root=cache.root
    )
    print(render_report(config, matrix), file=out)
    return 0


def _cmd_runtimes(args, out) -> int:
    config = get_config(args.config)
    runtimes = measure_runtimes(config)
    offline = runtimes["offline_seconds"]
    online = runtimes["online_ms_per_decision"]
    rows = [
        ["OC-SVM fit (s)", round(offline["ocsvm_fit"], 3)],
        ["one RL agent (s)", round(offline["agent_each"], 1)],
        ["one value function (s)", round(offline["value_each"], 1)],
        ["U_S decision (ms)", round(online["U_S"], 3)],
        ["U_pi decision (ms)", round(online["U_pi"], 3)],
        ["U_V decision (ms)", round(online["U_V"], 3)],
    ]
    print(render_table(["quantity", "measured"], rows), file=out)
    return 0


def _cmd_shapes(args, out) -> int:
    from repro.experiments.report import PRIMARY_CLAIMS

    config = _experiment_config(args)
    cache = ArtifactCache(config.describe(), root=args.cache_root)
    matrix = run_all_distributions(
        config, cache, max_workers=args.workers, weight_root=cache.root
    )
    checks = shape_checks(config, matrix)
    rows = [
        [
            name,
            "primary" if name in PRIMARY_CLAIMS else "secondary",
            "PASS" if ok else "FAIL",
        ]
        for name, ok in checks.items()
    ]
    print(render_table(["claim", "tier", "status"], rows), file=out)
    # The exit code tracks the paper's primary claims only; the secondary
    # scheme-ordering claims are reported but training-scale-sensitive.
    primary_ok = all(ok for name, ok in checks.items() if name in PRIMARY_CLAIMS)
    return 0 if primary_ok else 1


def _cmd_serve_demo(args, out) -> int:
    from repro.domains import get_domain
    from repro.serve import ServeEngine, SessionSpec

    if args.sessions < 1:
        raise ReproError(f"--sessions must be >= 1, got {args.sessions}")
    max_slots = args.max_slots
    if max_slots is None and args.continuous:
        # Default slot cap that actually exercises continuous admission:
        # half the sessions queue behind the slot free-list.
        max_slots = max(1, args.sessions // 2)
    if max_slots is not None and max_slots < 1:
        raise ReproError(f"--max-slots must be >= 1, got {max_slots}")
    domain = get_domain(args.domain)
    scheme_name = args.scheme or ("A-ensemble" if args.domain == "abr" else "demo")
    config = get_config(args.config)
    dataset_name = args.dataset or config.datasets[0]
    split = domain.load_split(
        dataset_name,
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    )
    # Each session replays one of the held-out test traces (cycling when
    # there are more sessions than traces) under its own eval seed.
    specs = [
        SessionSpec(
            trace=split.test[index % len(split.test)],
            seed=config.eval_seed + index,
            name=f"session-{index:03d}",
        )
        for index in range(args.sessions)
    ]
    if scheme_name == "demo":
        print(
            f"building the {args.domain} demo scheme on {dataset_name} "
            f"({config.name} config) ...",
            file=out,
        )
        scheme = domain.demo_scheme()
    else:
        if args.domain != "abr":
            raise ReproError(
                f"scheme {scheme_name!r} needs the trained ABR suite; "
                f"use --scheme demo with --domain {args.domain}"
            )
        from repro.abr.suite import build_safety_suite
        from repro.policies.buffer_based import BufferBasedPolicy
        from repro.traces.dataset import SYNTHETIC_DATASETS
        from repro.video.envivio import envivio_dash3_manifest

        manifest = envivio_dash3_manifest(repeats=config.video_repeats)
        is_synthetic = dataset_name in SYNTHETIC_DATASETS
        print(
            f"building {scheme_name} suite on {dataset_name} "
            f"({config.name} config) ...",
            file=out,
        )
        suite = build_safety_suite(
            manifest,
            split,
            BufferBasedPolicy(manifest.bitrates_kbps),
            is_synthetic=is_synthetic,
            training_config=config.training,
            safety_config=config.safety,
            value_epochs=config.value_epochs,
            seed=config.suite_seed,
        )
        scheme = suite.controllers()[scheme_name]
    engine = ServeEngine.from_scheme(scheme, max_slots=max_slots)
    print(
        f"serving {args.sessions} concurrent sessions "
        f"({len(split.test)} test traces"
        + (f", continuous over {max_slots} slots" if max_slots else "")
        + ") ...",
        file=out,
    )
    results = engine.run(specs)
    rows = [
        [
            spec.name,
            result.trace_name,
            round(result.qoe, 3),
            round(result.default_fraction, 3),
        ]
        for spec, result in zip(specs, results)
    ]
    print(
        render_table(
            ["session", "trace", "mean QoE", "default fraction"], rows
        ),
        file=out,
    )
    qoes = [result.qoe for result in results]
    fractions = [result.default_fraction for result in results]
    print(
        f"\n{scheme_name} over {len(results)} sessions: "
        f"mean QoE {sum(qoes) / len(qoes):.3f}, "
        f"mean default fraction {sum(fractions) / len(fractions):.3f}",
        file=out,
    )
    return 0


def _cmd_serve_api(args, out) -> int:
    import asyncio

    from repro.service import SafetyService, ServiceConfig, build_demo_scheme

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store,
        store_path=args.store_path,
        hot_ttl_s=args.hot_ttl,
        evict_interval_s=args.evict_interval,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
    )
    runtime = build_demo_scheme(
        alpha=args.alpha, seed=args.seed, domain=args.domain
    )
    service = SafetyService([runtime], config)

    def announce(ready: SafetyService) -> None:
        # One parseable line: harnesses (tools/service_smoke.py) read the
        # bound address off it, so keep the prefix stable and flush.
        print(
            f"service listening on {ready.bound_host}:{ready.bound_port} "
            f"(scheme {runtime.name!r}, store {config.store}, "
            f"ttl {config.hot_ttl_s:g}s, budget {config.max_sessions})",
            file=out,
            flush=True,
        )

    service.on_ready = announce
    try:
        asyncio.run(service.run())
    except KeyboardInterrupt:
        pass
    print(
        f"service stopped: {service.store.evictions} evictions, "
        f"{service.store.resumes} resumes, {service.shed_count} shed, "
        f"{service.overload_count} overloaded",
        file=out,
    )
    return 0


def _dispatch(args, out) -> int:
    if args.command == "figures":
        return _cmd_figures(args, out)
    if args.command == "runtimes":
        return _cmd_runtimes(args, out)
    if args.command == "shapes":
        return _cmd_shapes(args, out)
    if args.command == "serve-demo":
        return _cmd_serve_demo(args, out)
    if args.command == "serve-api":
        return _cmd_serve_api(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def _dispatch_with_metrics(args, out) -> int:
    """Run an experiment command under metric collection when requested.

    ``--metrics-out`` wins over the :data:`repro.obs.METRICS_ENV`
    environment switch; either way the records are exported as JSONL and
    a rendered run report follows the command's own output.
    """
    with obs.collecting(args.metrics_out) as run:
        code = _dispatch(args, out)
        print(f"\nrun report\n\n{obs.render_run_report(run)}", file=out)
    print(f"wrote metrics to {args.metrics_out}", file=out)
    return code


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets(out)
        if args.command == "traces":
            return _cmd_traces(args, out)
        if getattr(args, "metrics_out", None) is None and obs.enabled():
            # Collection switched on by the environment variable: reuse
            # the already-active collector and export where it points.
            code = _dispatch(args, out)
            path = obs.export_jsonl(obs.default_export_path())
            print(f"wrote metrics to {path}", file=out)
            return code
        if getattr(args, "metrics_out", None) is not None:
            return _dispatch_with_metrics(args, out)
        return _dispatch(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
