"""Runtime observability: metrics, tracing, and run reports.

The package is dependency-free and **off by default**: every facade call
is a guarded no-op until collection is switched on via the
``REPRO_METRICS`` environment variable, the CLI's ``--metrics-out``, or
:func:`collecting` / :func:`enable`.  Instrumented call sites therefore
cost a single ``is None`` check when nobody is watching, and exported
records never alter or timestamp experiment payloads.

Typical library usage::

    from repro import obs

    obs.inc("session.runs")
    with obs.span("experiment.matrix", policies=len(policies)):
        ...
    with obs.timer("trainer.epoch_seconds", engine="lockstep"):
        ...

Typical inspection usage::

    with obs.collecting("metrics.jsonl") as run:
        run_experiment()
    # metrics.jsonl now holds one JSON record per line

See ``docs/OBSERVABILITY.md`` for the metric name catalogue and record
schemas.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import build_run_report, render_run_report, write_run_report
from repro.obs.runtime import (
    METRICS_ENV,
    RunCollector,
    collecting,
    collector,
    default_export_path,
    disable,
    enable,
    enabled,
    event,
    export_jsonl,
    inc,
    observe,
    set_gauge,
    span,
    timer,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "METRICS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunCollector",
    "Span",
    "Tracer",
    "build_run_report",
    "collecting",
    "collector",
    "default_export_path",
    "disable",
    "enable",
    "enabled",
    "event",
    "export_jsonl",
    "inc",
    "observe",
    "render_run_report",
    "set_gauge",
    "span",
    "timer",
    "write_run_report",
]
