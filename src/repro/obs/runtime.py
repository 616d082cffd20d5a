"""The global observability switch and the facade the library calls.

Collection is **off by default** and the disabled path is a handful of
``is None`` checks — no instruments are created, no clocks are read, no
allocations happen — so instrumented hot loops run at full speed when
nobody is watching (the benchmark gates run with it off).

Enable it one of three ways:

* ``REPRO_METRICS`` environment variable — any non-empty value turns
  collection on at import; a path-like value (anything other than
  ``1``/``true``/``yes``/``on``) additionally becomes the default export
  destination,
* the CLI's ``--metrics-out PATH`` flag,
* programmatically: :func:`enable` / :func:`disable`, or the
  :func:`collecting` context manager (what the tests use).

Determinism contract: records carry monotonic durations and structural
metadata only.  The single wall-clock timestamp lives in the exported
file's ``meta`` line, never in any result payload — so enabling metrics
cannot change, and timestamps cannot leak into, experiment results.

Process-pool caveat: worker processes inherit the enabled flag via
``fork`` but collect into their own memory; their registries are not
merged back.  The parent sees the pool only from outside, as the
``executor.parallel_map`` span (task count, pool width, wall time);
run serially to collect every layer's metrics in one registry.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "METRICS_ENV",
    "RunCollector",
    "enabled",
    "collector",
    "enable",
    "disable",
    "collecting",
    "default_export_path",
    "inc",
    "set_gauge",
    "observe",
    "event",
    "span",
    "timer",
    "export_jsonl",
]

#: Environment variable that switches metric collection on.
METRICS_ENV = "REPRO_METRICS"

#: Values of :data:`METRICS_ENV` that mean "on" without naming a path.
_TRUTHY = frozenset({"1", "true", "yes", "on"})


class RunCollector:
    """One run's metrics registry and tracer, plus its export logic."""

    def __init__(self, export_path: Path | str | None = None) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.export_path = Path(export_path) if export_path is not None else None

    def records(self) -> list[dict]:
        """Every record of this run: one ``meta`` line (the only place a
        wall-clock timestamp appears), then instruments, events, spans."""
        import platform

        meta = {
            "kind": "meta",
            "schema_version": 1,
            "created_unix_s": time.time(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "pid": os.getpid(),
        }
        return [meta] + self.metrics.records() + self.tracer.records()

    def export_jsonl(self, path: Path | str | None = None) -> Path:
        """Write all records as JSON Lines via the atomic-write helper."""
        import json

        from repro.errors import ObservabilityError
        from repro.util.serialization import save_text, to_jsonable

        target = Path(path) if path is not None else self.export_path
        if target is None:
            raise ObservabilityError(
                "no export path: pass one explicitly, use --metrics-out, or "
                f"set {METRICS_ENV} to a file path"
            )
        lines = [json.dumps(to_jsonable(record)) for record in self.records()]
        save_text(target, "\n".join(lines) + "\n")
        return target


_ACTIVE: RunCollector | None = None

#: Shared do-nothing context manager returned by span()/timer() when off.
_NULL_CONTEXT = nullcontext()


def enabled() -> bool:
    """Whether metric/trace collection is currently on."""
    return _ACTIVE is not None


def collector() -> RunCollector | None:
    """The active collector, or ``None`` when collection is off."""
    return _ACTIVE


def enable(export_path: Path | str | None = None) -> RunCollector:
    """Start collecting into a fresh :class:`RunCollector` and return it."""
    global _ACTIVE
    _ACTIVE = RunCollector(export_path=export_path)
    return _ACTIVE


def disable() -> None:
    """Stop collecting; subsequent instrumentation calls become no-ops."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def collecting(
    export_path: Path | str | None = None,
) -> Iterator[RunCollector]:
    """Collect within a ``with`` block, restoring the previous state after.

    Yields the active collector so the block can inspect records; exports
    automatically on exit when *export_path* is given.
    """
    global _ACTIVE
    previous = _ACTIVE
    current = RunCollector(export_path=export_path)
    _ACTIVE = current
    try:
        yield current
        if export_path is not None:
            current.export_jsonl()
    finally:
        _ACTIVE = previous


def default_export_path() -> Path:
    """Where a CLI run exports when no ``--metrics-out`` is given: the
    path named by :data:`METRICS_ENV` if it is path-like, else
    ``metrics.jsonl`` in the working directory."""
    value = os.environ.get(METRICS_ENV, "").strip()
    if value and value.lower() not in _TRUTHY:
        return Path(value)
    return Path("metrics.jsonl")


# -- facade: what instrumented call sites use ---------------------------------

def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment a counter (no-op when collection is off)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge (no-op when collection is off)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Fold a value into a histogram (no-op when collection is off)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.observe(name, value, **labels)


def event(name: str, **data: Any) -> None:
    """Record a structured event (no-op when collection is off)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.event(name, **data)


def span(name: str, **attributes: Any):
    """A tracing span context manager (shared no-op when off)."""
    if _ACTIVE is not None:
        return _ACTIVE.tracer.span(name, **attributes)
    return _NULL_CONTEXT


@contextmanager
def _timed(name: str, labels: dict[str, Any]) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        observe(name, time.perf_counter() - start, **labels)


def timer(name: str, **labels: Any):
    """Time a ``with`` block into the histogram *name* (no-op when off)."""
    if _ACTIVE is not None:
        return _timed(name, labels)
    return _NULL_CONTEXT


def export_jsonl(path: Path | str | None = None) -> Path:
    """Export the active collector's records as JSONL.

    Raises :class:`~repro.errors.ObservabilityError` when collection is
    off or no destination is known.
    """
    from repro.errors import ObservabilityError

    if _ACTIVE is None:
        raise ObservabilityError(
            f"metric collection is off; enable it first (e.g. {METRICS_ENV}=1)"
        )
    return _ACTIVE.export_jsonl(path)


def _bootstrap_from_env() -> None:
    """Honor :data:`METRICS_ENV` at import: non-empty turns collection on,
    and a path-like value becomes the default export destination."""
    value = os.environ.get(METRICS_ENV, "").strip()
    if not value:
        return
    enable(export_path=None if value.lower() in _TRUTHY else value)


_bootstrap_from_env()
