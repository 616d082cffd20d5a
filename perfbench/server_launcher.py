"""Boot ``repro serve-api`` for the benchmark, optionally with timers.

Usage::

    python3 perfbench/server_launcher.py --report PATH [--trace] -- serve-api ...

Runs the real CLI in this process.  With ``--trace`` it first installs
per-layer timers around the service's request path: the wire codec, the
dispatcher, the session store and its SQLite backend, the monitor, the
signal and both policies.  When the service stops (the client sends
``shutdown``) it writes its peak RSS and the timer totals to ``PATH``.
The benchmark starts the untraced and the traced service through this
same launcher, so both pay the same start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import cli, service  # noqa: E402
from repro.core.monitor import SafetyMonitor  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.schemes import SchemeRuntime  # noqa: E402
from repro.service.server import SafetyService  # noqa: E402
from repro.service.store import SessionStore, SQLiteBackend  # noqa: E402

from tracer import TracedPolicy, TracedSignal, Tracer  # noqa: E402


def timed_scheme_builder(tracer: Tracer, build):
    """``build_demo_scheme`` returning a runtime with timed components."""

    def build_timed(*args, **kwargs) -> SchemeRuntime:
        runtime = build(*args, **kwargs)
        prototype = runtime.prototype
        return SchemeRuntime(
            name=runtime.name,
            learned=TracedPolicy(runtime.learned, tracer, "policy.learned"),
            default=TracedPolicy(runtime.default, tracer, "policy.default"),
            prototype=SafetyMonitor(
                TracedSignal(prototype.signal, tracer),
                prototype.trigger,
                allow_revert=prototype.allow_revert,
                name=prototype.name,
            ),
        )

    return build_timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer() if args.trace else None
    timers = contextlib.ExitStack()
    if tracer is not None:
        timers.enter_context(
            tracer.patch(
                [
                    (protocol, "decode_message", "protocol.decode"),
                    (protocol, "encode_message", "protocol.encode"),
                    (SafetyService, "dispatch", "service.dispatch"),
                    (SessionStore, "checkout", "store.checkout"),
                    (SessionStore, "_resume", "store.resume"),
                    (SessionStore, "evict_idle", "store.evict"),
                    (SQLiteBackend, "put", "store.backend_put"),
                    (SQLiteBackend, "get", "store.backend_get"),
                    (SafetyMonitor, "observe", "monitor.observe"),
                ]
            )
        )
        original = service.build_demo_scheme
        service.build_demo_scheme = timed_scheme_builder(tracer, original)
        timers.callback(setattr, service, "build_demo_scheme", original)
    with timers:
        code = cli.main(command)
    report = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracer": tracer.snapshot() if tracer is not None else None,
    }
    args.report.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
