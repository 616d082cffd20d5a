"""One benchmark process: set up one workload, serve it, check it.

``run.py`` starts this in a fresh process per set-up sample and per
measured run.  It prints ``READY`` the moment the first decision could
be served (the end of set-up), then -- unless ``--probe`` -- computes
the reference outputs, runs the timed loop, and prints one JSON line::

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {...}, "info": {...}}
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def make_workload(args):
    """Import and construct the named workload (imports are set-up)."""
    if args.workload == "service-churn":
        from churn import ServiceChurn

        return ServiceChurn(args.seed, args.small, args.corrupt_reference)
    from inprocess import AbrSuite, CcShift

    kind = {"abr-suite": AbrSuite, "cc-shift": CcShift}[args.workload]
    return kind(args.seed, args.small, args.corrupt_reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["abr-suite", "cc-shift", "service-churn"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    # One CPU for this process and the service it starts: the client and
    # the server then hand each request over without waking another CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(args)
    from common import peak_rss_mb, setup_split
    from tracer import Tracer

    imported = time.perf_counter()
    tracer = Tracer() if args.trace else None
    try:
        workload.setup(tracer)
        ready = time.perf_counter()
        print("READY", flush=True)
        if args.probe:
            return 0
        workload.reference()
        outcome = workload.serve(args.seconds, tracer)
    finally:
        workload.close()
    info = dict(
        outcome["info"], worker_setup_s=ready - START, cpus=len(os.sched_getaffinity(0))
    )
    if tracer is None:
        metrics = dict(outcome["metrics"])
        metrics["peak_rss_mb"] = peak_rss_mb() + info.get("server_rss_mb", 0.0)
    else:
        metrics = dict(outcome["layers"])
        metrics.update(setup_split(tracer.snapshot(), imported - START, ready - START))
    failed = outcome["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome["attempted"],
                "failed": failed,
                "metrics": metrics,
                "info": info,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
