#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload abr-suite --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``abr-suite``     -- one trained ABR suite serving ND, A-ensemble and
  V-ensemble through the continuous serve kernel, in process;
* ``cc-shift``      -- the congestion-control demo scheme through the same
  kernel, with many more sessions than slots;
* ``service-churn`` -- ``repro serve-api`` with the SQLite store as a
  child process, driven over one connection with sessions coming and
  going and periodic evictions to cold storage.

``--trace 0`` prints the end-to-end metrics: set-up time is the median
of :data:`SETUP_SAMPLES` fresh processes, each timed from its start
until it could serve its first decision; the rest comes from the last
of them, which goes on to serve for ``--seconds``.  ``--trace 1``
prints the per-layer split instead, from a run whose timed loop
alternates untraced and traced operations.

Every served session and every service response is checked against the
serial reference; a mismatch or error counts as a failed operation and
makes the run exit 1.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("abr-suite", "cc-shift", "service-churn")
#: Fresh processes whose set-up is timed in a ``--trace 0`` run.
SETUP_SAMPLES = 3
#: Every process this run starts must finish within this budget.
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    """The environment for every child: one thread, one worker, no
    behaviour switches inherited from the caller."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_MAX_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result line."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.small:
        command.append("--small")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    lines: list[tuple[float, str]] = []
    start = time.perf_counter()
    # A session of its own, so that a worker past the deadline is killed
    # together with the service it started.
    process = subprocess.Popen(
        command + extra,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    reader = threading.Thread(
        target=lambda: lines.extend(
            (time.perf_counter(), raw.decode().rstrip("\n")) for raw in process.stdout
        )
    )
    reader.start()
    try:
        code = process.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        reader.join()
        process.stdout.close()
    ready = [stamp for stamp, line in lines if line == "READY"]
    if code != 0 or not ready:
        raise SystemExit(f"worker exited with {code}")
    result = None if "--probe" in extra else json.loads(lines[-1][1])
    return ready[0] - start, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument(
        "--small", action="store_true", help="a few sessions only (tests)"
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="flip one reference decision; the run must then fail (tests)",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("no program to benchmark: src/repro is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_worker(args, ["--probe"], deadline)[0])
    worker_setup, result = run_worker(args, [], deadline)
    setup.append(worker_setup)
    measured = dict(result["metrics"], setup_s=statistics.median(setup))

    info = dict(
        result["info"],
        setup_samples_s=setup,
        nproc=os.cpu_count(),
        machine=platform.machine(),
        platform=platform.platform(),
        python=platform.python_version(),
        workers=1,
    )
    print("info " + json.dumps(info, sort_keys=True))
    missing = [metric["name"] for metric in wanted if metric["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
