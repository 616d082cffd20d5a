#!/usr/bin/env python3
"""CI smoke harness for the multi-tenant safety service.

Boots the real thing — ``python -m repro serve-api`` as a subprocess on
a fresh port with a SQLite store, an aggressive TTL, and the background
eviction loop on — then plays a fleet of clients against it over the
actual socket API and asserts the acceptance criteria end to end:

1. **Admission control** — with ``--max-sessions`` set to the fleet
   size, the one-past-the-budget attach receives a structured
   ``overloaded`` rejection (and the service stays healthy).
2. **Trajectory equality** — N sessions across multiple tenants, driven
   round-robin (every session's state machine advances interleaved with
   the others), must be chunk-for-chunk identical to the serial session
   loop, run through :func:`repro.abr.session.run_monitored_session`
   (one call into :func:`repro.core.runner.run_monitored_session`).
3. **TTL eviction + resume** — mid-session the harness goes idle past
   the TTL until the background loop has snapshotted every hot session
   to cold storage, forces ``reopen`` (a fresh store handle over the
   same SQLite file — what a different worker would hold), and resumes;
   the first step after the gap must report ``resumed`` and the
   trajectories must still match the reference.
4. **Clean teardown** — detach stats add up, ``shutdown`` stops the
   process with exit code 0, and the ``--metrics-out`` JSONL contains
   the per-tenant service counters.

Artifacts (service log, metrics JSONL) land in ``--workdir`` so CI can
upload them when the smoke fails.

Usage::

    PYTHONPATH=src python tools/service_smoke.py --workdir /tmp/svc
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.abr.env import ABREnv
from repro.abr.session import run_monitored_session
from repro.service import ServiceClient, build_demo_scheme
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest

ROOT = Path(__file__).resolve().parent.parent

SESSIONS = 6
TENANTS = 3
HOT_TTL_S = 0.5
EVICT_INTERVAL_S = 0.1
#: How many decisions each session takes before the idle gap.
STEPS_BEFORE_IDLE = 10


def wait_for_address(
    process: subprocess.Popen, log_path: Path, timeout_s: float = 60.0
) -> tuple[str, int]:
    """Parse the bound address off the service's announce line."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(
                f"service exited early with code {process.returncode}; "
                f"see {log_path}"
            )
        match = re.search(
            r"service listening on ([\d.]+):(\d+)",
            log_path.read_text() if log_path.exists() else "",
        )
        if match:
            return match.group(1), int(match.group(2))
        time.sleep(0.05)
    raise SystemExit(f"service never announced its address; see {log_path}")


class SessionDriver:
    """Client-side half of one monitored session (owns the ABR env)."""

    def __init__(self, client, manifest, trace, tenant, session, seed):
        self.client = client
        self.tenant = tenant
        self.session = session
        self.seed = seed
        self.trace = trace
        self._limit = manifest.num_chunks - 1
        payload = client.attach(tenant, session, "demo", seed=seed)
        assert payload["ok"], f"attach failed: {payload}"
        self._env = ABREnv(manifest=manifest, trace=trace)
        self._observation = self._env.reset()
        self.chunks: list[tuple] = []
        self.resumed_steps = 0
        self.done = False

    def step(self) -> None:
        payload = self.client.step(
            self.tenant,
            self.session,
            np.asarray(self._observation, dtype=float).tolist(),
        )
        assert payload["ok"], f"step failed: {payload}"
        if payload["resumed"]:
            self.resumed_steps += 1
        step = self._env.step(payload["action"])
        info = step.info
        self.chunks.append(
            (
                info["chunk_index"],
                info["bitrate_index"],
                info["bitrate_mbps"],
                info["rebuffer_s"],
                info["download_time_s"],
                info["throughput_mbps"],
                info["buffer_s"],
                step.reward,
                payload["defaulted"],
            )
        )
        self._observation = step.observation
        self.done = step.done or len(self.chunks) >= self._limit


def reference_chunks(runtime, manifest, trace, seed) -> list[tuple]:
    """The uninterrupted single-process trajectory for one spec."""
    result = run_monitored_session(
        runtime.learned,
        runtime.default,
        runtime.new_monitor(),
        manifest,
        trace,
        seed=seed,
    )
    return [
        (
            chunk.chunk_index,
            chunk.bitrate_index,
            chunk.bitrate_mbps,
            chunk.rebuffer_s,
            chunk.download_time_s,
            chunk.throughput_mbps,
            chunk.buffer_s,
            chunk.reward,
            chunk.defaulted,
        )
        for chunk in result.chunks
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=Path("service-smoke"),
        help="artifact directory (service log, store, metrics JSONL)",
    )
    args = parser.parse_args(argv)
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    log_path = workdir / "service.log"
    metrics_path = workdir / "service_metrics.jsonl"
    store_path = workdir / "sessions.sqlite"

    command = [
        sys.executable,
        "-m",
        "repro",
        "serve-api",
        "--port",
        "0",
        "--store",
        "sqlite",
        "--store-path",
        str(store_path),
        "--hot-ttl",
        str(HOT_TTL_S),
        "--evict-interval",
        str(EVICT_INTERVAL_S),
        "--max-sessions",
        str(SESSIONS),
        "--metrics-out",
        str(metrics_path),
    ]
    print(f"booting: {' '.join(command)}")
    with log_path.open("wb") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT
        )
    try:
        host, port = wait_for_address(process, log_path)
        print(f"service up on {host}:{port}")
        manifest = envivio_dash3_manifest(repeats=1)
        traces = make_dataset(
            "gamma_1_2", num_traces=SESSIONS, duration_s=120.0, seed=0
        ).traces

        with ServiceClient(host, port) as client:
            drivers = [
                SessionDriver(
                    client,
                    manifest,
                    traces[index],
                    tenant=f"tenant-{index % TENANTS}",
                    session=f"session-{index}",
                    seed=index,
                )
                for index in range(SESSIONS)
            ]
            print(f"attached {SESSIONS} sessions across {TENANTS} tenants")

            # 1. Admission control: one past the budget is rejected with a
            # structured code while every live session keeps its slot.
            rejected = client.attach("tenant-x", "overflow", "demo")
            assert not rejected["ok"] and rejected["code"] == "overloaded", (
                f"expected structured overload rejection, got {rejected}"
            )
            print(f"over-budget attach rejected: {rejected['message']!r}")

            # 2. Interleaved service: every session advances round-robin.
            for _ in range(STEPS_BEFORE_IDLE):
                for driver in drivers:
                    driver.step()

            # 3. Idle past the TTL until the background loop has evicted
            # everything, then rebuild the store handle.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["hot"] == 0 and stats["cold"] == SESSIONS:
                    break
                time.sleep(0.1)
            else:
                raise SystemExit(
                    f"TTL eviction never drained the hot tier: {stats}"
                )
            print(
                f"TTL eviction drained all {SESSIONS} sessions to cold "
                f"({stats['evictions']} evictions)"
            )
            reopened = client.reopen()
            assert reopened["cold"] == SESSIONS, reopened

            # 4. Resume and run to completion (round-robin, so no session
            # idles past the TTL again while the others finish); the
            # first post-gap step of every session must have come off
            # the cold tier.
            while any(not driver.done for driver in drivers):
                for driver in drivers:
                    if not driver.done:
                        driver.step()
            for driver in drivers:
                assert driver.resumed_steps >= 1, (
                    f"{driver.session} never resumed from cold storage"
                )

            final = client.stats()
            assert final["resumes"] >= SESSIONS, final
            for driver in drivers:
                stats = client.detach(driver.tenant, driver.session)
                assert stats["ok"], stats
                assert stats["steps"] == len(driver.chunks), stats
                assert stats["resumes"] >= 1, stats
            print(f"all sessions resumed and detached cleanly: {final}")

            client.shutdown()
    except BaseException:
        process.terminate()
        raise
    code = process.wait(timeout=60)
    assert code == 0, f"service exited with {code}; see {log_path}"

    # 5. Equality: every socket-served trajectory matches the reference.
    runtime = build_demo_scheme()
    for index, driver in enumerate(drivers):
        expected = reference_chunks(runtime, manifest, traces[index], index)
        assert driver.chunks == expected, (
            f"{driver.session} diverged from run_monitored_session "
            f"at chunk {next(i for i, (a, b) in enumerate(zip(driver.chunks, expected)) if a != b)}"
        )
    print(
        f"{SESSIONS} trajectories chunk-for-chunk identical to "
        "run_monitored_session (including the TTL-evicted resume)"
    )

    # 6. The metrics export carries the per-tenant service counters.
    names = set()
    with metrics_path.open() as handle:
        for line in handle:
            record = json.loads(line)
            names.add(record.get("name"))
    for required in ("service.steps", "service.evictions", "service.resumes"):
        assert required in names, f"{required} missing from {metrics_path}"
    print(f"metrics export ok: {sorted(n for n in names if n)} in {metrics_path}")

    print("service smoke PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
