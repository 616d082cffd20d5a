"""The ``service-churn`` workload: ``repro serve-api`` under session churn.

The service runs as a child process (through ``server_launcher.py``)
with the ABR demo scheme and the SQLite store.  One client connection
drives a closed loop over recorded ABR session streams, in distribution
and shifted.  :data:`LIVE` slots each play one stream after another:
attach a fresh session, send the first :data:`PLAY` steps of its
stream, detach.  The slots start staggered, so sessions come and
go all the time.  Each round sends one ``step`` per slot; every
:data:`EVICT_EVERY` rounds an ``evict`` request moves every live session
to cold storage, so about that share of steps resumes from SQLite.

The schedule is periodic: a given step of a given stream always meets
the same eviction phase, so each (stream, step) is one distinct request
whose best time over its repeats is kept (see ``common.py``).  Every
response must equal the decision recorded for that step by
:func:`repro.domains.runner.run_monitored_session`.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from repro.domains import get_domain, run_monitored_session
from repro.service.client import ServiceClient
from repro.traces.dataset import make_dataset
from repro.util.rng import rng_from_seed

from common import (
    CORPUS_SEED,
    EVALUATION_SEED,
    EVALUATION_SESSIONS,
    QUALITY_METRICS,
    BestTimes,
    Session,
    abr_step_times,
    arrivals,
    handoff_quality,
    layer_split,
    traffic,
)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
#: Scratch space for the store file and the server's exit report.
WORK = HERE / ".work"
#: Streams played by one slot before the schedule repeats, the slots
#: (sessions live at once) and the tenants they are spread over.
STREAMS_PER_SLOT = 3
LIVE = 8
TENANTS = 3
#: Rounds between evictions: about one step in this many resumes.
EVICT_EVERY = 8
#: Steps each session plays before it leaves, in eviction periods, so
#: that every step of a stream meets the same eviction phase on every
#: repeat.  The first 24 steps are mostly served by the learned policy,
#: which puts the median step in the middle of the learned steps' times
#: rather than on the edge between them and the cheaper default steps.
PLAY = 3 * EVICT_EVERY
#: Response fields compared with the recorded decision.
FIELDS = ("action", "step", "defaulted", "fired", "handoff", "signal_value")
ANNOUNCE = re.compile(rb"service listening on ([\d.]+):(\d+)")
BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``serve-api`` child process and its exit report."""

    def __init__(self, traced: bool, tag: str) -> None:
        WORK.mkdir(exist_ok=True)
        self.store = WORK / f"sessions-{tag}.sqlite"
        self.report = WORK / f"server-{tag}.json"
        for path in (self.store, self.report):
            path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "server_launcher.py")]
        command += ["--report", str(self.report)]
        command += ["--trace"] if traced else []
        command += [
            "--", "serve-api", "--port", "0",
            "--store", "sqlite", "--store-path", str(self.store),
            "--evict-interval", "0",
            "--max-sessions", str(2 * LIVE), "--max-inflight", str(2 * LIVE),
        ]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = ANNOUNCE.search(line)
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
                return
        self.stop()
        raise RuntimeError("serve-api never announced its address")

    def wait(self) -> dict:
        """Wait for a clean exit and return the server's report."""
        self.process.stdout.read()
        code = self.process.wait(timeout=60)
        if code != 0:
            raise RuntimeError(f"serve-api exited with {code}")
        report = json.loads(self.report.read_text())
        self.cleanup()
        return report

    def stop(self) -> None:
        """Kill the child if it is still running, and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self.cleanup()

    def cleanup(self) -> None:
        for path in (self.store, self.report):
            path.unlink(missing_ok=True)


class Stream:
    """One recorded session: observations and the expected responses."""

    def __init__(self, observations: list, expected: list[tuple]) -> None:
        self.observations = observations
        self.expected = expected


class ServiceChurn:
    """Closed-loop churn against a ``serve-api`` child process."""

    def __init__(self, seed: int, small: bool, corrupt: bool) -> None:
        self.seed = seed
        self.small = small
        self.corrupt = corrupt
        self.server: Server | None = None
        self.client: ServiceClient | None = None

    # -- set-up -----------------------------------------------------------

    def make_traffic(self, seed: int, count: int) -> list[Session]:
        traces = make_dataset(
            "gamma_1_2",
            num_traces=count,
            duration_s=200.0,
            seed=seed,
        ).traces
        return traffic(traces)

    def setup(self, tracer: Tracer | None) -> None:
        """Generate traffic and boot the service until it answers."""
        make_traffic, boot = self.make_traffic, Server
        if tracer is not None:
            make_traffic = tracer.wrap("setup.traces", make_traffic)
            boot = tracer.wrap("setup.server_boot", Server)
        corpus = make_traffic(
            CORPUS_SEED, LIVE * (1 if self.small else STREAMS_PER_SLOT)
        )
        self.sessions = arrivals(corpus, self.seed)
        self.server = boot(traced=False, tag=f"{os.getpid()}-plain")
        self.client = ServiceClient(*self.server.address)
        if not self.client.request("ping").get("ok"):
            raise RuntimeError("serve-api does not answer")

    # -- reference --------------------------------------------------------

    def reference(self) -> None:
        """Record every stream's observations and expected decisions, and
        score hand-off quality on the fixed evaluation traffic."""
        scheme = get_domain("abr").demo_scheme()
        self.streams = [self._record(scheme, session.spec) for session in self.sessions]
        outcomes = []
        evaluation = self.make_traffic(
            EVALUATION_SEED, 8 if self.small else EVALUATION_SESSIONS
        )
        for session in evaluation:
            result = run_monitored_session(
                scheme.factory, session.spec, scheme.learned, scheme.default,
                scheme.monitor().fork(),
            )
            outcomes.append(
                (
                    [record.defaulted for record in result.chunks],
                    abr_step_times(result.chunks),
                    session.onset_s,
                )
            )
        self.quality = handoff_quality(outcomes)
        if self.corrupt:
            first = list(self.streams[0].expected[0])
            first[0] = first[0] + 1
            self.streams[0].expected[0] = tuple(first)

    @staticmethod
    def _record(scheme, spec) -> Stream:
        """One session's trajectory and the response to each of its steps.

        The responses replay the trajectory's observations through a
        fresh monitor, exactly as the service's ``step`` handler does.
        """
        result = run_monitored_session(
            scheme.factory, spec, scheme.learned, scheme.default,
            scheme.monitor().fork(),
        )
        monitor = scheme.monitor().fork()
        monitor.reset()
        rng = rng_from_seed(spec.seed)
        expected = []
        for observation, record in zip(result.observation_list, result.chunks):
            decision = monitor.observe(observation)
            policy = scheme.default if decision.defaulted else scheme.learned
            action = int(policy.act(observation, rng))
            if (action, decision.defaulted) != (record.bitrate_index, record.defaulted):
                raise RuntimeError("replayed decisions diverge from the trajectory")
            value = decision.signal_value
            expected.append(
                (
                    action,
                    int(decision.step),
                    bool(decision.defaulted),
                    bool(decision.fired),
                    bool(decision.handoff),
                    None if math.isnan(value) else float(value),
                )
            )
        return Stream([obs.tolist() for obs in result.observation_list], expected)

    # -- the timed loop ---------------------------------------------------

    def _request(self, key, op: str, **fields) -> dict:
        """One round trip, timed under *key* once the warm-up is over.

        A refused request counts as failed; one that raises (a timeout,
        a dropped connection) ends the run.
        """
        start = time.perf_counter()
        payload = self.client.request(op, **fields)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.attempted += 1
        self.failed += not payload.get("ok")
        if self.best is not None and key is not None:
            self.best.add(key, elapsed, work=int(op == "step"))
        return payload

    def _phase(self, seconds: float) -> BestTimes:
        """Serve the churn schedule for *seconds* of timed round trips.

        The first :data:`PLAY` rounds, while the staggered slots fill up,
        are a warm-up and not timed.  The phase then runs at least until
        every distinct request has been seen once, and ends with every
        session detached and the service shut down.
        """
        self.wall = 0.0
        self.attempted = self.failed = 0
        self.best = None
        period = len(self.streams) // LIVE * PLAY
        offsets = [slot * PLAY // LIVE for slot in range(LIVE)]
        live: list[list | None] = [None] * LIVE
        started = [0] * LIVE
        best = BestTimes()
        timed_wall = 0.0
        round_ = 0
        while round_ < PLAY + period or timed_wall < seconds:
            if round_ == PLAY:
                self.best, mark = best, self.wall
            for slot in range(LIVE):
                if round_ < offsets[slot]:
                    continue
                if live[slot] is None:
                    stream = (started[slot] * LIVE + slot) % len(self.streams)
                    started[slot] += 1
                    tenant = f"tenant-{slot % TENANTS}"
                    key = f"slot{slot}-{started[slot]}"
                    live[slot] = [tenant, key, stream, 0]
                    self._request(
                        ("attach", stream), "attach", tenant=tenant, session=key,
                        scheme="demo", seed=self.sessions[stream].spec.seed,
                    )
                tenant, key, stream, cursor = live[slot]
                payload = self._request(
                    ("step", stream, cursor), "step", tenant=tenant, session=key,
                    observation=self.streams[stream].observations[cursor],
                )
                if payload.get("ok"):
                    got = tuple(payload.get(field) for field in FIELDS)
                    self.failed += got != self.streams[stream].expected[cursor]
                live[slot][3] = cursor + 1
                if cursor + 1 == PLAY:
                    self._request(
                        ("detach", stream), "detach", tenant=tenant, session=key
                    )
                    live[slot] = None
            round_ += 1
            if round_ % EVICT_EVERY == 0:
                self._request(("evict", round_ % PLAY), "evict", max_idle_s=0.0)
            if self.best is not None:
                timed_wall = self.wall - mark
        self.best = None
        for entry in live:
            if entry is not None:
                self._request(None, "detach", tenant=entry[0], session=entry[1])
        self._request(None, "shutdown")
        return best

    def _finish_server(self) -> dict:
        """Close the connection and collect the server's exit report."""
        self.client.close()
        self.client = None
        return self.server.wait()

    def serve(self, seconds: float, tracer: Tracer | None) -> dict:
        """Untraced-server phase, then (traced) a traced-server phase."""
        budget = seconds / 2 if tracer is not None else seconds
        plain = self._phase(budget)
        attempted, failed = self.attempted, self.failed
        server_rss = self._finish_server()["rss_mb"]
        steps = [key for key in plain.best if key[0] == "step"]
        outcome = {
            "metrics": {
                "decisions_per_s": plain.rate(),
                **plain.latency_metrics(steps),
                **{name: self.quality[name] for name in QUALITY_METRICS},
            },
            "info": {
                "requests": plain.repeats,
                "distinct_requests": len(plain.best),
                "steps_per_session": PLAY,
                "quality": self.quality,
                "connections": 1,
                "live_sessions": LIVE,
                "evict_every_rounds": EVICT_EVERY,
                "server_rss_mb": server_rss,
            },
        }
        if tracer is not None:
            self.server = Server(traced=True, tag=f"{os.getpid()}-traced")
            self.client = ServiceClient(*self.server.address)
            traced = self._phase(budget)
            attempted += self.attempted
            failed += self.failed
            wall = self.wall
            snapshot = self._finish_server()["tracer"]
            total = snapshot["total"]
            server_s = sum(
                total.get(layer, 0.0)
                for layer in ("protocol.decode", "service.dispatch", "protocol.encode")
            )
            split = layer_split(snapshot, wall, wall - server_s)
            split["trace.decisions"] = snapshot["calls"].get("monitor.observe", 0)
            split["trace.overhead_frac"] = traced.overhead(plain)
            outcome["layers"] = split
        outcome["attempted"] = attempted
        outcome["failed"] = failed
        return outcome

    def close(self) -> None:
        """Close the connection and make sure the child has exited."""
        if self.client is not None:
            self.client.close()
        if self.server is not None and self.server.process.returncode is None:
            self.server.stop()
