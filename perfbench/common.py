"""Pieces shared by the benchmark workloads: traffic, checks, metrics.

Timing on a shared machine
--------------------------
Other tenants of the machine slow a run down by up to 3x for seconds at
a time; the slowdown shows in CPU time as much as in wall time, and it
only ever adds time.  Every workload therefore repeats a fixed set of
distinct *requests* (a group of sessions served in process, or one
service request at one point of a replayed stream) many times in a run,
and keeps each request's best time (:class:`BestTimes`).  Throughput is
the work of one pass over the set divided by the sum of those best
times; latency percentiles are taken over the requests' best times, so
the tail comes from the request mix (a resume from cold storage next to
a hot step), not from the neighbours.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

from repro.domains import SessionSpec, apply_scenario

#: Shift scenarios mixed into every workload's traffic: half of the
#: sessions stream unchanged traces, the other half one of these.
SHIFTS = ("abrupt_shift", "slow_drift")

#: Dataset seeds of the fixed corpus a workload serves and of the
#: evaluation set hand-off quality is scored on, so that quality only
#: moves when decisions change.
CORPUS_SEED = 10_001
EVALUATION_SEED = 10_000
#: Sessions in the evaluation set (8 in a ``--small`` run).
EVALUATION_SESSIONS = 48

#: Hand-off quality figures reported as end-to-end metrics (the rest of
#: :func:`handoff_quality` goes to the run's info line).
QUALITY_METRICS = ("detection_rate", "detection_delay_steps", "specificity")

#: Layers whose own time is reported as ``<layer>_s``.
LAYER_TIMES = (
    "signal.batch",
    "signal.scalar",
    "monitor.fold",
    "monitor.observe",
    "policy.learned",
    "policy.default",
    "env.step",
    "env.build",
    "domain.record",
    "protocol.decode",
    "protocol.encode",
    "store.checkout",
    "store.resume",
    "store.evict",
    "store.backend_put",
    "store.backend_get",
)

#: Work counts: metric name -> (tracer accumulator, layer).
LAYER_COUNTS = {
    "signal.batches": ("calls", "signal.batch"),
    "signal.rows": ("rows", "signal.batch"),
    "signal.scalar_calls": ("calls", "signal.scalar"),
    "monitor.observes": ("calls", "monitor.observe"),
    "policy.learned_acts": ("calls", "policy.learned"),
    "policy.default_acts": ("calls", "policy.default"),
    "env.steps": ("calls", "env.step"),
    "store.resumes": ("calls", "store.resume"),
    "store.evictions": ("calls", "store.backend_put"),
}

#: Schemes served in process; each gets a ``serve.run_s.<scheme>``.
SCHEMES = ("ND", "A-ensemble", "V-ensemble", "demo")

#: Set-up layers, each reported as ``<layer>_s``.
SETUP_LAYERS = (
    "setup.imports",
    "setup.traces",
    "setup.train_agents",
    "setup.train_values",
    "setup.novelty_fit",
    "setup.calibrate",
    "setup.train_q",
    "setup.server_boot",
)


@dataclass
class Session:
    """One session of a workload's traffic and where its shift begins."""

    spec: SessionSpec
    #: Shift onset in trace time; ``None`` for in-distribution sessions.
    onset_s: float | None


def traffic(traces) -> list[Session]:
    """In-distribution sessions over the first half of *traces*, shifted
    ones over the second half (cycling through :data:`SHIFTS`)."""
    sessions = []
    half = len(traces) // 2
    for index, trace in enumerate(traces):
        onset = None
        if index >= half:
            shifted = apply_scenario(SHIFTS[index % len(SHIFTS)], trace, seed=index)
            trace, onset = shifted.trace, shifted.onset_s
        spec = SessionSpec(trace=trace, seed=index, name=f"s{index:03d}")
        sessions.append(Session(spec, onset))
    return sessions


def arrivals(sessions: list[Session], seed: int) -> list[Session]:
    """*sessions* in the order the run's *seed* makes them arrive.

    A workload's session corpus is fixed, so that every run measures
    the same work; the seed decides which sessions are served together
    and where each one meets the service's eviction schedule.
    """
    order = np.random.default_rng(seed).permutation(len(sessions))
    return [sessions[index] for index in order]


def fingerprint(result) -> tuple:
    """A served trajectory as an exactly comparable value."""
    return (
        tuple(tuple(vars(record).values()) for record in result.chunks),
        result.observations.tobytes(),
    )


def abr_step_times(chunks) -> list[float]:
    """ABR decision timestamps: each chunk takes download + rebuffer."""
    times, now = [], 0.0
    for chunk in chunks:
        times.append(now)
        now += chunk.download_time_s + chunk.rebuffer_s
    return times


def cc_step_times(chunks, step_s: float) -> list[float]:
    """CC decision timestamps: one control interval per decision."""
    return [index * step_s for index in range(len(chunks))]


def handoff_quality(outcomes) -> dict:
    """Hand-off quality over ``(defaulted flags, step times, onset)``.

    The definitions are those of ``evaluate_cell`` in
    ``tools/scenario_matrix.py``: a default before the onset (or any
    default in distribution) is a false alarm; a default at or after the
    onset is a detection, and its latency is the trace time from the
    onset to the first such default (``detection_delay_steps`` counts
    the decisions in between instead).  ``specificity`` is the share of
    sessions without a false alarm, ``1 - false_alarm_rate``.
    """
    sessions = shifted = false_alarms = detections = 0
    latencies, delays = [], []
    for defaulted, times, onset in outcomes:
        sessions += 1
        first = next((i for i, flag in enumerate(defaulted) if flag), None)
        if onset is None:
            false_alarms += first is not None
            continue
        shifted += 1
        false_alarms += first is not None and times[first] < onset
        post = [i for i, flag in enumerate(defaulted) if flag and times[i] >= onset]
        if post:
            detections += 1
            latencies.append(times[post[0]] - onset)
            delays.append(post[0] - sum(time < onset for time in times))
    return {
        "detection_rate": detections / shifted,
        "detection_delay_steps": float(np.mean(delays)) if delays else 0.0,
        "detection_latency_s": float(np.mean(latencies)) if latencies else 0.0,
        "false_alarm_rate": false_alarms / sessions,
        "specificity": 1.0 - false_alarms / sessions,
    }


class BestTimes:
    """The best time of each distinct request over its repeats."""

    def __init__(self) -> None:
        self.best: dict = {}
        self.work: dict = {}
        self.repeats = 0

    def add(self, key, seconds: float, work: int = 1) -> None:
        """One timed repeat of request *key*, which did *work* decisions."""
        self.repeats += 1
        if seconds < self.best.get(key, float("inf")):
            self.best[key] = seconds
        self.work[key] = work

    def seconds(self) -> float:
        """Time of one pass over every request at its best."""
        return float(sum(self.best.values()))

    def rate(self) -> float:
        """Decisions per second of one pass at best times."""
        return sum(self.work.values()) / self.seconds()

    def overhead(self, baseline: "BestTimes") -> float:
        """How much slower these requests are than the same ones in
        *baseline*, as a fraction."""
        keys = self.best.keys() & baseline.best.keys()
        mine = sum(self.best[key] for key in keys)
        return mine / sum(baseline.best[key] for key in keys) - 1.0

    def latency_metrics(self, keys=None) -> dict:
        """Median and 99th percentile over requests of their best times."""
        keys = self.best if keys is None else keys
        values = np.array([self.best[key] for key in keys]) * 1e3
        return {
            "step_p50_ms": float(np.percentile(values, 50)),
            "step_p99_ms": float(np.percentile(values, 99)),
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_split(snapshot: dict, wall_s: float, transport_s: float = 0.0) -> dict:
    """Per-layer metrics from a traced phase's tracer *snapshot*.

    *wall_s* is the phase's serving wall time.  In process the outermost
    timed call is each scheme's ``serve.run``, whose own time is the
    kernel's (``serve.self_s``).  For the service, *transport_s* is the
    client round trip minus the server's work.
    """
    own, total = snapshot["own"], snapshot["total"]
    metrics = {f"{layer}_s": own.get(layer, 0.0) for layer in LAYER_TIMES}
    for name, (kind, layer) in LAYER_COUNTS.items():
        metrics[name] = snapshot[kind].get(layer, 0)
    acts = metrics["policy.learned_acts"] + metrics["policy.default_acts"]
    metrics["policy.default_share"] = (
        metrics["policy.default_acts"] / acts if acts else 0.0
    )
    runs = [f"serve.run.{scheme}" for scheme in SCHEMES]
    for scheme, layer in zip(SCHEMES, runs):
        metrics[f"serve.run_s.{scheme}"] = total.get(layer, 0.0)
    metrics["serve.run_s"] = sum(total.get(layer, 0.0) for layer in runs)
    metrics["serve.self_s"] = sum(own.get(layer, 0.0) for layer in runs)
    metrics["service.dispatch_self_s"] = own.get("service.dispatch", 0.0)
    metrics["service.transport_s"] = transport_s
    metrics["trace.wall_s"] = wall_s
    return metrics


def coverage(metrics: dict) -> float:
    """Share of the traced wall time the per-layer own times account for."""
    names = [f"{layer}_s" for layer in LAYER_TIMES]
    names += ["serve.self_s", "service.dispatch_self_s", "service.transport_s"]
    return sum(metrics[name] for name in names) / metrics["trace.wall_s"]


def setup_split(snapshot: dict, imports_s: float, wall_s: float) -> dict:
    """Set-up time per layer, and what no timed layer accounts for."""
    own = dict(snapshot["own"], **{"setup.imports": imports_s})
    metrics = {f"{layer}_s": own.get(layer, 0.0) for layer in SETUP_LAYERS}
    metrics["setup.other_s"] = wall_s - sum(metrics.values())
    metrics["setup.wall_s"] = wall_s
    return metrics
