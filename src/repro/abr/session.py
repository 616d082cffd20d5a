"""Run a full streaming session: one policy, one trace, one video.

:func:`run_session` is the evaluation primitive everything above it builds
on — the figure harness runs it over every (policy, test trace) pair and
aggregates the session QoE values.  :func:`run_monitored_session` is the
same session driven through the explicit
:class:`~repro.core.monitor.SafetyMonitor` API — the monitor decides who
acts at every step.  Both are one call into the session loop of
:mod:`repro.core.runner` with an :class:`ABRSessionFactory`, the ABR
wiring (``ABREnv`` construction, ``ChunkRecord`` extraction) every other
path — the serve engine, the service, the tools — uses too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.abr.env import ABREnv, _StepTables
from repro.core import runner
from repro.core.monitor import SafetyMonitor
from repro.core.runner import (
    MonitoredScheme,
    MonitoredSessionResult,
    SessionFactory,
    SessionSpec,
    frozen_record,
)
from repro.mdp.interfaces import Policy, StepResult
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = [
    "ABRSessionFactory",
    "ChunkRecord",
    "SessionResult",
    "run_monitored_session",
    "run_session",
]


@dataclass(frozen=True)
class ChunkRecord:
    """Everything recorded about one chunk download."""

    chunk_index: int
    bitrate_index: int
    bitrate_mbps: float
    rebuffer_s: float
    download_time_s: float
    throughput_mbps: float
    buffer_s: float
    reward: float
    defaulted: bool = False


class SessionResult(MonitoredSessionResult):
    """Aggregated outcome of a streaming session.

    One :class:`ChunkRecord` per agent-controlled chunk; adds the
    ABR-specific aggregates to the generic result.
    """

    @property
    def bitrates_mbps(self) -> np.ndarray:
        """Selected bitrate per chunk (Mbit/s)."""
        return np.array([r.bitrate_mbps for r in self.chunks])

    @property
    def rebuffer_total_s(self) -> float:
        """Total stall time across the session."""
        return float(sum(r.rebuffer_s for r in self.chunks))

    @property
    def bitrate_switches(self) -> int:
        """Number of chunk-to-chunk rung changes."""
        indices = [r.bitrate_index for r in self.chunks]
        return int(sum(1 for a, b in zip(indices, indices[1:]) if a != b))


@dataclass(frozen=True)
class ABRSessionFactory(SessionFactory):
    """Session wiring for ABR: one video manifest, one QoE metric."""

    manifest: VideoManifest
    qoe_metric: QoEMetric | None = None

    domain = "abr"

    def steps_per_session(self) -> int:
        """Agent-controlled chunks: the first is fetched at the lowest rung."""
        return self.manifest.num_chunks - 1

    @cached_property
    def _tables(self) -> _StepTables:
        # Built on the first env and shared by every env after it.
        return _StepTables(self.manifest, self.qoe_metric)

    def new_env(self, spec: SessionSpec) -> ABREnv:
        return ABREnv._from_tables(self._tables, spec.trace, spec.start_offset_s)

    def new_result(self, spec: SessionSpec, policy_name: str) -> SessionResult:
        return SessionResult(trace_name=spec.trace.name, policy_name=policy_name)

    def record(self, step: StepResult, defaulted: bool) -> ChunkRecord:
        info = step.info
        return frozen_record(
            ChunkRecord,
            {
                "chunk_index": info["chunk_index"],
                "bitrate_index": info["bitrate_index"],
                "bitrate_mbps": info["bitrate_mbps"],
                "rebuffer_s": info["rebuffer_s"],
                "download_time_s": info["download_time_s"],
                "throughput_mbps": info["throughput_mbps"],
                "buffer_s": info["buffer_s"],
                "reward": step.reward,
                "defaulted": defaulted,
            },
        )


def run_session(
    policy: Policy | MonitoredScheme,
    manifest: VideoManifest,
    trace: Trace,
    qoe_metric: QoEMetric | None = None,
    seed: int | np.random.Generator | None = 0,
    policy_name: str | None = None,
    start_offset_s: float = 0.0,
) -> SessionResult:
    """Stream the whole video through *trace* under *policy*.

    The environment fetches the first chunk at the lowest rung (reference
    behaviour); the policy then decides every remaining chunk.  A
    :class:`~repro.core.runner.MonitoredScheme` runs under a fresh
    monitor.  Returns the complete per-chunk record.
    """
    return runner.run_session(
        ABRSessionFactory(manifest, qoe_metric),
        SessionSpec(trace, seed, start_offset_s=start_offset_s),
        policy,
        policy_name,
    )


def run_monitored_session(
    learned: Policy,
    default: Policy,
    monitor: SafetyMonitor,
    manifest: VideoManifest,
    trace: Trace,
    qoe_metric: QoEMetric | None = None,
    seed: int | np.random.Generator | None = 0,
    policy_name: str | None = None,
    start_offset_s: float = 0.0,
) -> SessionResult:
    """Stream one session with the monitor deciding who acts at each step.

    The monitor observes every step, and the policy it picks makes the
    decision.  :func:`run_session` runs a monitored scheme through this
    same loop; the serve engine multiplexes many of these loops
    concurrently.
    """
    return runner.run_monitored_session(
        ABRSessionFactory(manifest, qoe_metric),
        SessionSpec(trace, seed, start_offset_s=start_offset_s),
        learned,
        default,
        monitor,
        policy_name,
    )
