"""Sweep the ND scheme's own knobs: OC-SVM ν and the l-consecutive rule.

The ensemble schemes have a continuous threshold alpha to calibrate; the
ND scheme's operating point is set by ν (the OC-SVM's training-outlier
budget — its false-alarm dial) and l (how many consecutive OOD flags
trigger defaulting).  The paper fixes ν implicitly and l = 3 and defers
"the thorough investigation of how different thresholding strategies
impact performance to future research" — this sweep is that
investigation for U_S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.monitor import SafetyController
from repro.core.novelty_signal import StateNoveltySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.domains import SessionSpec, get_domain, run_session
from repro.errors import ConfigError
from repro.mdp.interfaces import Policy
from repro.novelty.ocsvm import OneClassSVM
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest

__all__ = ["NDSweepPoint", "nd_parameter_sweep"]


@dataclass(frozen=True)
class NDSweepPoint:
    """Measurements at one (nu, l) operating point."""

    nu: float
    l: int
    in_distribution_qoe: float
    ood_qoe: float
    in_distribution_default_fraction: float
    ood_default_fraction: float


def nd_parameter_sweep(
    learned: Policy,
    default: Policy,
    manifest: VideoManifest,
    training_samples: np.ndarray,
    in_distribution_traces: Sequence[Trace],
    ood_traces: Sequence[Trace],
    k: int,
    throughput_window: int = 10,
    nus: Sequence[float] = (0.02, 0.05, 0.1, 0.2),
    ls: Sequence[int] = (1, 3, 5),
    seed: int = 0,
) -> list[NDSweepPoint]:
    """Evaluate the ND safety scheme over a grid of (nu, l) settings.

    One OC-SVM is fitted per ν on the shared *training_samples*; each
    (ν, l) pair is then evaluated on both trace sets.  Returns the grid
    in row-major (ν outer, l inner) order.
    """
    if not in_distribution_traces or not ood_traces:
        raise ConfigError("need traces on both sides of the sweep")
    if not nus or not ls:
        raise ConfigError("empty sweep grid")
    factory = get_domain("abr").session_factory(manifest=manifest)
    points = []
    for nu in nus:
        detector = OneClassSVM(nu=nu).fit(training_samples)
        for l in ls:
            controller = SafetyController(
                learned=learned,
                default=default,
                signal=StateNoveltySignal(
                    detector,
                    manifest.bitrates_kbps,
                    k=k,
                    throughput_window=throughput_window,
                ),
                trigger=ConsecutiveTrigger(l=l),
            )
            in_sessions = [
                run_session(factory, SessionSpec(trace=trace, seed=seed), controller)
                for trace in in_distribution_traces
            ]
            ood_sessions = [
                run_session(factory, SessionSpec(trace=trace, seed=seed), controller)
                for trace in ood_traces
            ]
            points.append(
                NDSweepPoint(
                    nu=float(nu),
                    l=int(l),
                    in_distribution_qoe=float(
                        np.mean([r.qoe for r in in_sessions])
                    ),
                    ood_qoe=float(np.mean([r.qoe for r in ood_sessions])),
                    in_distribution_default_fraction=float(
                        np.mean([r.default_fraction for r in in_sessions])
                    ),
                    ood_default_fraction=float(
                        np.mean([r.default_fraction for r in ood_sessions])
                    ),
                )
            )
    return points
