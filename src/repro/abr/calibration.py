"""ABR-side threshold calibration: running the sessions behind Section 2.5.

The calibration *decision* — pick ``alpha`` from a candidate/QoE table —
is domain-agnostic and lives in :mod:`repro.core.calibration`.  This
module produces that table for the ABR domain: stream in-distribution
sessions to collect the signal's window-variance distribution (the
candidate grid) and evaluate the safety-enhanced agent's QoE at each
candidate.
"""

from __future__ import annotations

import numpy as np

from repro.abr.session import ABRSessionFactory, run_session
from repro.core.calibration import (
    CANDIDATE_QUANTILES,
    CalibrationResult,
    select_threshold,
)
from repro.core.runner import MonitoredScheme
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import VarianceTrigger
from repro.errors import CalibrationError
from repro.mdp.interfaces import Policy
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = [
    "calibrate_variance_threshold",
    "collect_window_variances",
    "evaluate_mean_qoe",
]


def evaluate_mean_qoe(
    policy: Policy | MonitoredScheme,
    manifest: VideoManifest,
    traces: tuple[Trace, ...] | list[Trace],
    qoe_metric: QoEMetric | None = None,
    seed: int = 0,
) -> float:
    """Mean session QoE of *policy* (or a monitored scheme) over *traces*."""
    if not traces:
        raise CalibrationError("no traces to evaluate on")
    scores = [
        run_session(policy, manifest, trace, qoe_metric=qoe_metric, seed=seed).qoe
        for trace in traces
    ]
    return float(np.mean(scores))


def collect_window_variances(
    signal: UncertaintySignal,
    policy: Policy,
    manifest: VideoManifest,
    traces: tuple[Trace, ...] | list[Trace],
    k: int,
    qoe_metric: QoEMetric | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Observe the signal's k-window variance along in-distribution sessions.

    Runs *policy* (without any defaulting) while feeding the signal, and
    records the rolling variance a :class:`VarianceTrigger` would see —
    the empirical distribution the candidate thresholds are drawn from.
    """
    variances: list[float] = []
    for trace in traces:
        signal.reset()
        probe = VarianceTrigger(alpha=np.inf, k=k, l=1)
        session = run_session(
            policy, manifest, trace, qoe_metric=qoe_metric, seed=seed
        )
        for observation in session.observation_list:
            probe.update(signal.measure(observation))
            variances.append(probe.window_variance())
    if not variances:
        raise CalibrationError("no signal observations collected")
    return np.asarray(variances)


def calibrate_variance_threshold(
    signal: UncertaintySignal,
    learned: Policy,
    default: Policy,
    manifest: VideoManifest,
    traces: tuple[Trace, ...] | list[Trace],
    target_qoe: float,
    k: int = 5,
    l: int = 3,
    qoe_metric: QoEMetric | None = None,
    seed: int = 0,
    candidate_alphas: list[float] | None = None,
    tolerance_fraction: float = 0.02,
) -> CalibrationResult:
    """Choose ``alpha`` so the safety-enhanced agent matches *target_qoe*.

    *traces* must be in-distribution (the paper calibrates on the training
    distribution; we use the validation split).  Candidate thresholds are
    drawn from the observed in-distribution variance distribution, each
    is evaluated end-to-end, and :func:`repro.core.calibration.select_threshold`
    picks the winner.  Returns the chosen threshold together with the
    full candidate/QoE table for inspection.
    """
    if signal.binary:
        raise CalibrationError(
            "binary signals use the fixed consecutive rule; only continuous "
            "signals are calibrated"
        )
    if not traces:
        raise CalibrationError("no calibration traces supplied")
    if tolerance_fraction < 0:
        raise CalibrationError(
            f"tolerance_fraction must be >= 0, got {tolerance_fraction}"
        )
    if candidate_alphas is None:
        observed = collect_window_variances(
            signal, learned, manifest, traces, k=k, qoe_metric=qoe_metric, seed=seed
        )
        positive = observed[observed > 0]
        if positive.size == 0:
            # The signal never varies in-distribution: any tiny bar works.
            candidate_alphas = [1e-12]
        else:
            quantiles = np.quantile(positive, CANDIDATE_QUANTILES)
            candidate_alphas = sorted(set(float(q) for q in quantiles))
            candidate_alphas.append(float(positive.max()) * 2.0)
    factory = ABRSessionFactory(manifest, qoe_metric)
    candidates: list[tuple[float, float]] = []
    for alpha in candidate_alphas:
        scheme = MonitoredScheme(
            name="safe",
            learned=learned,
            default=default,
            signal=signal,
            trigger=VarianceTrigger(alpha=alpha, k=k, l=l),
            factory=factory,
        )
        qoe = evaluate_mean_qoe(
            scheme, manifest, traces, qoe_metric=qoe_metric, seed=seed
        )
        candidates.append((float(alpha), qoe))
    return select_threshold(
        candidates, target_qoe, tolerance_fraction=tolerance_fraction
    )
