"""One-call construction of the paper's safety-enhanced Pensieve variants.

:func:`build_safety_suite` performs the full offline phase for one
training distribution:

1. train the Pensieve agent ensemble (member 0 is "the" deployed agent),
2. train the value-function ensemble for member 0's policy,
3. fit the configured novelty detector (the OC-SVM by default) on
   throughput-window samples from member 0's training sessions,
4. build the three uncertainty signals and calibrate the ensemble
   signals' thresholds to the ND scheme's in-distribution QoE.

The result is a :class:`SafetySuite`: the vanilla agent plus the three
safety-enhanced schemes (ND, A-ensemble, V-ensemble), each a
:class:`~repro.core.runner.MonitoredScheme`, ready to be
evaluated on any test distribution — per session through
:func:`repro.abr.session.run_session`, or many sessions at once through
the :mod:`repro.serve` engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.abr.calibration import calibrate_variance_threshold, evaluate_mean_qoe
from repro.abr.session import ABRSessionFactory, run_session
from repro.core.calibration import CalibrationResult
from repro.core.ensemble_signals import PolicyEnsembleSignal, ValueEnsembleSignal
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.osap import SafetyConfig
from repro.core.runner import MonitoredScheme
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.errors import SafetyError
from repro.novelty.base import NoveltyDetector
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.ensemble import train_agent_ensemble, train_value_ensemble
from repro.pensieve.training import TrainingConfig
from repro.policies.base import ABRPolicy
from repro.traces.dataset import DatasetSplit
from repro.traces.trace import Trace
from repro.util.rng import rng_from_seed
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.experiments.artifacts import ArtifactCache

__all__ = ["SafetySuite", "build_safety_suite", "collect_training_throughputs"]


@dataclass
class SafetySuite:
    """Everything the offline phase produces for one training distribution."""

    agent: PensieveAgent
    agents: list[PensieveAgent]
    value_functions: list[PensieveValueFunction]
    detector: NoveltyDetector
    nd_controller: MonitoredScheme
    a_ensemble_controller: MonitoredScheme
    v_ensemble_controller: MonitoredScheme
    nd_qoe_in_distribution: float
    calibration_a: CalibrationResult
    calibration_v: CalibrationResult
    config: SafetyConfig = field(default_factory=SafetyConfig)

    def controllers(self) -> dict[str, MonitoredScheme]:
        """The three schemes by their paper names."""
        return {
            "ND": self.nd_controller,
            "A-ensemble": self.a_ensemble_controller,
            "V-ensemble": self.v_ensemble_controller,
        }


def collect_training_throughputs(
    agent: PensieveAgent,
    manifest: VideoManifest,
    traces: tuple[Trace, ...] | list[Trace],
    qoe_metric: QoEMetric | None = None,
    seed: int = 0,
) -> list[np.ndarray]:
    """Per-session measured-throughput series from the agent's own
    training-environment sessions (the novelty detector's raw training
    data)."""
    if not traces:
        raise SafetyError("no traces to collect throughput series from")
    rng = rng_from_seed(seed)
    series = []
    for trace in traces:
        session = run_session(agent, manifest, trace, qoe_metric=qoe_metric, seed=rng)
        series.append(np.array([c.throughput_mbps for c in session.chunks]))
    return series


def build_safety_suite(
    manifest: VideoManifest,
    split: DatasetSplit,
    default_policy: ABRPolicy,
    is_synthetic: bool,
    training_config: TrainingConfig | None = None,
    safety_config: SafetyConfig | None = None,
    qoe_metric: QoEMetric | None = None,
    value_epochs: int = 200,
    seed: int = 0,
    max_workers: int | None = None,
    weight_cache: "ArtifactCache | None" = None,
    checkpoint_every: int | None = None,
) -> SafetySuite:
    """Run the full offline phase for one training distribution.

    *max_workers* has no effect: both ensembles train in one stacked pass
    in this process.  The keyword stays accepted for existing callers.
    *weight_cache* (an :class:`~repro.experiments.artifacts.ArtifactCache`
    keyed by the training fingerprint) persists both ensembles' trained
    weights as ``.npz`` artifacts, so rebuilding the suite with an
    unchanged configuration loads the networks instead of retraining.
    *checkpoint_every* (or ``REPRO_CHECKPOINT_EVERY``) additionally
    checkpoints both trainings every N epochs into the same cache, so a
    suite build killed mid-ensemble resumes at the last epoch boundary
    with bitwise-identical results (see
    :mod:`repro.pensieve.checkpoint`).
    """
    safety = safety_config if safety_config is not None else SafetyConfig()
    training = training_config if training_config is not None else TrainingConfig()
    if not split.train:
        raise SafetyError("dataset split has no training traces")
    calibration_traces = split.validation if split.validation else split.train
    agents = train_agent_ensemble(
        manifest,
        split.train,
        size=safety.ensemble_size,
        config=training,
        qoe_metric=qoe_metric,
        root_seed=seed,
        cache=weight_cache,
        checkpoint_every=checkpoint_every,
    )
    # Standard model selection: deploy the ensemble member with the best
    # validation QoE.  (All members still feed the U_pi signal.)
    validation_qoes = [
        evaluate_mean_qoe(
            member, manifest, calibration_traces, qoe_metric=qoe_metric, seed=seed
        )
        for member in agents
    ]
    agent = agents[int(np.argmax(validation_qoes))]
    value_functions = train_value_ensemble(
        agent,
        manifest,
        split.train,
        size=safety.ensemble_size,
        gamma=training.gamma,
        epochs=value_epochs,
        filters=training.filters,
        hidden=training.hidden,
        reward_scale=training.reward_scale,
        qoe_metric=qoe_metric,
        root_seed=seed,
        cache=weight_cache,
        checkpoint_every=checkpoint_every,
    )
    k_ocsvm = safety.ocsvm_k(is_synthetic)
    throughputs = collect_training_throughputs(
        agent, manifest, split.train, qoe_metric=qoe_metric, seed=seed
    )
    samples = throughput_window_samples(
        throughputs,
        k=k_ocsvm,
        throughput_window=safety.throughput_window,
        max_samples=safety.max_ocsvm_samples,
        rng=rng_from_seed(seed),
    )
    detector = safety.build_detector().fit(samples)
    nd_signal = StateNoveltySignal(
        detector,
        manifest.bitrates_kbps,
        k=k_ocsvm,
        throughput_window=safety.throughput_window,
    )
    factory = ABRSessionFactory(manifest, qoe_metric)
    nd_controller = MonitoredScheme(
        name="ND",
        learned=agent,
        default=default_policy,
        signal=nd_signal,
        trigger=ConsecutiveTrigger(l=safety.l),
        factory=factory,
        allow_revert=safety.allow_revert,
    )
    nd_qoe = evaluate_mean_qoe(
        nd_controller, manifest, calibration_traces, qoe_metric=qoe_metric, seed=seed
    )
    pi_signal = PolicyEnsembleSignal(agents, trim=safety.trim)
    calibration_a = calibrate_variance_threshold(
        pi_signal,
        learned=agent,
        default=default_policy,
        manifest=manifest,
        traces=calibration_traces,
        target_qoe=nd_qoe,
        k=safety.variance_k,
        l=safety.l,
        qoe_metric=qoe_metric,
        seed=seed,
    )
    a_controller = MonitoredScheme(
        name="A-ensemble",
        learned=agent,
        default=default_policy,
        signal=pi_signal,
        trigger=VarianceTrigger(
            alpha=calibration_a.alpha, k=safety.variance_k, l=safety.l
        ),
        factory=factory,
        allow_revert=safety.allow_revert,
    )
    v_signal = ValueEnsembleSignal(value_functions, trim=safety.trim)
    calibration_v = calibrate_variance_threshold(
        v_signal,
        learned=agent,
        default=default_policy,
        manifest=manifest,
        traces=calibration_traces,
        target_qoe=nd_qoe,
        k=safety.variance_k,
        l=safety.l,
        qoe_metric=qoe_metric,
        seed=seed,
    )
    v_controller = MonitoredScheme(
        name="V-ensemble",
        learned=agent,
        default=default_policy,
        signal=v_signal,
        trigger=VarianceTrigger(
            alpha=calibration_v.alpha, k=safety.variance_k, l=safety.l
        ),
        factory=factory,
        allow_revert=safety.allow_revert,
    )
    return SafetySuite(
        agent=agent,
        agents=agents,
        value_functions=value_functions,
        detector=detector,
        nd_controller=nd_controller,
        a_ensemble_controller=a_controller,
        v_ensemble_controller=v_controller,
        nd_qoe_in_distribution=float(nd_qoe),
        calibration_a=calibration_a,
        calibration_v=calibration_v,
        config=safety,
    )
