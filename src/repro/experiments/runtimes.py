"""The Section 3.1 running-time remark, reproduced.

The paper reports offline training time (OC-SVM: seconds; RL agent: ~8 h;
value function: ~4 h on their hardware) and online per-decision latency
(U_S ~0.5 ms, U_pi ~3 ms, U_V ~4 ms), concluding that decision latency is
"orders of magnitude lower than needed" for the seconds-granularity of ABR
decisions.  :func:`measure_runtimes` measures the same quantities for this
reproduction's artifacts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.abr.suite import collect_training_throughputs
from repro.domains import SessionSpec, get_domain, run_session
from repro.config import ExperimentConfig
from repro.core.ensemble_signals import PolicyEnsembleSignal, ValueEnsembleSignal
from repro.core.monitor import SafetyMonitor
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.thresholding import (
    ConsecutiveTrigger,
    DefaultTrigger,
    VarianceTrigger,
)
from repro.novelty.ocsvm import OneClassSVM
from repro.pensieve.ensemble import train_agent_ensemble, train_value_ensemble
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest

__all__ = ["measure_runtimes"]


def _per_decision_ms(
    signal, trigger: DefaultTrigger, observations: np.ndarray
) -> float:
    """Time the full online path: one monitor decision per observation.

    ``allow_revert=True`` keeps the monitor measuring on every step (the
    sticky skip would otherwise stop measuring after a default and
    undercount the latency the paper reports).
    """
    monitor = SafetyMonitor(signal, trigger, allow_revert=True)
    start = time.perf_counter()
    for observation in observations:
        monitor.observe(observation)
    elapsed = time.perf_counter() - start
    return elapsed / len(observations) * 1000.0


def measure_runtimes(
    config: ExperimentConfig,
    dataset_name: str = "gamma_2_2",
) -> dict:
    """Offline training times and online per-decision latency per signal.

    Uses the experiment configuration's scale for the trained artifacts
    and a full session's observation stream for the online measurement.
    Returns times in seconds (offline) and milliseconds (online).
    """
    manifest = envivio_dash3_manifest(repeats=config.video_repeats)
    dataset = make_dataset(
        dataset_name,
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    )
    split = dataset.split()
    start = time.perf_counter()
    agents = train_agent_ensemble(
        manifest,
        split.train,
        size=config.safety.ensemble_size,
        config=config.training,
        root_seed=config.suite_seed,
    )
    agent_ensemble_s = time.perf_counter() - start
    agent = agents[0]
    start = time.perf_counter()
    value_functions = train_value_ensemble(
        agent,
        manifest,
        split.train,
        size=config.safety.ensemble_size,
        gamma=config.training.gamma,
        epochs=config.value_epochs,
        filters=config.training.filters,
        hidden=config.training.hidden,
        reward_scale=config.training.reward_scale,
        root_seed=config.suite_seed,
    )
    value_ensemble_s = time.perf_counter() - start
    k = config.safety.ocsvm_k(dataset.is_synthetic)
    throughputs = collect_training_throughputs(agent, manifest, split.train)
    samples = throughput_window_samples(
        throughputs,
        k=k,
        throughput_window=config.safety.throughput_window,
        max_samples=config.safety.max_ocsvm_samples,
    )
    start = time.perf_counter()
    detector = OneClassSVM(nu=config.safety.ocsvm_nu).fit(samples)
    ocsvm_fit_s = time.perf_counter() - start
    # Online phase: stream one session's observations through each signal.
    session = run_session(
        get_domain("abr").session_factory(manifest=manifest),
        SessionSpec(trace=split.test[0], seed=config.eval_seed),
        BufferBasedPolicy(manifest.bitrates_kbps),
    )
    observations = session.observations
    safety = config.safety
    monitored = {
        "U_S": (
            StateNoveltySignal(
                detector,
                manifest.bitrates_kbps,
                k=k,
                throughput_window=safety.throughput_window,
            ),
            ConsecutiveTrigger(l=safety.l),
        ),
        "U_pi": (
            PolicyEnsembleSignal(agents, trim=safety.trim),
            VarianceTrigger(alpha=np.inf, k=safety.variance_k, l=safety.l),
        ),
        "U_V": (
            ValueEnsembleSignal(value_functions, trim=safety.trim),
            VarianceTrigger(alpha=np.inf, k=safety.variance_k, l=safety.l),
        ),
    }
    online_ms = {
        name: _per_decision_ms(signal, trigger, observations)
        for name, (signal, trigger) in monitored.items()
    }
    return {
        "offline_seconds": {
            "ocsvm_fit": ocsvm_fit_s,
            "agent_ensemble": agent_ensemble_s,
            "agent_each": agent_ensemble_s / config.safety.ensemble_size,
            "value_ensemble": value_ensemble_s,
            "value_each": value_ensemble_s / config.safety.ensemble_size,
        },
        "online_ms_per_decision": online_ms,
        "decisions_measured": int(observations.shape[0]),
    }
