#!/usr/bin/env python3
"""The Section 2.5 tension, made visible: sweep the defaulting threshold.

"If the threshold is set to be 'too low', the agent will default to
another policy often even when its learned policy is most relevant.  In
contrast, if the threshold is 'too high', the agent might stick with its
learned policy even when the circumstances no longer justify this."

This example trains one V-ensemble-enhanced agent, then sweeps the
variance threshold alpha across several orders of magnitude and reports,
for each value, the in-distribution QoE (cost of premature defaulting)
and the out-of-distribution QoE (cost of missed detection).

Run:  python examples/threshold_tradeoff.py
"""

import numpy as np

from repro import (
    BufferBasedPolicy,
    MonitoredScheme,
    SafetyConfig,
    TrainingConfig,
    ValueEnsembleSignal,
    envivio_dash3_manifest,
    make_dataset,
    run_session,
)
from repro.abr.session import ABRSessionFactory
from repro.core.thresholding import VarianceTrigger
from repro.pensieve.ensemble import train_agent_ensemble, train_value_ensemble
from repro.util.tables import render_table


def mean_qoe(policy, manifest, traces):
    results = [run_session(policy, manifest, t, seed=0) for t in traces]
    return (
        float(np.mean([r.qoe for r in results])),
        float(np.mean([r.default_fraction for r in results])),
    )


def main() -> None:
    manifest = envivio_dash3_manifest(repeats=2)
    bb = BufferBasedPolicy(manifest.bitrates_kbps)
    training = TrainingConfig(
        epochs=300,
        gamma=0.9,
        n_step=4,
        entropy_weight_start=0.3,
        entropy_weight_end=0.005,
        actor_learning_rate=2e-3,
        critic_learning_rate=4e-3,
    )
    safety = SafetyConfig(ocsvm_nu=0.05, max_ocsvm_samples=600)

    print("Training agent + value ensemble on gamma_2_2 ...")
    split = make_dataset("gamma_2_2", num_traces=8, duration_s=400, seed=1).split()
    agents = train_agent_ensemble(
        manifest, split.train, size=safety.ensemble_size, config=training
    )
    agent = agents[0]
    value_functions = train_value_ensemble(
        agent,
        manifest,
        split.train,
        size=safety.ensemble_size,
        gamma=training.gamma,
        epochs=150,
        filters=training.filters,
        hidden=training.hidden,
        reward_scale=training.reward_scale,
    )
    signal = ValueEnsembleSignal(value_functions, trim=safety.trim)

    ood_split = make_dataset("exponential", num_traces=8, duration_s=400, seed=1).split()
    alphas = [0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf")]
    rows = []
    for alpha in alphas:
        scheme = MonitoredScheme(
            name="V-ensemble",
            learned=agent,
            default=bb,
            signal=signal,
            trigger=VarianceTrigger(alpha=alpha, k=safety.variance_k, l=safety.l),
            factory=ABRSessionFactory(manifest),
        )
        in_qoe, in_frac = mean_qoe(scheme, manifest, split.test)
        ood_qoe, ood_frac = mean_qoe(scheme, manifest, ood_split.test)
        rows.append(
            [
                f"{alpha:g}",
                round(in_qoe, 1),
                f"{in_frac:.0%}",
                round(ood_qoe, 1),
                f"{ood_frac:.0%}",
            ]
        )
    print()
    print(
        render_table(
            [
                "alpha",
                "QoE in-dist",
                "defaulted in-dist",
                "QoE OOD",
                "defaulted OOD",
            ],
            rows,
        )
    )
    print(
        "\nReading: alpha=0 is pure BB (safe but never exploits the learned"
        "\npolicy); alpha=inf is vanilla Pensieve (best in-distribution,"
        "\ncatastrophic OOD); the useful thresholds lie in between."
    )


if __name__ == "__main__":
    main()
