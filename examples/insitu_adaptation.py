#!/usr/bin/env python3
"""In-situ adaptation: retrain where you are deployed (paper future work).

A Pensieve agent trained on Gamma(2,2) throughput is deployed on an
Exponential(1) network — a much leaner distribution where it initially
fails.  We fine-tune the deployed agent *in situ* on operational traces
(the Puffer [61] approach the paper's Section 5 points to), and watch:

1. QoE on the operational distribution recover, and
2. the U_S uncertainty signal go quiet once the detector is refit on the
   new "home" distribution.

Run:  python examples/insitu_adaptation.py     (a few minutes)
"""

import numpy as np

from repro import (
    BufferBasedPolicy,
    OneClassSVM,
    TrainingConfig,
    envivio_dash3_manifest,
    make_dataset,
    run_session,
)
from repro.abr.suite import collect_training_throughputs
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.pensieve import A2CTrainer, fine_tune
from repro.util.tables import render_table

TRAINING = TrainingConfig(
    epochs=250,
    gamma=0.9,
    n_step=4,
    entropy_weight_start=0.3,
    entropy_weight_end=0.005,
    actor_learning_rate=2e-3,
    critic_learning_rate=4e-3,
)


def mean_qoe(policy, manifest, traces):
    return float(np.mean([run_session(policy, manifest, t, seed=0).qoe for t in traces]))


def flag_rate(signal, policy, manifest, traces):
    flags = []
    for trace in traces:
        signal.reset()
        session = run_session(policy, manifest, trace, seed=0)
        flags.extend(signal.measure(obs) for obs in session.observation_list)
    return float(np.mean(flags))


def fit_signal(agent, manifest, traces, k=30):
    series = collect_training_throughputs(agent, manifest, traces)
    samples = throughput_window_samples(series, k=k, throughput_window=10, max_samples=600)
    detector = OneClassSVM(nu=0.05).fit(samples)
    return StateNoveltySignal(detector, manifest.bitrates_kbps, k=k, throughput_window=10)


def main() -> None:
    manifest = envivio_dash3_manifest(repeats=2)
    home = make_dataset("gamma_2_2", num_traces=8, duration_s=400, seed=1).split()
    operational = make_dataset("exponential", num_traces=8, duration_s=400, seed=1).split()
    bb = BufferBasedPolicy(manifest.bitrates_kbps)

    print("Training the original agent on gamma_2_2 ...")
    trainer = A2CTrainer(manifest, home.train, [TRAINING.seed], config=TRAINING)
    (agent,) = trainer.train()
    stale_signal = fit_signal(agent, manifest, home.train)

    print("Fine-tuning in situ on exponential traces ...")
    result = fine_tune(
        agent, manifest, operational.train, epochs=250, config=TRAINING
    )
    fresh_signal = fit_signal(result.adapted_agent, manifest, operational.train)

    rows = [
        ["original agent, QoE", round(mean_qoe(agent, manifest, operational.test), 1)],
        [
            "adapted agent, QoE",
            round(mean_qoe(result.adapted_agent, manifest, operational.test), 1),
        ],
        ["BB, QoE", round(mean_qoe(bb, manifest, operational.test), 1)],
        [
            "U_S flag rate, stale detector",
            f"{flag_rate(stale_signal, result.adapted_agent, manifest, operational.test):.0%}",
        ],
        [
            "U_S flag rate, refit detector",
            f"{flag_rate(fresh_signal, result.adapted_agent, manifest, operational.test):.0%}",
        ],
    ]
    print()
    print(render_table(["quantity (on exponential test traces)", "value"], rows))
    print(
        "\nReading: in-situ training turns the OOD distribution into the"
        "\nhome distribution — and once the detector is refit there, the"
        "\nsafety net stops firing: adaptation and safety assurance are"
        "\ncomplementary, not competing."
    )


if __name__ == "__main__":
    main()
