#!/usr/bin/env python3
"""Auditing the safety net: why did the system default, and when?

Production operators will not trust a system that silently swaps
policies.  This example trains a small agent on Norway-like 3G traces,
pairs it with the ND safety scheme, then streams progressively harsher
versions of a test trace (using the trace transforms: cross traffic,
outages, capacity loss) and prints, for each:

* whether the scheme defaulted, at which chunk, and for how much of
  the session, and
* for the last defaulting shift, the step-by-step hand-off explanation,
  rebuilt by replaying the scheme's monitor over the recorded session.

Run:  python examples/safety_audit.py     (about a minute)
"""

import numpy as np

from repro import BufferBasedPolicy, TrainingConfig, envivio_dash3_manifest, make_dataset
from repro.abr.session import ABRSessionFactory, run_session
from repro.core.monitor import explain_default
from repro.core.runner import MonitoredScheme
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.thresholding import ConsecutiveTrigger
from repro.novelty import OneClassSVM
from repro.pensieve import A2CTrainer
from repro.traces.transforms import add_cross_traffic, inject_outages, scale
from repro.util.tables import render_table


def main() -> None:
    manifest = envivio_dash3_manifest(repeats=2)
    split = make_dataset("norway", num_traces=8, duration_s=400, seed=1).split()
    print("Training a small agent on norway traces ...")
    trainer = A2CTrainer(
        manifest,
        split.train,
        [0],
        config=TrainingConfig(
            epochs=200, gamma=0.9, n_step=4,
            entropy_weight_start=0.3, entropy_weight_end=0.005,
            actor_learning_rate=2e-3, critic_learning_rate=4e-3,
        ),
    )
    (agent,) = trainer.train()

    throughputs = []
    for trace in split.train:
        session = run_session(agent, manifest, trace, seed=0)
        throughputs.append(np.array([c.throughput_mbps for c in session.chunks]))
    samples = throughput_window_samples(throughputs, k=5, throughput_window=10)
    detector = OneClassSVM(nu=0.05).fit(samples)

    base = split.test[0]
    scenarios = {
        "unchanged test trace": base,
        "20% capacity loss": scale(base, 0.8),
        "competing flow (1 Mbit/s)": add_cross_traffic(base, mean_mbps=1.0, seed=2),
        "periodic outages": inject_outages(base, outage_duration_s=8.0, period_s=40.0, seed=2),
        "70% capacity loss": scale(base, 0.3),
    }
    scheme = MonitoredScheme(
        name="ND",
        learned=agent,
        default=BufferBasedPolicy(manifest.bitrates_kbps),
        signal=StateNoveltySignal(
            detector, manifest.bitrates_kbps, k=5, throughput_window=10
        ),
        trigger=ConsecutiveTrigger(l=3),
        factory=ABRSessionFactory(manifest),
    )
    rows = []
    last_defaulted = None
    for name, trace in scenarios.items():
        result = run_session(scheme, manifest, trace, seed=0)
        handoff = next(
            (step for step, chunk in enumerate(result.chunks) if chunk.defaulted),
            None,
        )
        rows.append(
            [
                name,
                round(result.qoe, 1),
                "-" if handoff is None else handoff,
                f"{result.default_fraction:.0%}",
            ]
        )
        if handoff is not None:
            last_defaulted = result
    print()
    print(
        render_table(
            ["scenario", "QoE", "hand-off at chunk", "session under default"],
            rows,
        )
    )
    if last_defaulted is not None:
        print("\nHand-off explanation for the last defaulting scenario:\n")
        print(explain_default(last_defaulted, scheme.monitor(), context_steps=4))


if __name__ == "__main__":
    main()
