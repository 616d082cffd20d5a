"""Ablation: the Section 2.5 threshold trade-off, measured.

Sweeps the V-ensemble variance threshold alpha from 0 (always default —
pure BB) to infinity (never default — vanilla Pensieve) and reports
in-distribution vs out-of-distribution QoE at each setting, the tension
the paper says the system designer must balance.
"""

import numpy as np
import pytest

from repro.abr.session import run_session
from repro.core.ensemble_signals import ValueEnsembleSignal
from repro.core.monitor import SafetyController
from repro.core.thresholding import VarianceTrigger
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import make_dataset
from repro.util.tables import render_table

ALPHAS = [0.0, 1e-3, 1e-2, 1e-1, 1.0, float("inf")]


@pytest.fixture(scope="module")
def sweep_setup(artifacts, config):
    bb = BufferBasedPolicy(artifacts.manifest.bitrates_kbps)
    signal = ValueEnsembleSignal(artifacts.value_functions, trim=config.safety.trim)
    ood_split = make_dataset(
        "exponential",
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    ).split()
    return bb, signal, ood_split


def controller_for(artifacts, bb, signal, alpha, config):
    return SafetyController(
        learned=artifacts.agent,
        default=bb,
        signal=signal,
        trigger=VarianceTrigger(
            alpha=alpha, k=config.safety.variance_k, l=config.safety.l
        ),
    )


def test_threshold_sweep_table(benchmark, artifacts, config, sweep_setup, emit):
    bb, signal, ood_split = sweep_setup
    rows = []
    results = {}

    def evaluate_all():
        for alpha in ALPHAS:
            controller = controller_for(artifacts, bb, signal, alpha, config)
            in_qoe = np.mean(
                [
                    run_session(controller, artifacts.manifest, t, seed=0).qoe
                    for t in artifacts.split.test
                ]
            )
            ood_qoe = np.mean(
                [
                    run_session(controller, artifacts.manifest, t, seed=0).qoe
                    for t in ood_split.test
                ]
            )
            results[alpha] = (float(in_qoe), float(ood_qoe))
            rows.append(
                [f"{alpha:g}", round(float(in_qoe), 1), round(float(ood_qoe), 1)]
            )

    benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    emit(
        "ablation_threshold",
        render_table(["alpha", "QoE in-dist", "QoE OOD"], rows),
    )
    # alpha=0 is BB everywhere: safest OOD. alpha=inf is vanilla
    # Pensieve: worst OOD. The sweep must expose that ordering.
    assert results[0.0][1] > results[float("inf")][1]


@pytest.mark.parametrize("alpha", [0.0, 1e-2, float("inf")])
def test_controller_session_cost(benchmark, artifacts, config, sweep_setup, alpha):
    bb, signal, _ = sweep_setup
    controller = controller_for(artifacts, bb, signal, alpha, config)
    benchmark(
        run_session, controller, artifacts.manifest, artifacts.split.test[0]
    )
