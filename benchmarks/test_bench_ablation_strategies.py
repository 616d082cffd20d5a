"""Ablation (paper future work): thresholding strategies compared.

Same V-ensemble signal, same calibration budget, four defaulting rules:
the paper's k-window variance + l-consecutive, plain EWMA level, CUSUM
change detection, and hysteresis (with reverting enabled).  Reported on
in-distribution and OOD sessions.
"""

import numpy as np
import pytest

from repro.abr.session import ABRSessionFactory, run_session
from repro.core.ensemble_signals import ValueEnsembleSignal
from repro.core.runner import MonitoredScheme
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import VarianceTrigger
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import make_dataset
from repro.util.tables import render_table


@pytest.fixture(scope="module")
def strategy_setup(artifacts, config):
    signal = ValueEnsembleSignal(artifacts.value_functions, trim=config.safety.trim)
    # Baseline statistics of the signal on in-distribution sessions, used
    # to place every strategy's parameters on a comparable footing.
    values = []
    for trace in artifacts.split.validation or artifacts.split.train[:1]:
        signal.reset()
        session = run_session(artifacts.agent, artifacts.manifest, trace, seed=0)
        values.extend(signal.measure(obs) for obs in session.observation_list)
    values = np.asarray(values)
    level = float(np.quantile(values, 0.95))
    drift = float(np.quantile(values, 0.8))
    variance_bar = float(np.var(values[-config.safety.variance_k :]) + 1e-9)
    ood = make_dataset(
        "exponential",
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    ).split()
    return signal, level, drift, variance_bar, ood


def build_triggers(level, drift, variance_bar, config):
    return {
        "variance+l (paper)": (
            VarianceTrigger(alpha=variance_bar, k=config.safety.variance_k, l=config.safety.l),
            False,
        ),
        "EWMA level": (EWMATrigger(bar=level, alpha=0.3), False),
        "CUSUM": (CusumTrigger(threshold=5.0 * max(level, 1e-6), drift=drift), False),
        "hysteresis (revert)": (
            HysteresisTrigger(high=level, low=drift),
            True,
        ),
    }


def test_strategy_table(benchmark, artifacts, config, strategy_setup, emit):
    signal, level, drift, variance_bar, ood = strategy_setup
    bb = BufferBasedPolicy(artifacts.manifest.bitrates_kbps)
    rows = []
    results = {}

    def evaluate_all():
        for name, (trigger, revert) in build_triggers(
            level, drift, variance_bar, config
        ).items():
            _evaluate(name, trigger, revert)

    def _evaluate(name, trigger, revert):
        controller = MonitoredScheme(
            name=name,
            learned=artifacts.agent,
            default=bb,
            signal=signal,
            trigger=trigger,
            factory=ABRSessionFactory(artifacts.manifest),
            allow_revert=revert,
        )
        in_sessions = [
            run_session(controller, artifacts.manifest, t, seed=0)
            for t in artifacts.split.test
        ]
        ood_sessions = [
            run_session(controller, artifacts.manifest, t, seed=0)
            for t in ood.test
        ]
        in_qoe = float(np.mean([r.qoe for r in in_sessions]))
        ood_qoe = float(np.mean([r.qoe for r in ood_sessions]))
        ood_frac = float(np.mean([r.default_fraction for r in ood_sessions]))
        results[name] = (in_qoe, ood_qoe, ood_frac)
        rows.append([name, round(in_qoe, 1), round(ood_qoe, 1), f"{ood_frac:.0%}"])

    benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    vanilla_ood = float(
        np.mean(
            [
                run_session(artifacts.agent, artifacts.manifest, t, seed=0).qoe
                for t in ood.test
            ]
        )
    )
    rows.append(["(vanilla agent)", "-", round(vanilla_ood, 1), "0%"])
    emit(
        "ablation_strategies",
        render_table(
            ["strategy", "QoE in-dist", "QoE OOD", "defaulted OOD"], rows
        ),
    )
    # Every strategy must improve the vanilla agent OOD.
    for name, (_, ood_qoe, _) in results.items():
        assert ood_qoe > vanilla_ood, f"{name} failed to rescue OOD"


@pytest.mark.parametrize("strategy", ["variance", "ewma", "cusum"])
def test_trigger_update_cost(benchmark, strategy):
    triggers = {
        "variance": VarianceTrigger(alpha=0.1, k=5, l=3),
        "ewma": EWMATrigger(bar=0.5),
        "cusum": CusumTrigger(threshold=1.0, drift=0.1),
    }
    trigger = triggers[strategy]
    state = {"x": 0.0}

    def update():
        state["x"] = (state["x"] + 0.37) % 1.0
        return trigger.update(state["x"])

    benchmark(update)
