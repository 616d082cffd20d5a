"""Ablation (paper future work): other default policies than BB.

Section 5 names "considering other DL-based ABR systems and default
policies" as a research direction.  This ablation swaps the default
policy under the ND scheme — Buffer-Based vs RobustMPC vs Rate-Based —
and compares the rescued OOD QoE.
"""

import numpy as np
import pytest

from repro.abr.session import run_session
from repro.core.monitor import SafetyController
from repro.core.thresholding import ConsecutiveTrigger
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.mpc import RobustMPCPolicy
from repro.policies.rate_based import RateBasedPolicy
from repro.traces.dataset import make_dataset
from repro.util.tables import render_table


def make_defaults(manifest):
    return {
        "BB (paper)": BufferBasedPolicy(manifest.bitrates_kbps),
        "RobustMPC": RobustMPCPolicy(
            manifest.bitrates_kbps,
            chunk_duration_s=manifest.chunk_duration_s,
            horizon=3,
        ),
        "Rate-Based": RateBasedPolicy(manifest.bitrates_kbps),
    }


@pytest.fixture(scope="module")
def ood_traces(config):
    return make_dataset(
        "exponential",
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    ).split().test


def test_default_policy_table(benchmark, artifacts, config, ood_traces, emit):
    rows = []

    def evaluate_all():
        for name, default in make_defaults(artifacts.manifest).items():
            controller = SafetyController(
                learned=artifacts.agent,
                default=default,
                signal=artifacts.signals["U_S"],
                trigger=ConsecutiveTrigger(l=config.safety.l),
            )
            qoe = float(
                np.mean(
                    [
                        run_session(controller, artifacts.manifest, t, seed=0).qoe
                        for t in ood_traces
                    ]
                )
            )
            rows.append([name, round(qoe, 1)])

    benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    vanilla = float(
        np.mean(
            [
                run_session(artifacts.agent, artifacts.manifest, t, seed=0).qoe
                for t in ood_traces
            ]
        )
    )
    rows.append(["(vanilla Pensieve)", round(vanilla, 1)])
    emit(
        "ablation_default_policy",
        render_table(["default policy under ND", "QoE OOD (exponential)"], rows),
    )
    # Every default policy rescues the agent OOD.
    assert all(qoe > vanilla for _, qoe in rows[:-1])


@pytest.mark.parametrize("name", ["BB (paper)", "RobustMPC", "Rate-Based"])
def test_default_policy_decision_cost(benchmark, artifacts, name):
    policy = make_defaults(artifacts.manifest)[name]
    obs = artifacts.probe_observations[0]
    rng = np.random.default_rng(0)
    benchmark(policy.act, obs, rng)
