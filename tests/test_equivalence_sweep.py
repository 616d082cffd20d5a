"""The cross-path equivalence sweep.

One parametrized test walks the training engines —

    {per-member oracle, lockstep trainer}

— and asserts that each produces **bitwise identical** trained weights,
session QoE, and uncertainty-signal streams as the reference engine
(per-member: the oracles of ``tests/pensieve_oracles.py``, one A2C loop
and one value regression per seed).  The lockstep side is
:class:`A2CTrainer` and :func:`train_value_ensemble`.  Sessions run
in-process, as in production; pool-size equality of the full experiment
matrix is gated by ``test_parallel_determinism.py``.  This is the single
place the repository's "optimizations never change results" contract is
enforced end-to-end for training.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.abr.session import ABRSessionFactory, run_monitored_session, run_session
from repro.abr.suite import collect_training_throughputs
from repro.core.ensemble_signals import PolicyEnsembleSignal, ValueEnsembleSignal
from repro.core.monitor import SafetyMonitor
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.runner import MonitoredScheme
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.novelty.ocsvm import OneClassSVM
from repro.pensieve.ensemble import train_value_ensemble
from repro.pensieve.training import A2CTrainer, TrainingConfig
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.random_policy import RandomPolicy
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest
from tests import pensieve_oracles

SEEDS = (0, 1, 2)

# "per-member" is the oracle side, "lockstep" the production trainers.
ENGINES = ["per-member", "lockstep"]
REFERENCE = "per-member"


@pytest.fixture(scope="module")
def manifest():
    return envivio_dash3_manifest(repeats=1)


@pytest.fixture(scope="module")
def split():
    return make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).split()


@pytest.fixture(scope="module")
def config():
    return TrainingConfig(epochs=2, gamma=0.9, n_step=4, filters=4, hidden=12)


def _train_agents(engine: str, manifest, traces, config):
    if engine == "lockstep":
        return A2CTrainer(manifest, traces, SEEDS, config=config).train()
    return pensieve_oracles.train_agents(manifest, traces, config, SEEDS)


def _train_values(engine: str, agent, manifest, traces):
    """Three value functions for *agent*: the stacked regression, or the
    per-member oracle regression with the same (default) settings."""
    kwargs = dict(size=3, epochs=3, filters=4, hidden=12)
    if engine == "lockstep":
        return train_value_ensemble(agent, manifest, traces, **kwargs)
    return pensieve_oracles.train_values(agent, manifest, traces, **kwargs)


def _weights(networks) -> list[np.ndarray]:
    return [param.copy() for net in networks for param in net.params]


def _scheme(agents, manifest, allow_revert: bool):
    return MonitoredScheme(
        name="A-ensemble",
        learned=agents[0],
        default=BufferBasedPolicy(manifest.bitrates_kbps),
        signal=PolicyEnsembleSignal(agents, trim=1),
        trigger=VarianceTrigger(alpha=1e-4, k=3, l=1),
        factory=ABRSessionFactory(manifest),
        allow_revert=allow_revert,
    )


def _session_qoe(agents, manifest, test_traces):
    """Mean-free per-(policy, trace) outcomes: the sticky safety scheme
    and the bare agent on every test trace."""
    policies = {
        "safe": _scheme(agents, manifest, allow_revert=False),
        "agent": agents[0],
    }
    outcomes = []
    for policy_key in sorted(policies):
        for trace in test_traces:
            result = run_session(policies[policy_key], manifest, trace, seed=0)
            outcomes.append((float(result.qoe), float(result.default_fraction)))
    return outcomes


def _signal_log(agents, manifest, trace):
    """Per-decision signal values and actions from an in-process session.

    The signal values come from replaying a fresh monitor over the
    session's observations, the way ``explain_default`` rebuilds a
    hand-off.  Uses ``allow_revert=True`` so the signal is measured on
    *every* step (the sticky monitor deliberately stops measuring after
    its hand-off).
    """
    scheme = _scheme(agents, manifest, allow_revert=True)
    result = run_session(scheme, manifest, trace, seed=0)
    monitor = scheme.monitor()
    monitor.reset()
    replayed = [monitor.observe(obs) for obs in result.observation_list]
    assert [d.defaulted for d in replayed] == [c.defaulted for c in result.chunks]
    return (
        [decision.signal_value for decision in replayed],
        [chunk.bitrate_index for chunk in result.chunks],
    )


def _run_engine(engine, manifest, split, config):
    agents = _train_agents(engine, manifest, split.train, config)
    value_functions = _train_values(engine, agents[0], manifest, split.train)
    return {
        "agent_weights": _weights(
            [net for agent in agents for net in (agent.actor, agent.critic)]
        ),
        "value_weights": _weights([vf.critic for vf in value_functions]),
        "qoe": _session_qoe(agents, manifest, split.test),
        "signals": _signal_log(agents, manifest, split.test[0]),
    }


@pytest.fixture(scope="module")
def reference(manifest, split, config):
    return _run_engine(REFERENCE, manifest, split, config)


@pytest.fixture(scope="module")
def agents(manifest, split, config):
    return _train_agents("lockstep", manifest, split.train, config)


@pytest.fixture(scope="module")
def value_functions(agents, manifest, split):
    return train_value_ensemble(
        agents[0], manifest, split.train, size=3, epochs=3, filters=4, hidden=12
    )


@pytest.fixture(scope="module")
def nd_detector(agents, manifest, split):
    throughputs = collect_training_throughputs(agents[0], manifest, split.train)
    samples = throughput_window_samples(throughputs, k=3, throughput_window=5)
    return OneClassSVM(nu=0.2).fit(samples)


@pytest.fixture(scope="module")
def second_split():
    return make_dataset("exponential", num_traces=4, duration_s=120.0, seed=0).split()


def _scheme_parts(scheme, agents, value_functions, nd_detector, manifest):
    """Fresh (signal, trigger) instances for one safety scheme."""
    if scheme == "ND":
        signal = StateNoveltySignal(
            nd_detector, manifest.bitrates_kbps, k=3, throughput_window=5
        )
        return signal, ConsecutiveTrigger(l=2)
    if scheme == "A-ensemble":
        signal = PolicyEnsembleSignal(agents, trim=1)
    else:
        signal = ValueEnsembleSignal(value_functions, trim=1)
    return signal, VarianceTrigger(alpha=1e-4, k=3, l=1)


def _session_fingerprint(result):
    return (
        result.trace_name,
        tuple(
            (
                chunk.chunk_index,
                chunk.bitrate_index,
                chunk.bitrate_mbps,
                chunk.rebuffer_s,
                chunk.download_time_s,
                chunk.throughput_mbps,
                chunk.buffer_s,
                chunk.reward,
                chunk.defaulted,
            )
            for chunk in result.chunks
        ),
        result.observations.tobytes(),
    )


class TestMonitorPathEquivalence:
    """A scheme run as a policy vs. the explicit monitor loop.

    ``run_session(MonitoredScheme(...))`` (the policy form every
    experiment's policy dict uses) and ``run_monitored_session(learned,
    default, SafetyMonitor(...))`` (the step-stream form the serve engine
    builds on) must produce bitwise-identical sessions, for all three
    schemes, on in-distribution *and* shifted test traces.
    """

    @pytest.mark.parametrize("scheme", ["ND", "A-ensemble", "V-ensemble"])
    @pytest.mark.parametrize("test_split", ["split", "second_split"])
    def test_controller_loop_matches_monitor_loop(
        self, scheme, test_split, request, agents, value_functions, nd_detector, manifest
    ):
        traces = request.getfixturevalue(test_split).test
        default = BufferBasedPolicy(manifest.bitrates_kbps)
        for trace in traces:
            signal, trigger = _scheme_parts(
                scheme, agents, value_functions, nd_detector, manifest
            )
            legacy = run_session(
                MonitoredScheme(
                    name=scheme,
                    learned=agents[0],
                    default=default,
                    signal=signal,
                    trigger=trigger,
                    factory=ABRSessionFactory(manifest),
                ),
                manifest,
                trace,
                seed=0,
            )
            signal, trigger = _scheme_parts(
                scheme, agents, value_functions, nd_detector, manifest
            )
            monitor = SafetyMonitor(signal, trigger, name=scheme)
            monitored = run_monitored_session(
                agents[0], default, monitor, manifest, trace, seed=0
            )
            assert _session_fingerprint(monitored) == _session_fingerprint(legacy)
            assert monitor.default_fraction == legacy.default_fraction


def _golden_fingerprint(result) -> str:
    """sha256 over every chunk record's fields and the observation stack."""
    digest = hashlib.sha256()
    for chunk in result.chunks:
        digest.update(repr(dataclasses.astuple(chunk)).encode())
    digest.update(result.observations.tobytes())
    return digest.hexdigest()


class TestGoldenSessions:
    """ABR session trajectories pinned as sha256 fingerprints.

    The constants were computed when :mod:`repro.abr.session` still ran
    its own copy of the session loop, so they pin the one remaining loop
    (:mod:`repro.core.runner`) to the trajectories the ABR loop produced:
    the demo ``U_pi`` scheme through both entry points, a plain
    deterministic policy (whose ``defaulted`` flag comes from the
    environment), and a random policy drawing from one ``Generator``
    shared across sessions (the value-target collection seed stream).
    """

    DEMO = {
        "gamma_1_2-003": "bc07ec771d7ce52bf7510aa16c0cf877c0b1c511671665880f83c797bd084697",
        "exponential-003": "97a4c775b57338c71e9a1425860681ed4c3c30fabb4ab22745397245f364ee65",
    }
    BUFFER_BASED = {
        "gamma_1_2-003": "c2b8d987a8ab363f3575f9ddef356ba97bf92b074f3da1a99f64a0bc796cb938",
        "exponential-003": "b0185864071e04fceb5b575b056a34e96836030d420b3c314c19d0c41f29e215",
    }
    RANDOM_SHARED_RNG = {
        "gamma_1_2-003": "3dbe05fbb6dcd98419e82307edb7970511be96a9c972ece41715759e57915c56",
        "exponential-003": "21bb0fbfba1b443830dd044e15cac6553ca76f68e8a0edb05b7453f5fdf1d8ae",
    }

    @pytest.fixture()
    def traces(self, split, second_split):
        return [split.test[0], second_split.test[0]]

    def test_demo_scheme_through_both_entry_points(self, manifest, traces):
        from repro.domains import SessionSpec, get_domain
        from repro.domains import run_monitored_session as run_runner

        scheme = get_domain("abr").demo_scheme()
        for trace in traces:
            abr = run_monitored_session(
                scheme.learned, scheme.default, scheme.monitor(), manifest, trace
            )
            runner = run_runner(
                scheme.factory,
                SessionSpec(trace=trace, seed=0),
                scheme.learned,
                scheme.default,
                scheme.monitor(),
            )
            assert 0.0 < abr.default_fraction < 1.0
            assert _golden_fingerprint(abr) == self.DEMO[trace.name]
            assert _golden_fingerprint(runner) == self.DEMO[trace.name]

    def test_plain_policy_session(self, manifest, traces):
        policy = BufferBasedPolicy(manifest.bitrates_kbps)
        for trace in traces:
            result = run_session(policy, manifest, trace, seed=0)
            assert _golden_fingerprint(result) == self.BUFFER_BASED[trace.name]

    def test_shared_generator_seed_stream(self, manifest, traces):
        policy = RandomPolicy(manifest.bitrates_kbps)
        rng = np.random.default_rng(7)
        for trace in traces:
            result = run_session(policy, manifest, trace, seed=rng)
            assert (
                _golden_fingerprint(result) == self.RANDOM_SHARED_RNG[trace.name]
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_execution_mode_equivalence(engine, manifest, split, config, reference):
    outcome = _run_engine(engine, manifest, split, config)

    assert len(outcome["agent_weights"]) == len(reference["agent_weights"])
    assert len(outcome["value_weights"]) == len(reference["value_weights"])
    for ours, theirs in zip(outcome["agent_weights"], reference["agent_weights"]):
        assert np.array_equal(ours, theirs)
    for ours, theirs in zip(outcome["value_weights"], reference["value_weights"]):
        assert np.array_equal(ours, theirs)
    # Session outcomes: exact float equality, not approximate.
    assert outcome["qoe"] == reference["qoe"]
    assert outcome["signals"] == reference["signals"]
