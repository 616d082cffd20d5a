"""Tests for repro.serve: the multi-session serving engine.

The load-bearing property is *exactness*: a session served by the engine
— interleaved with others, its signal measured through the batched path —
must be chunk-for-chunk identical to the same spec run alone through
:func:`repro.abr.session.run_monitored_session`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.session import run_monitored_session
from repro.core.ensemble_signals import PolicyEnsembleSignal, ValueEnsembleSignal
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.domains import MonitoredScheme, get_domain
from repro.errors import SafetyError
from repro.novelty.ocsvm import OneClassSVM
from repro.policies.buffer_based import BufferBasedPolicy
from repro.serve import ServeEngine, SessionSpec
from repro.traces.dataset import make_dataset


class _ObsPolicy:
    """Deterministic stateless policy varying with the observation."""

    def __init__(self, seed: int, num_actions: int) -> None:
        self._weights = np.random.default_rng(seed).normal(
            size=(num_actions, 48)
        )

    def reset(self) -> None:
        pass

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        logits = self._weights @ np.asarray(observation, dtype=float).reshape(-1)
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        return int(np.argmax(self.action_probabilities(observation)))


class _ObsValue:
    def __init__(self, seed: int) -> None:
        self._weights = np.random.default_rng(seed).normal(size=48)

    def value(self, observation: np.ndarray) -> float:
        return float(
            self._weights @ np.asarray(observation, dtype=float).reshape(-1)
        )


@pytest.fixture(scope="module")
def traces():
    return make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).traces


@pytest.fixture(scope="module")
def specs(traces):
    return [
        SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"s{index}")
        for index in range(6)
    ]


def _engine(manifest, scheme: str, **kwargs) -> ServeEngine:
    num_actions = len(manifest.bitrates_kbps)
    learned = _ObsPolicy(1, num_actions)
    default = BufferBasedPolicy(manifest.bitrates_kbps)
    if scheme == "U_S":
        rng = np.random.default_rng(0)
        series = [rng.normal(3.0, 0.3, size=80) for _ in range(3)]
        samples = throughput_window_samples(series, k=3, throughput_window=5)
        signal = StateNoveltySignal(
            OneClassSVM(nu=0.2).fit(samples),
            manifest.bitrates_kbps,
            k=3,
            throughput_window=5,
        )
        trigger = ConsecutiveTrigger(l=2)
    else:
        if scheme == "U_pi":
            signal = PolicyEnsembleSignal(
                [_ObsPolicy(10 + index, num_actions) for index in range(4)],
                trim=1,
            )
        else:
            signal = ValueEnsembleSignal(
                [_ObsValue(20 + index) for index in range(4)], trim=1
            )
        trigger = VarianceTrigger(alpha=1e-4, k=3, l=1)
    return ServeEngine(
        factory=get_domain("abr").session_factory(manifest=manifest),
        learned=learned,
        default=default,
        signal=signal,
        trigger=trigger,
        name=scheme,
        **kwargs,
    )


def _fingerprint(result) -> tuple:
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


def _serial_reference(engine, specs):
    monitor = engine.spawn_monitor()
    return [
        run_monitored_session(
            engine.learned,
            engine.default,
            monitor,
            engine.factory.manifest,
            spec.trace,
            seed=spec.seed,
            policy_name=spec.name,
        )
        for spec in specs
    ]


SCHEMES = ("U_S", "U_pi", "U_V")


class TestEngineExactness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batched_engine_matches_serial_loop(self, manifest, specs, scheme):
        engine = _engine(manifest, scheme)
        reference = [_fingerprint(r) for r in _serial_reference(engine, specs)]
        served = [_fingerprint(r) for r in engine.run(specs)]
        assert served == reference

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_single_slot_matches_serial_loop(self, manifest, specs, scheme):
        # One slot: every wave is a lone row, measured with the scalar
        # ``measure`` exactly as the serial loop measures it.
        engine = _engine(manifest, scheme, max_slots=1)
        reference = [_fingerprint(r) for r in _serial_reference(engine, specs)]
        served = [_fingerprint(r) for r in engine.run(specs)]
        assert served == reference

    def test_result_order_follows_spec_order(self, manifest, specs):
        engine = _engine(manifest, "U_V")
        results = engine.run(specs)
        assert [r.policy_name for r in results] == [s.name for s in specs]


class _PoisonedEnv:
    """An env whose first observation carries a NaN throughput sample."""

    def __init__(self, env) -> None:
        self._env = env

    def reset(self):
        observation = self._env.reset().copy()
        observation[1, -1] = np.nan
        return observation

    def step(self, action):
        return self._env.step(action)


class _PoisonedFactory:
    def __init__(self, factory) -> None:
        self._factory = factory

    def __getattr__(self, name):
        return getattr(self._factory, name)

    def new_env(self, spec):
        return _PoisonedEnv(self._factory.new_env(spec))


class TestEngineContract:
    def test_learned_equals_default_rejected(self, manifest):
        policy = BufferBasedPolicy(manifest.bitrates_kbps)
        with pytest.raises(SafetyError, match="distinct"):
            ServeEngine(
                factory=get_domain("abr").session_factory(manifest=manifest),
                learned=policy,
                default=policy,
                signal=PolicyEnsembleSignal(
                    [
                        _ObsPolicy(seed, len(manifest.bitrates_kbps))
                        for seed in (1, 2)
                    ],
                    trim=0,
                ),
                trigger=VarianceTrigger(alpha=1.0, k=3, l=1),
            )

    def test_empty_specs(self, manifest):
        assert _engine(manifest, "U_pi").run([]) == []

    def test_run_inprocess_is_run(self):
        # perfbench serves through the old name.
        assert ServeEngine.run_inprocess is ServeEngine.run

    def test_stateful_signal_copied_per_session(self, manifest):
        engine = _engine(manifest, "U_S")
        first, second = engine.spawn_monitor(), engine.spawn_monitor()
        assert first.signal is not second.signal
        assert first.signal is not engine.signal

    def test_stateless_signal_shared(self, manifest):
        engine = _engine(manifest, "U_pi")
        assert engine.spawn_monitor().signal is engine.signal

    def test_from_scheme_serves_scheme(self, manifest, specs):
        engine = _engine(manifest, "U_pi")
        scheme = MonitoredScheme(
            name="U_pi",
            learned=engine.learned,
            default=engine.default,
            signal=engine.signal,
            trigger=engine.trigger,
            factory=engine.factory,
        )
        direct = [_fingerprint(r) for r in engine.run(specs)]
        via_scheme = [
            _fingerprint(r) for r in ServeEngine.from_scheme(scheme).run(specs)
        ]
        assert via_scheme == direct

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("scheme", ["U_pi", "U_V"])
    def test_non_finite_observation_fails_loudly(self, manifest, specs, scheme, count):
        # One session measures with the scalar ``measure``, several with
        # ``measure_batch``; both reject the observation itself.
        engine = _engine(manifest, scheme)
        engine.factory = _PoisonedFactory(engine.factory)
        with pytest.raises(SafetyError, match="non-finite observation"):
            engine.run(specs[:count])
