"""Integration tests: the OSAP loop end-to-end, in two environments.

1. GridWorld — exact, adjustable distribution shift: the U_S signal must
   fire under a shift and stay quiet without one.
2. ABR — a learned-policy stand-in that is great in-distribution and
   catastrophic out-of-distribution: the ND safety net must rescue it.

These tests use the real components (OC-SVM, signals, triggers,
controllers, simulator) with no mocks.
"""

import numpy as np
import pytest

from repro.abr.session import ABRSessionFactory, run_session
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.runner import MonitoredScheme
from repro.core.thresholding import ConsecutiveTrigger
from repro.mdp.gridworld import GridWorld, make_shifted_gridworld
from repro.novelty.ocsvm import OneClassSVM
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.constant import ConstantPolicy
from repro.traces.trace import Trace
from repro.video.envivio import envivio_dash3_manifest


class TestGridWorldOSAP:
    """Novelty detection on GridWorld observations under controlled shift."""

    def _collect_observations(self, env, episodes=30, seed=0):
        rng = np.random.default_rng(seed)
        observations = []
        for _ in range(episodes):
            obs = env.reset()
            done = False
            while not done:
                observations.append(obs)
                result = env.step(int(rng.integers(env.num_actions)))
                obs = result.observation
                done = result.done
        return np.asarray(observations)

    @pytest.fixture(scope="class")
    def detector(self):
        train_env = GridWorld(size=4, slip=0.1, observation_noise=0.02, seed=0)
        train_obs = self._collect_observations(train_env)
        return OneClassSVM(nu=0.05).fit(train_obs)

    def test_no_shift_stays_quiet(self, detector):
        fresh_env = GridWorld(size=4, slip=0.1, observation_noise=0.02, seed=99)
        fresh_obs = self._collect_observations(fresh_env, episodes=10, seed=1)
        outlier_rate = float((detector.predict(fresh_obs) == -1).mean())
        assert outlier_rate < 0.15

    def test_observation_shift_fires(self, detector):
        base = GridWorld(size=4, slip=0.1, observation_noise=0.02, seed=0)
        shifted_env = make_shifted_gridworld(base, observation_bias=1.5, seed=7)
        shifted_obs = self._collect_observations(shifted_env, episodes=10, seed=2)
        outlier_rate = float((detector.predict(shifted_obs) == -1).mean())
        assert outlier_rate > 0.9


class TestABRSafetyNetEndToEnd:
    """ND-enhanced control must rescue a policy that is only safe
    in-distribution."""

    @pytest.fixture(scope="class")
    def setup(self):
        manifest = envivio_dash3_manifest(repeats=1)
        rng = np.random.default_rng(0)
        train_traces = [
            Trace.from_bandwidths(
                np.maximum(rng.normal(6.0, 0.5, size=300), 0.1), name=f"train{i}"
            )
            for i in range(4)
        ]
        # "Learned" policy: always max — excellent at 6 Mbit/s, terrible
        # on a slow link.  This isolates the safety machinery from RL.
        learned = ConstantPolicy(manifest.bitrates_kbps, bitrate_index=5)
        default = BufferBasedPolicy(manifest.bitrates_kbps)
        throughputs = []
        for trace in train_traces:
            session = run_session(learned, manifest, trace, seed=0)
            throughputs.append(
                np.array([c.throughput_mbps for c in session.chunks])
            )
        k = 5
        samples = throughput_window_samples(throughputs, k=k, throughput_window=10)
        detector = OneClassSVM(nu=0.05).fit(samples)
        signal = StateNoveltySignal(
            detector, manifest.bitrates_kbps, k=k, throughput_window=10
        )
        controller = MonitoredScheme(
            name="ND",
            learned=learned,
            default=default,
            signal=signal,
            trigger=ConsecutiveTrigger(l=3),
            factory=ABRSessionFactory(manifest),
        )
        return manifest, learned, default, controller

    def test_in_distribution_mostly_learned(self, setup):
        manifest, learned, _, controller = setup
        rng = np.random.default_rng(5)
        trace = Trace.from_bandwidths(
            np.maximum(rng.normal(6.0, 0.5, size=300), 0.1), name="fresh"
        )
        result = run_session(controller, manifest, trace, seed=0)
        assert result.default_fraction < 0.5
        learned_result = run_session(learned, manifest, trace, seed=0)
        assert result.qoe >= learned_result.qoe * 0.8 - 10.0

    def test_out_of_distribution_defaults_and_rescues(self, setup):
        manifest, learned, default, controller = setup
        slow = Trace.from_bandwidths([0.8] * 1500, name="slow")
        controlled = run_session(controller, manifest, slow, seed=0)
        vanilla = run_session(learned, manifest, slow, seed=0)
        bb = run_session(default, manifest, slow, seed=0)
        assert controlled.default_fraction > 0.5
        assert controlled.qoe > vanilla.qoe
        # The rescue should recover most of the gap to pure BB.
        assert controlled.qoe > vanilla.qoe + 0.5 * (bb.qoe - vanilla.qoe)
