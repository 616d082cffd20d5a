"""Tests for repro.policies: BB, Random, Rate-Based, MPC, Constant."""

import numpy as np
import pytest

from repro.abr.state import StateBuilder
from repro.errors import ConfigError
from repro.policies import (
    BufferBasedPolicy,
    ConstantPolicy,
    RandomPolicy,
    RateBasedPolicy,
    RobustMPCPolicy,
)

BITRATES = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])


def observation_with(buffer_s=0.0, throughputs=(), last_bitrate=0, remaining=24):
    builder = StateBuilder(BITRATES, num_chunks=48)
    builder.reset()
    history = list(throughputs) or [1.0]
    for throughput in history:
        obs = builder.push(
            bitrate_index=last_bitrate,
            buffer_s=buffer_s,
            throughput_mbps=throughput,
            download_time_s=1.0,
            next_chunk_sizes_bytes=BITRATES * 1000 * 4 / 8,
            chunks_remaining=remaining,
        )
    return obs


class TestBufferBased:
    def test_low_buffer_picks_lowest(self):
        policy = BufferBasedPolicy(BITRATES)
        assert policy.select(observation_with(buffer_s=2.0)) == 0

    def test_high_buffer_picks_highest(self):
        policy = BufferBasedPolicy(BITRATES)
        assert policy.select(observation_with(buffer_s=30.0)) == len(BITRATES) - 1

    def test_ramp_is_monotone_in_buffer(self):
        policy = BufferBasedPolicy(BITRATES)
        selections = [
            policy.select(observation_with(buffer_s=b))
            for b in np.linspace(0.0, 20.0, 41)
        ]
        assert selections == sorted(selections)

    def test_ignores_throughput(self):
        policy = BufferBasedPolicy(BITRATES)
        slow = observation_with(buffer_s=12.0, throughputs=[0.1])
        fast = observation_with(buffer_s=12.0, throughputs=[50.0])
        assert policy.select(slow) == policy.select(fast)

    @pytest.mark.parametrize(
        "buffer_s, rung",
        [
            (float("nan"), 0),
            (float("inf"), len(BITRATES) - 1),
            (float("-inf"), 0),
            (-3.0, 0),
            (-0.0, 0),
        ],
    )
    def test_non_finite_and_negative_buffers(self, buffer_s, rung):
        # A right bisect places NaN after every rung; the ramp must not
        # read it as "top rung".
        observation = observation_with(buffer_s=5.0)
        observation[1, -1] = buffer_s / 10.0
        assert BufferBasedPolicy(BITRATES).select(observation) == rung

    def test_bisect_matches_flatnonzero_rule_at_rung_edges(self):
        def flatnonzero_rule(policy, observation):
            buffer_s = policy.view(observation).buffer_s
            if buffer_s < policy.reservoir_s:
                return 0
            if buffer_s >= policy.reservoir_s + policy.cushion_s:
                return policy.num_actions - 1
            fraction = (buffer_s - policy.reservoir_s) / policy.cushion_s
            rates = policy.bitrates_kbps
            target = rates[0] + fraction * (rates[-1] - rates[0])
            eligible = np.flatnonzero(rates <= target)
            return int(eligible[-1]) if eligible.size else 0

        for policy in (
            BufferBasedPolicy(BITRATES),
            BufferBasedPolicy(BITRATES, reservoir_s=3.3, cushion_s=7.1),
        ):
            checked = 0
            for rate in BITRATES:
                exact = policy.reservoir_s + policy.cushion_s * (
                    (rate - BITRATES[0]) / (BITRATES[-1] - BITRATES[0])
                )
                cell = exact / 10.0
                below = above = cell
                cells = [cell]
                for _ in range(3):
                    below = np.nextafter(below, -np.inf)
                    above = np.nextafter(above, np.inf)
                    cells += [below, above]
                for value in cells:
                    observation = observation_with(buffer_s=5.0)
                    observation[1, -1] = value
                    assert policy.select(observation) == flatnonzero_rule(
                        policy, observation
                    )
                    checked += 1
            assert checked == 7 * len(BITRATES)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            BufferBasedPolicy(BITRATES, reservoir_s=0.0)
        with pytest.raises(ConfigError):
            BufferBasedPolicy(BITRATES, cushion_s=-1.0)


class TestRandom:
    def test_uniform_distribution(self):
        policy = RandomPolicy(BITRATES)
        probs = policy.action_probabilities(observation_with())
        assert np.allclose(probs, 1.0 / len(BITRATES))

    def test_act_covers_action_set(self):
        policy = RandomPolicy(BITRATES)
        rng = np.random.default_rng(0)
        actions = {policy.act(observation_with(), rng) for _ in range(200)}
        assert actions == set(range(len(BITRATES)))


class TestRateBased:
    def test_harmonic_mean_prediction(self):
        policy = RateBasedPolicy(BITRATES, history_chunks=3)
        obs = observation_with(throughputs=[2.0, 4.0, 4.0])
        expected = 3.0 / (1 / 2.0 + 1 / 4.0 + 1 / 4.0)
        assert policy.predict_throughput_mbps(obs) == pytest.approx(expected)

    def test_picks_highest_fitting_rung(self):
        policy = RateBasedPolicy(BITRATES, safety_factor=1.0)
        # 2 Mbit/s estimate: the highest rung <= 2000 kbit/s is 1850.
        obs = observation_with(throughputs=[2.0] * 5)
        assert policy.select(obs) == 3

    def test_no_history_picks_lowest(self):
        policy = RateBasedPolicy(BITRATES)
        builder = StateBuilder(BITRATES, num_chunks=48)
        assert policy.select(builder.reset()) == 0

    def test_safety_factor_effect(self):
        conservative = RateBasedPolicy(BITRATES, safety_factor=0.5)
        aggressive = RateBasedPolicy(BITRATES, safety_factor=1.0)
        obs = observation_with(throughputs=[2.0] * 5)
        assert conservative.select(obs) < aggressive.select(obs)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            RateBasedPolicy(BITRATES, safety_factor=0.0)
        with pytest.raises(ConfigError):
            RateBasedPolicy(BITRATES, history_chunks=0)


class TestRobustMPC:
    def test_no_history_picks_lowest(self):
        policy = RobustMPCPolicy(BITRATES)
        builder = StateBuilder(BITRATES, num_chunks=48)
        assert policy.select(builder.reset()) == 0

    def test_rich_link_picks_high_rung(self):
        policy = RobustMPCPolicy(BITRATES, horizon=3)
        obs = observation_with(
            buffer_s=20.0, throughputs=[20.0] * 5, last_bitrate=5
        )
        assert policy.select(obs) >= 4

    def test_starved_link_picks_low_rung(self):
        policy = RobustMPCPolicy(BITRATES, horizon=3)
        obs = observation_with(buffer_s=2.0, throughputs=[0.4] * 5, last_bitrate=0)
        assert policy.select(obs) == 0

    def test_reset_clears_error_state(self):
        policy = RobustMPCPolicy(BITRATES)
        policy.select(observation_with(throughputs=[5.0] * 5))
        policy._max_error = 10.0
        policy.reset()
        assert policy._max_error == 0.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            RobustMPCPolicy(BITRATES, horizon=0)
        with pytest.raises(ConfigError):
            RobustMPCPolicy(BITRATES, chunk_duration_s=0.0)


class TestConstant:
    def test_always_same_action(self):
        policy = ConstantPolicy(BITRATES, bitrate_index=2)
        rng = np.random.default_rng(0)
        assert all(
            policy.act(observation_with(), rng) == 2 for _ in range(10)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ConstantPolicy(BITRATES, bitrate_index=6)


class TestSharedValidation:
    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError):
            RandomPolicy(np.array([300.0]))

    def test_unsorted_ladder_rejected(self):
        with pytest.raises(ConfigError):
            BufferBasedPolicy(np.array([750.0, 300.0]))

    def test_one_hot_probabilities(self):
        policy = ConstantPolicy(BITRATES, bitrate_index=1)
        probs = policy.action_probabilities(observation_with())
        assert probs[1] == 1.0
        assert probs.sum() == 1.0
