"""Tests for the extension policy: predictor-driven MPC."""

import numpy as np
import pytest

from repro.abr.session import run_session
from repro.abr.state import StateBuilder
from repro.errors import ConfigError
from repro.policies.predictive import PredictiveMPCPolicy
from repro.predictors.classic import HarmonicMeanPredictor, LastSamplePredictor

BITRATES = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])


def observation_with(buffer_s=0.0, throughputs=(), last_bitrate=0):
    builder = StateBuilder(BITRATES, num_chunks=48)
    builder.reset()
    obs = builder.reset()
    for throughput in list(throughputs) or [1.0]:
        obs = builder.push(
            bitrate_index=last_bitrate,
            buffer_s=buffer_s,
            throughput_mbps=throughput,
            download_time_s=1.0,
            next_chunk_sizes_bytes=BITRATES * 500,
            chunks_remaining=24,
        )
    return obs


class TestPredictiveMPC:
    def test_rich_prediction_picks_high_rung(self):
        policy = PredictiveMPCPolicy(
            BITRATES, LastSamplePredictor(), horizon=3
        )
        obs = observation_with(buffer_s=20.0, throughputs=[20.0], last_bitrate=5)
        assert policy.select(obs) >= 4

    def test_lean_prediction_picks_low_rung(self):
        policy = PredictiveMPCPolicy(
            BITRATES, LastSamplePredictor(), horizon=3
        )
        obs = observation_with(buffer_s=1.0, throughputs=[0.3], last_bitrate=0)
        assert policy.select(obs) == 0

    def test_predictor_fed_once_per_observation(self):
        class CountingPredictor(LastSamplePredictor):
            def __init__(self):
                super().__init__()
                self.updates = 0

            def update(self, throughput_mbps):
                self.updates += 1
                super().update(throughput_mbps)

        predictor = CountingPredictor()
        policy = PredictiveMPCPolicy(BITRATES, predictor, horizon=1)
        obs = observation_with(buffer_s=5.0, throughputs=[3.0])
        policy.select(obs)
        policy.select(obs)  # same observation twice: one update only
        assert predictor.updates == 1

    def test_reset_resets_predictor(self):
        predictor = HarmonicMeanPredictor()
        policy = PredictiveMPCPolicy(BITRATES, predictor, horizon=1)
        policy.select(observation_with(buffer_s=5.0, throughputs=[3.0]))
        policy.reset()
        assert predictor.predict() == predictor.cold_start_mbps

    def test_streams_whole_video(self, manifest, bursty_trace):
        policy = PredictiveMPCPolicy(
            manifest.bitrates_kbps,
            HarmonicMeanPredictor(),
            chunk_duration_s=manifest.chunk_duration_s,
            horizon=2,
        )
        result = run_session(policy, manifest, bursty_trace)
        assert len(result) == manifest.num_chunks - 1
        assert result.qoe > -1000  # sane behaviour on a feasible link

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            PredictiveMPCPolicy(BITRATES, LastSamplePredictor(), horizon=0)
        with pytest.raises(ConfigError):
            PredictiveMPCPolicy(
                BITRATES, LastSamplePredictor(), chunk_duration_s=0.0
            )
        with pytest.raises(ConfigError):
            PredictiveMPCPolicy(
                BITRATES, LastSamplePredictor(), safety_factor=0.0
            )
