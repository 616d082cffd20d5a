"""Tests for repro.core.novelty_signal: the U_S state-uncertainty signal."""

import warnings

import numpy as np
import pytest

from repro.abr.state import StateBuilder
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.errors import SafetyError
from repro.novelty.ocsvm import OneClassSVM

BITRATES = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])


def observation_stream(throughputs):
    """Feed a throughput sequence through the observation format."""
    builder = StateBuilder(BITRATES, num_chunks=len(throughputs) + 1)
    builder.reset()
    observations = []
    for index, throughput in enumerate(throughputs):
        observations.append(
            builder.push(
                bitrate_index=0,
                buffer_s=10.0,
                throughput_mbps=float(throughput),
                download_time_s=1.0,
                next_chunk_sizes_bytes=BITRATES * 500,
                chunks_remaining=len(throughputs) - index,
            )
        )
    return observations


def fitted_signal(k=3, window=5, nu=0.1, train_mean=3.0, seed=0):
    rng = np.random.default_rng(seed)
    series = [rng.normal(train_mean, 0.3, size=120) for _ in range(4)]
    samples = throughput_window_samples(series, k=k, throughput_window=window)
    detector = OneClassSVM(nu=nu).fit(samples)
    return StateNoveltySignal(detector, BITRATES, k=k, throughput_window=window)


class TestThroughputWindowSamples:
    def test_sample_dimension_is_2k(self):
        series = [np.linspace(1, 5, 60)]
        samples = throughput_window_samples(series, k=4, throughput_window=10)
        assert samples.shape[1] == 8

    def test_sample_count(self):
        series = [np.ones(20)]
        samples = throughput_window_samples(series, k=5, throughput_window=10)
        # Full windows start at t=9: 11 pairs, k=5 consecutive: 7 samples.
        assert samples.shape[0] == 7

    def test_subsampling_bound(self):
        series = [np.ones(200)]
        samples = throughput_window_samples(
            series, k=3, throughput_window=5, max_samples=25
        )
        assert samples.shape[0] == 25

    def test_too_short_sessions_rejected(self):
        with pytest.raises(SafetyError):
            throughput_window_samples([np.ones(2)], k=10)

    def test_bad_parameters_rejected(self):
        with pytest.raises(SafetyError):
            throughput_window_samples([np.ones(30)], k=0)
        with pytest.raises(SafetyError):
            throughput_window_samples([np.ones(30)], k=3, throughput_window=0)


class TestStateNoveltySignal:
    def test_binary_flag(self):
        assert StateNoveltySignal.binary is True

    def test_warmup_emits_zero(self):
        signal = fitted_signal(k=3)
        observations = observation_stream([3.0, 3.0])
        assert signal.measure(observations[0]) == 0.0
        assert signal.measure(observations[1]) == 0.0

    def test_in_distribution_mostly_quiet(self):
        signal = fitted_signal(k=3, train_mean=3.0)
        rng = np.random.default_rng(1)
        observations = observation_stream(rng.normal(3.0, 0.3, size=60))
        flags = [signal.measure(obs) for obs in observations]
        assert np.mean(flags) < 0.3

    def test_shifted_distribution_fires(self):
        signal = fitted_signal(k=3, train_mean=3.0)
        rng = np.random.default_rng(2)
        observations = observation_stream(rng.normal(30.0, 3.0, size=60))
        flags = [signal.measure(obs) for obs in observations]
        # After warm-up, the shifted throughput must be flagged.
        assert np.mean(flags[10:]) > 0.9

    def test_reset_restores_warmup(self):
        signal = fitted_signal(k=3)
        for obs in observation_stream([30.0] * 20):
            signal.measure(obs)
        signal.reset()
        fresh = observation_stream([30.0])[0]
        assert signal.measure(fresh) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_throughput_raises_before_touching_windows(self, value):
        signal = fitted_signal(k=3)
        observations = observation_stream([3.0] * 8)
        for obs in observations[:-1]:
            signal.measure(obs)
        before = signal.state_dict()
        poisoned = observations[-1].copy()
        poisoned[2, -1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SafetyError, match="non-finite throughput"):
                signal.measure(poisoned)
        assert signal.state_dict() == before

    def test_bad_parameters_rejected(self):
        detector = OneClassSVM(nu=0.5)
        with pytest.raises(SafetyError):
            StateNoveltySignal(detector, BITRATES, k=0)
        with pytest.raises(SafetyError):
            StateNoveltySignal(detector, BITRATES, k=3, throughput_window=0)
