"""Tests for repro.abr.env: the chunk-level streaming simulator."""

import numpy as np
import pytest

from repro.abr.env import ABREnv
from repro.errors import ConfigError, SimulationError
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import LinearQoE, LogQoE, QoEMetric

from tests import abr_oracles


def flat_manifest(chunks=10, chunk_duration=4.0):
    """Constant chunk sizes: rung r is exactly bitrate_r * duration bytes."""
    bitrates = np.array([300.0, 750.0, 1200.0])
    sizes = np.outer(
        np.ones(chunks), bitrates * 1000.0 * chunk_duration / 8.0
    )
    return VideoManifest(
        bitrates_kbps=bitrates,
        chunk_sizes_bytes=sizes,
        chunk_duration_s=chunk_duration,
    )


class TestDownloadTiming:
    def test_constant_rate_download_time(self):
        # 1.2 Mbit/s chunk of 4 s over a 2.4 Mbit/s link: 2 s + RTT.
        manifest = flat_manifest()
        env = ABREnv(manifest, Trace.from_bandwidths([2.4] * 200), rtt_s=0.08)
        env.reset()
        result = env.step(2)
        assert result.info["download_time_s"] == pytest.approx(2.0 + 0.08, rel=1e-6)

    def test_zero_rtt(self):
        manifest = flat_manifest()
        env = ABREnv(manifest, Trace.from_bandwidths([1.2] * 200), rtt_s=0.0)
        env.reset()
        result = env.step(2)
        assert result.info["download_time_s"] == pytest.approx(4.0, rel=1e-6)

    def test_download_spans_rate_change(self):
        # First 4 s at 1.2 Mbit/s, then 2.4: a 1.2 Mbit/s x 4 s chunk
        # started at t=0.0 with no RTT finishes exactly at the boundary.
        manifest = flat_manifest()
        trace = Trace(
            times=np.array([0.0, 4.0, 400.0]),
            bandwidths_mbps=np.array([1.2, 2.4, 2.4]),
        )
        env = ABREnv(manifest, trace, rtt_s=0.0)
        env.reset()  # chunk 0 at rung 0 consumes some link time
        first_time = env.step(2).info["download_time_s"]
        assert first_time > 0
        # Measured throughput must lie between the two rates.
        throughput = env.step(2).info["throughput_mbps"]
        assert 1.2 - 1e-6 <= throughput <= 2.4 + 1e-6


class TestBufferDynamics:
    def test_rebuffer_when_buffer_empty(self):
        manifest = flat_manifest()
        env = ABREnv(manifest, Trace.from_bandwidths([0.3] * 2000), rtt_s=0.0)
        env.reset()
        # Highest rung at 0.3 Mbit/s: 16 s download, 4 s buffered.
        result = env.step(2)
        assert result.info["rebuffer_s"] == pytest.approx(12.0, rel=1e-3)

    def test_no_rebuffer_with_deep_buffer(self):
        manifest = flat_manifest(chunks=20)
        env = ABREnv(manifest, Trace.from_bandwidths([50.0] * 300))
        env.reset()
        total_rebuffer = 0.0
        done = False
        while not done:
            result = env.step(0)
            total_rebuffer += result.info["rebuffer_s"]
            done = result.done
        assert total_rebuffer == 0.0

    def test_buffer_never_negative_and_capped(self):
        manifest = flat_manifest(chunks=30)
        env = ABREnv(
            manifest, Trace.from_bandwidths([100.0] * 300), max_buffer_s=20.0
        )
        env.reset()
        done = False
        while not done:
            result = env.step(0)
            assert 0.0 <= result.info["buffer_s"] <= 20.0 + 1e-9
            done = result.done

    def test_sleep_reported_when_buffer_full(self):
        manifest = flat_manifest(chunks=30)
        env = ABREnv(
            manifest, Trace.from_bandwidths([100.0] * 300), max_buffer_s=12.0
        )
        env.reset()
        sleeps = []
        done = False
        while not done:
            result = env.step(0)
            sleeps.append(result.info["sleep_s"])
            done = result.done
        assert any(s > 0 for s in sleeps)


class TestEpisodeProtocol:
    def test_reset_downloads_first_chunk_at_lowest_rung(self):
        manifest = flat_manifest()
        env = ABREnv(manifest, Trace.from_bandwidths([3.0] * 200))
        observation = env.reset()
        assert env.chunks_downloaded == 1
        # Throughput history has exactly one sample.
        assert np.count_nonzero(observation[2]) == 1

    def test_episode_length(self):
        manifest = flat_manifest(chunks=5)
        env = ABREnv(manifest, Trace.from_bandwidths([10.0] * 200))
        env.reset()
        steps = 0
        done = False
        while not done:
            done = env.step(1).done
            steps += 1
        assert steps == 4  # reset consumed chunk 0

    def test_step_after_done_rejected(self):
        manifest = flat_manifest(chunks=2)
        env = ABREnv(manifest, Trace.from_bandwidths([10.0] * 200))
        env.reset()
        assert env.step(0).done
        with pytest.raises(SimulationError):
            env.step(0)

    def test_invalid_action_rejected(self):
        manifest = flat_manifest()
        env = ABREnv(manifest, Trace.from_bandwidths([10.0] * 200))
        env.reset()
        with pytest.raises(SimulationError):
            env.step(3)

    def test_reward_matches_qoe_metric(self):
        manifest = flat_manifest()
        metric = LinearQoE()
        env = ABREnv(manifest, Trace.from_bandwidths([5.0] * 200), qoe_metric=metric)
        env.reset()
        result = env.step(2)
        expected = metric.chunk_reward(
            bitrate_mbps=1.2,
            rebuffer_s=result.info["rebuffer_s"],
            previous_bitrate_mbps=0.3,
        )
        assert result.reward == pytest.approx(expected)

    def test_trace_wraparound_long_session(self):
        # Video longer than the trace: the trace must wrap seamlessly.
        manifest = flat_manifest(chunks=50)
        env = ABREnv(manifest, Trace.from_bandwidths([1.0, 2.0, 1.5, 0.8]))
        env.reset()
        done = False
        while not done:
            done = env.step(1).done
        assert env.chunks_downloaded == 50


class SqrtQoE(QoEMetric):
    """A user metric: only ``quality`` and the penalties are its own."""

    def __init__(self) -> None:
        super().__init__(rebuffer_penalty=3.1, smoothness_penalty=0.7)

    def quality(self, bitrate_mbps):
        return 1.3 * np.sqrt(np.asarray(bitrate_mbps, dtype=float))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestRewardEqualsChunkReward:
    """Step rewards are ``metric.chunk_reward`` on the step's own info,
    bit for bit, for the built-in metrics and a user subclass."""

    METRICS = [LinearQoE(), LogQoE(), SqrtQoE()]

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_rebuffering_and_switching_steps(self, metric):
        # A slow link, so the top rung stalls, and rungs that mostly
        # switch from one step to the next.
        trace = Trace.from_bandwidths([0.3, 0.6, 0.2, 1.0], interval_s=3.0)
        env = ABREnv(flat_manifest(chunks=12), trace, qoe_metric=metric)
        env.reset()
        rebuffered = switched = 0
        for action in [2, 2, 2, 0, 2, 2, 1, 2, 2, 0, 2]:
            result = env.step(action)
            info = result.info
            expected = metric.chunk_reward(
                bitrate_mbps=info["bitrate_mbps"],
                rebuffer_s=info["rebuffer_s"],
                previous_bitrate_mbps=info["previous_bitrate_mbps"],
            )
            assert _bits(result.reward) == _bits(expected)
            rebuffered += info["rebuffer_s"] > 0
            switched += info["bitrate_mbps"] != info["previous_bitrate_mbps"]
        assert rebuffered >= 3 and switched >= 5

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: type(m).__name__)
    def test_first_chunk_without_previous(self, metric):
        # Only the reset chunk has no previous rung; its reward is never
        # returned, so check the per-rung arithmetic directly.
        env = ABREnv(flat_manifest(), Trace.from_bandwidths([1.0] * 50), metric)
        bitrates = env.manifest.bitrates_kbps
        for rung in range(env.num_actions):
            for rebuffer in (0.0, 0.37, 12.5):
                expected = metric.chunk_reward(
                    float(bitrates[rung]) / 1000.0, rebuffer, None
                )
                got = env._tables.reward(rung, rebuffer, None)
                assert _bits(got) == _bits(expected)

    def test_negative_rebuffer_rejected(self):
        env = ABREnv(flat_manifest(), Trace.from_bandwidths([1.0] * 50))
        with pytest.raises(ConfigError):
            env._tables.reward(0, -0.1, None)

    def test_overridden_chunk_reward_rejected(self):
        # The env scores with chunk_reward's own form; a metric that
        # replaces that form would be silently ignored, so it is refused.
        class Flat(LinearQoE):
            def chunk_reward(self, bitrate_mbps, rebuffer_s, previous_bitrate_mbps):
                return 1.0

        with pytest.raises(ConfigError):
            ABREnv(flat_manifest(), Trace.from_bandwidths([1.0] * 50), Flat())


class TestValidation:
    def test_negative_rtt_rejected(self):
        with pytest.raises(SimulationError):
            ABREnv(flat_manifest(), Trace.from_bandwidths([1.0, 1.0]), rtt_s=-0.1)

    def test_tiny_buffer_cap_rejected(self):
        with pytest.raises(SimulationError):
            ABREnv(
                flat_manifest(),
                Trace.from_bandwidths([1.0, 1.0]),
                max_buffer_s=2.0,
            )

    @pytest.mark.parametrize(
        "option", ["rtt_s", "max_buffer_s", "start_offset_s"]
    )
    def test_nan_options_rejected(self, option):
        with pytest.raises(SimulationError):
            ABREnv(
                flat_manifest(),
                Trace.from_bandwidths([1.0, 1.0]),
                **{option: float("nan")},
            )


def _walk_matches_oracle(trace, start_s, sizes):
    """Each chunk's transfer time and the trace clock after it equal the
    reference walk's, bit for bit."""
    env = ABREnv(flat_manifest(), trace)
    env._trace_time = start_s
    oracle_time = start_s
    for size in sizes:
        expected, oracle_time = abr_oracles.transfer_time(trace, oracle_time, size)
        got = env._transfer_time(size)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        assert np.float64(env._trace_time).tobytes() == (
            np.float64(oracle_time).tobytes()
        )


class TestTransferWalkOracle:
    """The one-lookup segment walk against the reference walk through
    ``Trace.bandwidth_at`` and a separate boundary search."""

    def test_random_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            samples = int(rng.integers(2, 30))
            times = float(rng.uniform(0.0, 5.0)) + np.cumsum(
                rng.uniform(0.05, 3.0, size=samples)
            )
            trace = Trace(times, rng.uniform(0.05, 12.0, size=samples))
            start = float(rng.uniform(0.0, 3.0 * trace.duration + times[0]))
            sizes = rng.uniform(1e3, 4e6, size=12)
            _walk_matches_oracle(trace, start, sizes)

    def test_exact_segment_boundary_landings(self):
        # 8 Mbit/s is 1e6 bytes/s: every 1e6-byte chunk ends exactly on a
        # one-second boundary, and the next walk starts on it.
        trace = Trace.from_bandwidths([8.0, 4.0, 8.0, 16.0, 2.0])
        _walk_matches_oracle(trace, 0.0, [1e6, 5e5, 1e6, 2e6, 2.5e5])
        for start in (1.0, 2.0, 4.0, 5.0):
            _walk_matches_oracle(trace, start, [1e6, 1e6, 3e6])

    def test_wrap_around(self):
        # Chunks far larger than one pass over the trace, from starts past
        # its end: the walk wraps several times.
        trace = Trace(np.array([2.0, 2.5, 4.0, 7.0]), np.array([1.0, 3.0, 0.5, 6.0]))
        for start in (0.0, 6.9, 7.0, 19.25, 100.0):
            _walk_matches_oracle(trace, start, [5e6, 7.5e6, 1.2e5])
