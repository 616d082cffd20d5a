"""Property-based tests: invariants of the ABR simulator.

Hypothesis drives the simulator with random traces, videos, and action
sequences, checking the physical invariants that must hold for *any*
input: buffers never go negative or exceed the cap, download times are at
least the RTT plus the ideal transfer time, measured throughput never
exceeds the link's fastest rate, and the episode return always equals the
QoE metric applied to the recorded session.  Whole sessions also match
the step-by-step oracle in :mod:`tests.abr_oracles` bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.env import ABREnv
from repro.traces.trace import Trace
from repro.video.manifest import VideoManifest
from repro.video.qoe import LinearQoE, LogQoE

from tests import abr_oracles

bandwidth_lists = st.lists(st.floats(0.2, 50.0), min_size=3, max_size=30)
action_seeds = st.integers(0, 2**32 - 1)
chunk_counts = st.integers(2, 12)


def make_manifest(num_chunks: int) -> VideoManifest:
    bitrates = np.array([300.0, 750.0, 1200.0, 1850.0])
    sizes = np.outer(np.ones(num_chunks), bitrates * 1000.0 * 4.0 / 8.0)
    return VideoManifest(bitrates_kbps=bitrates, chunk_sizes_bytes=sizes)


def run_episode(bandwidths, num_chunks, seed, max_buffer_s=30.0):
    trace = Trace.from_bandwidths(bandwidths, interval_s=2.0)
    manifest = make_manifest(num_chunks)
    env = ABREnv(manifest, trace, max_buffer_s=max_buffer_s)
    rng = np.random.default_rng(seed)
    env.reset()
    steps = []
    done = False
    while not done:
        result = env.step(int(rng.integers(env.num_actions)))
        steps.append(result)
        done = result.done
    return env, steps


class TestSimulatorInvariants:
    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_buffer_bounds(self, bandwidths, num_chunks, seed):
        env, steps = run_episode(bandwidths, num_chunks, seed)
        for step in steps:
            assert 0.0 <= step.info["buffer_s"] <= env.max_buffer_s + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_download_time_lower_bound(self, bandwidths, num_chunks, seed):
        env, steps = run_episode(bandwidths, num_chunks, seed)
        peak_rate_bytes_s = max(bandwidths) * 1e6 / 8.0
        for step in steps:
            ideal = step.info["size_bytes"] / peak_rate_bytes_s
            assert step.info["download_time_s"] >= env.rtt_s + ideal - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_measured_throughput_bounded_by_peak(
        self, bandwidths, num_chunks, seed
    ):
        _, steps = run_episode(bandwidths, num_chunks, seed)
        for step in steps:
            assert step.info["throughput_mbps"] <= max(bandwidths) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_rebuffer_nonnegative_and_consistent(
        self, bandwidths, num_chunks, seed
    ):
        _, steps = run_episode(bandwidths, num_chunks, seed)
        for step in steps:
            assert step.info["rebuffer_s"] >= 0.0
            # A download fully covered by buffered content cannot stall.
            if step.info["download_time_s"] <= 1e-12:
                assert step.info["rebuffer_s"] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_return_equals_metric_on_records(self, bandwidths, num_chunks, seed):
        env, steps = run_episode(bandwidths, num_chunks, seed)
        total_reward = sum(step.reward for step in steps)
        metric = env.qoe_metric
        recomputed = 0.0
        previous = env.manifest.bitrates_kbps[0] / 1000.0  # reset chunk rung
        for step in steps:
            recomputed += metric.chunk_reward(
                bitrate_mbps=step.info["bitrate_mbps"],
                rebuffer_s=step.info["rebuffer_s"],
                previous_bitrate_mbps=previous,
            )
            previous = step.info["bitrate_mbps"]
        assert np.isclose(total_reward, recomputed)

    @settings(max_examples=30, deadline=None)
    @given(bandwidth_lists, chunk_counts, action_seeds)
    def test_episode_downloads_every_chunk(self, bandwidths, num_chunks, seed):
        env, steps = run_episode(bandwidths, num_chunks, seed)
        assert env.chunks_downloaded == num_chunks
        assert len(steps) == num_chunks - 1

    @settings(max_examples=20, deadline=None)
    @given(bandwidth_lists, action_seeds)
    def test_determinism(self, bandwidths, seed):
        _, first = run_episode(bandwidths, 6, seed)
        _, second = run_episode(bandwidths, 6, seed)
        for a, b in zip(first, second):
            assert a.reward == b.reward
            assert a.info["download_time_s"] == b.info["download_time_s"]


def _bits(value) -> bytes | None:
    return None if value is None else np.float64(value).tobytes()


class TestSessionOracle:
    """Whole sessions against :func:`abr_oracles.session`: observations,
    rewards and every ``info`` value, compared as bytes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.05, 12.0), min_size=2, max_size=25),
        st.lists(st.floats(0.05, 3.0), min_size=2, max_size=25),
        st.floats(0.0, 5.0),
        st.floats(0.0, 4.0),
        st.integers(2, 10),
        st.sampled_from([6.0, 20.0, 60.0]),
        st.booleans(),
        action_seeds,
    )
    def test_session_matches_oracle(
        self,
        bandwidths,
        gaps,
        first_time,
        start_in_durations,
        num_chunks,
        max_buffer_s,
        log_metric,
        seed,
    ):
        samples = min(len(bandwidths), len(gaps))
        times = first_time + np.cumsum(gaps[:samples])
        trace = Trace(times, np.asarray(bandwidths[:samples]))
        start_offset_s = start_in_durations * trace.duration
        rng = np.random.default_rng(seed)
        bitrates = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0])
        manifest = VideoManifest(
            bitrates_kbps=bitrates,
            chunk_sizes_bytes=np.outer(
                rng.uniform(0.5, 1.5, size=num_chunks), bitrates * 500.0
            ),
        )
        metric = LogQoE() if log_metric else LinearQoE()
        rungs = rng.integers(0, bitrates.size, size=num_chunks - 1).tolist()
        expected = abr_oracles.session(
            manifest,
            trace,
            metric,
            rungs,
            start_offset_s=start_offset_s,
            max_buffer_s=max_buffer_s,
        )
        env = ABREnv(
            manifest,
            trace,
            qoe_metric=metric,
            max_buffer_s=max_buffer_s,
            start_offset_s=start_offset_s,
        )
        got = [(env.reset(), None, None)]
        for rung in rungs:
            result = env.step(rung)
            got.append((result.observation, result.reward, result.info))
        assert result.done
        for (observation, reward, info), (obs_ref, reward_ref, info_ref) in zip(
            got, expected
        ):
            assert observation.tobytes() == obs_ref.tobytes()
            assert _bits(reward) == _bits(reward_ref)
            if info is not None:
                assert list(info) == list(info_ref)
                assert [_bits(v) for v in info.values()] == [
                    _bits(v) for v in info_ref.values()
                ]
