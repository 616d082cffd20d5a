"""Tests for repro.abr.state: the Pensieve observation format."""

import numpy as np
import pytest

from repro.abr.state import S_INFO, S_LEN, ObservationView, StateBuilder
from repro.errors import SimulationError

BITRATES = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])


def make_builder():
    return StateBuilder(BITRATES, num_chunks=48)


class TestStateBuilder:
    def test_reset_is_zero(self):
        builder = make_builder()
        assert np.all(builder.reset() == 0.0)

    def test_push_writes_expected_cells(self):
        builder = make_builder()
        builder.reset()
        obs = builder.push(
            bitrate_index=5,
            buffer_s=20.0,
            throughput_mbps=4.0,
            download_time_s=2.0,
            next_chunk_sizes_bytes=np.full(6, 2e6),
            chunks_remaining=24,
        )
        assert obs.shape == (S_INFO, S_LEN)
        assert obs[0, -1] == pytest.approx(1.0)  # top rung normalized
        assert obs[1, -1] == pytest.approx(2.0)  # 20 s / 10
        assert obs[2, -1] == pytest.approx(0.5)  # 4 / 8 Mbit/s
        assert obs[3, -1] == pytest.approx(0.2)  # 2 s / 10
        assert obs[4, 0] == pytest.approx(2.0)  # 2e6 bytes = 2 MB
        assert obs[5, -1] == pytest.approx(0.5)  # 24 of 48 left

    def test_history_rolls_left(self):
        builder = make_builder()
        builder.reset()
        for throughput in [1.0, 2.0, 3.0]:
            obs = builder.push(0, 5.0, throughput, 1.0, np.ones(6), 10)
        assert obs[2, -1] == pytest.approx(3.0 / 8.0)
        assert obs[2, -2] == pytest.approx(2.0 / 8.0)
        assert obs[2, -3] == pytest.approx(1.0 / 8.0)

    def test_last_chunk_has_no_next_sizes(self):
        builder = make_builder()
        builder.reset()
        obs = builder.push(0, 5.0, 1.0, 1.0, None, 0)
        assert np.all(obs[4] == 0.0)

    def test_observation_is_copy(self):
        builder = make_builder()
        obs = builder.reset()
        obs[0, 0] = 99.0
        assert builder.observation()[0, 0] == 0.0

    def test_invalid_inputs_rejected(self):
        builder = make_builder()
        builder.reset()
        with pytest.raises(SimulationError):
            builder.push(99, 5.0, 1.0, 1.0, None, 0)
        with pytest.raises(SimulationError):
            builder.push(0, -1.0, 1.0, 1.0, None, 0)
        with pytest.raises(SimulationError):
            builder.push(0, 5.0, 1.0, 1.0, np.ones(3), 0)
        with pytest.raises(SimulationError):
            builder.push(0, 5.0, 1.0, 1.0, None, 99)

    def test_wide_ladder_rejected(self):
        with pytest.raises(SimulationError):
            StateBuilder(np.arange(1.0, 11.0), num_chunks=5)


class TestShiftOracle:
    def test_in_place_shift_matches_np_roll(self):
        # Push a random stream (some steps with no next chunk) through the
        # builder and through a reference that rolls a copy each step.
        rng = np.random.default_rng(9)
        builder = make_builder()
        reference = builder.reset()
        for step in range(40):
            sizes = None if step % 7 == 6 else rng.uniform(1e5, 3e6, size=6)
            inputs = dict(
                bitrate_index=int(rng.integers(0, 6)),
                buffer_s=float(rng.uniform(0.0, 60.0)),
                throughput_mbps=float(rng.uniform(0.0, 10.0)),
                download_time_s=float(rng.uniform(0.0, 8.0)),
                chunks_remaining=int(rng.integers(0, 49)),
            )
            observation = builder.push(next_chunk_sizes_bytes=sizes, **inputs)
            reference = np.roll(reference, -1, axis=1)
            reference[0, -1] = BITRATES[inputs["bitrate_index"]] / BITRATES[-1]
            reference[1, -1] = inputs["buffer_s"] / 10.0
            reference[2, -1] = inputs["throughput_mbps"] / 8.0
            reference[3, -1] = inputs["download_time_s"] / 10.0
            reference[4, :] = 0.0
            if sizes is not None:
                reference[4, :6] = sizes / 1e6
            reference[5, -1] = inputs["chunks_remaining"] / 48
            assert observation.tobytes() == reference.tobytes()


class TestObservationView:
    def test_round_trip(self):
        builder = make_builder()
        builder.reset()
        obs = builder.push(
            bitrate_index=2,
            buffer_s=12.5,
            throughput_mbps=3.0,
            download_time_s=1.5,
            next_chunk_sizes_bytes=np.arange(1, 7) * 1e6,
            chunks_remaining=12,
        )
        view = ObservationView(obs, BITRATES)
        assert view.last_bitrate_index == 2
        assert view.buffer_s == pytest.approx(12.5)
        assert view.throughput_history_mbps[-1] == pytest.approx(3.0)
        assert view.download_time_history_s[-1] == pytest.approx(1.5)
        assert np.allclose(view.next_chunk_sizes_bytes, np.arange(1, 7) * 1e6)
        assert view.remaining_fraction == pytest.approx(0.25)

    def test_wrong_shape_rejected(self):
        with pytest.raises(SimulationError):
            ObservationView(np.zeros((3, 3)), BITRATES)
