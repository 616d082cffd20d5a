"""Tests for repro.predictors.markov and repro.predictors.neural."""

import numpy as np
import pytest

from repro.errors import ConfigError, TrainingError
from repro.predictors.evaluation import backtest_predictor
from repro.predictors.classic import LastSamplePredictor
from repro.predictors.markov import MarkovPredictor
from repro.predictors.neural import NeuralPredictor, train_neural_predictor


def alternating_series(length=400, low=1.0, high=8.0):
    """A perfectly predictable alternating sequence."""
    return np.array([low if i % 2 == 0 else high for i in range(length)])


class TestMarkovPredictor:
    def test_learns_alternation(self):
        series = alternating_series()
        predictor = MarkovPredictor(num_bins=12, min_mbps=0.5, max_mbps=16.0)
        predictor.fit([series])
        predictor.update(1.0)
        assert predictor.predict() == pytest.approx(8.0, rel=0.25)
        predictor.update(8.0)
        assert predictor.predict() == pytest.approx(1.0, rel=0.3)

    def test_transition_matrix_stochastic(self):
        predictor = MarkovPredictor(num_bins=8).fit([alternating_series()])
        matrix = predictor.transition_matrix
        assert matrix.shape == (8, 8)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0)

    def test_unfitted_predict_rejected(self):
        predictor = MarkovPredictor()
        predictor.update(1.0)
        with pytest.raises(TrainingError):
            predictor.predict()

    def test_cold_start_after_fit(self):
        predictor = MarkovPredictor().fit([alternating_series()])
        assert predictor.predict() == predictor.cold_start_mbps

    def test_no_training_data_rejected(self):
        with pytest.raises(TrainingError):
            MarkovPredictor().fit([])
        with pytest.raises(TrainingError):
            MarkovPredictor().fit([np.array([1.0])])

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            MarkovPredictor(num_bins=1)
        with pytest.raises(ConfigError):
            MarkovPredictor(min_mbps=5.0, max_mbps=1.0)
        with pytest.raises(ConfigError):
            MarkovPredictor(smoothing=0.0)

    def test_out_of_range_samples_clipped(self):
        predictor = MarkovPredictor(min_mbps=1.0, max_mbps=10.0).fit(
            [alternating_series()]
        )
        predictor.update(1000.0)  # clipped to the top bin, no crash
        assert predictor.predict() > 0


class TestNeuralPredictor:
    def test_learns_alternation_better_than_mean(self):
        series = alternating_series()
        predictor = train_neural_predictor(
            [series], history=4, hidden_sizes=(16,), epochs=400, seed=0
        )
        score = backtest_predictor(predictor, [alternating_series(100)], warmup=4)
        # The alternating pattern is exactly learnable; a mean-style
        # prediction would be off by ~3.5 every step.
        assert score.mae < 1.0

    def test_deterministic_given_seed(self):
        series = [alternating_series(120)]
        a = train_neural_predictor(series, epochs=10, seed=3)
        b = train_neural_predictor(series, epochs=10, seed=3)
        for sample in [1.0, 8.0, 1.0, 8.0, 1.0, 8.0, 1.0, 8.0]:
            a.update(sample)
            b.update(sample)
        assert a.predict() == pytest.approx(b.predict())

    def test_cold_start_behaviour(self):
        predictor = train_neural_predictor(
            [alternating_series(120)], history=4, epochs=5
        )
        assert predictor.predict() > 0  # no samples yet
        predictor.update(5.0)
        assert predictor.predict() == pytest.approx(5.0)  # window mean fallback

    def test_prediction_clamped_to_sane_range(self):
        predictor = train_neural_predictor(
            [alternating_series(120)], history=4, epochs=5
        )
        for sample in [100.0] * 4:
            predictor.update(sample)
        assert 0.01 <= predictor.predict() <= 200.0

    def test_short_series_rejected(self):
        with pytest.raises(TrainingError):
            train_neural_predictor([np.array([1.0, 2.0])], history=8)

    def test_bad_epochs_rejected(self):
        with pytest.raises(TrainingError):
            train_neural_predictor([alternating_series(50)], epochs=0)

    def test_bad_history_rejected(self):
        from repro.nn.network import build_mlp

        network = build_mlp(4, [8], 1, np.random.default_rng(0))
        with pytest.raises(TrainingError):
            NeuralPredictor(network, history=0)


class TestBacktest:
    def test_scores_structure(self):
        score = backtest_predictor(
            LastSamplePredictor(), [alternating_series(50)], warmup=1
        )
        assert score.count == 49
        assert score.mae > 0
        assert score.rmse >= score.mae

    def test_perfect_predictor_on_constant(self):
        score = backtest_predictor(
            LastSamplePredictor(), [np.full(50, 4.0)], warmup=1
        )
        assert score.mae == pytest.approx(0.0)
        assert score.mape == pytest.approx(0.0)

    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigError):
            backtest_predictor(LastSamplePredictor(), [np.array([1.0])], warmup=1)

    def test_bad_warmup(self):
        with pytest.raises(ConfigError):
            backtest_predictor(LastSamplePredictor(), [np.ones(10)], warmup=0)
