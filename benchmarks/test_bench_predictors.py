"""Predictor bake-off: one-step-ahead throughput prediction accuracy.

Backtests every predictor the library ships — classical estimators, the
CS2P-style Markov chain and the Fugu-style MLP — on held-out traces from
a correlated (norway) and an i.i.d. (gamma_2_2) dataset.
Expected shape: on correlated cellular traces the adaptive/learned
predictors beat windowed means; on i.i.d. traces nothing can beat
predicting the mean, and the learned models must not do worse.
"""

import numpy as np
import pytest

from repro.predictors import (
    EWMAPredictor,
    HarmonicMeanPredictor,
    HoltPredictor,
    LastSamplePredictor,
    MarkovPredictor,
    MovingAveragePredictor,
    backtest_predictor,
    train_neural_predictor,
)
from repro.traces.dataset import make_dataset
from repro.util.tables import render_table


@pytest.fixture(scope="module")
def prediction_data(config):
    data = {}
    for name in ("norway", "gamma_2_2"):
        split = make_dataset(
            name,
            num_traces=config.num_traces,
            duration_s=config.trace_duration_s,
            seed=config.dataset_seed,
        ).split()
        data[name] = (
            [t.bandwidths_mbps for t in split.train],
            [t.bandwidths_mbps for t in split.test],
        )
    return data


def build_predictors(train_series):
    return {
        "last-sample": LastSamplePredictor(),
        "moving-average": MovingAveragePredictor(window=5),
        "harmonic-mean": HarmonicMeanPredictor(window=5),
        "ewma": EWMAPredictor(alpha=0.3),
        "holt": HoltPredictor(),
        "markov (CS2P-like)": MarkovPredictor(num_bins=16).fit(train_series),
        "mlp (Fugu-like)": train_neural_predictor(train_series, epochs=250, seed=0),
    }


def test_predictor_bakeoff_table(benchmark, prediction_data, emit):
    tables = {}

    def evaluate_all():
        for dataset, (train_series, test_series) in prediction_data.items():
            rows = []
            for name, predictor in build_predictors(train_series).items():
                score = backtest_predictor(predictor, test_series, warmup=8)
                rows.append(
                    [name, round(score.mae, 3), f"{score.mape:.1%}", score.count]
                )
            tables[dataset] = rows

    benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    blocks = []
    for dataset, rows in tables.items():
        blocks.append(
            f"{dataset}:\n"
            + render_table(["predictor", "MAE (Mbit/s)", "MAPE", "samples"], rows)
        )
    emit("predictor_bakeoff", "\n\n".join(blocks))
    # Sanity: on correlated traces, the best adaptive predictor beats the
    # worst windowed mean by a clear margin.
    norway = {row[0]: row[1] for row in tables["norway"]}
    assert min(norway["last-sample"], norway["mlp (Fugu-like)"]) < (
        norway["moving-average"]
    )


@pytest.mark.parametrize("kind", ["mlp", "markov"])
def test_learned_predictor_inference_cost(benchmark, prediction_data, kind):
    train_series, _ = prediction_data["norway"]
    if kind == "mlp":
        predictor = train_neural_predictor(train_series, epochs=20, seed=0)
    else:
        predictor = MarkovPredictor(num_bins=16).fit(train_series)
    for sample in train_series[0][:16]:
        predictor.update(float(sample))
    benchmark(predictor.predict)
    assert benchmark.stats["mean"] < 0.01
