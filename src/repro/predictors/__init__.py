"""Throughput prediction: the other family of learned ABR systems.

The paper's case study uses Pensieve (deep RL); its named future work is
to extend OSAP to "other DL-based ABR systems (e.g., [61])" — systems
like CS2P [49] and Fugu [61] that pair a classical controller (MPC) with
a *learned throughput predictor*.  This package provides that substrate:

* :mod:`repro.predictors.classic` — last-sample, moving average,
  harmonic mean, EWMA, and double-exponential (Holt) predictors,
* :mod:`repro.predictors.markov` — a CS2P-style discretized Markov-chain
  predictor trained on traces,
* :mod:`repro.predictors.neural` — a neural predictor on the
  :mod:`repro.nn` substrate (the Fugu-style learned component),
* :mod:`repro.predictors.evaluation` — backtesting predictors on traces.

:class:`repro.policies.predictive.PredictiveMPCPolicy` plugs any of these
into an MPC controller, giving a second learned ABR system to wrap with
the safety machinery (see ``benchmarks/test_bench_extension_fugu.py``).
"""

from repro.predictors.base import ThroughputPredictor
from repro.predictors.classic import (
    EWMAPredictor,
    HarmonicMeanPredictor,
    HoltPredictor,
    LastSamplePredictor,
    MovingAveragePredictor,
)
from repro.predictors.evaluation import backtest_predictor
from repro.predictors.markov import MarkovPredictor
from repro.predictors.neural import NeuralPredictor, train_neural_predictor

__all__ = [
    "EWMAPredictor",
    "HarmonicMeanPredictor",
    "HoltPredictor",
    "LastSamplePredictor",
    "MarkovPredictor",
    "MovingAveragePredictor",
    "NeuralPredictor",
    "ThroughputPredictor",
    "backtest_predictor",
    "train_neural_predictor",
]
