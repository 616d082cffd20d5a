"""Tests for SafetyConfig (repro.core.osap) and the one-call suite
builder (repro.abr.suite).

The suite build here is intentionally tiny (3-member ensembles, a few
training epochs) — it exercises the full real pipeline, not its quality.
"""

import numpy as np
import pytest

from repro.abr.suite import build_safety_suite
from repro.core.runner import MonitoredScheme
from repro.core.osap import SafetyConfig
from repro.errors import ConfigError
from repro.pensieve.training import TrainingConfig
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import Dataset
from repro.traces.trace import Trace


class TestSafetyConfig:
    def test_paper_defaults(self):
        config = SafetyConfig()
        assert config.ensemble_size == 5
        assert config.trim == 2
        assert config.l == 3
        assert config.variance_k == 5
        assert config.ocsvm_k_empirical == 5
        assert config.ocsvm_k_synthetic == 30
        assert config.throughput_window == 10

    def test_ocsvm_k_selection(self):
        config = SafetyConfig()
        assert config.ocsvm_k(is_synthetic=True) == 30
        assert config.ocsvm_k(is_synthetic=False) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ensemble_size": 2},
            {"trim": 4},
            {"trim": 5},  # trim == ensemble_size
            {"trim": 7},  # trim > ensemble_size
            {"trim": -1},
            {"l": 0},
            {"variance_k": 0},
            {"variance_k": 1},
            {"ocsvm_k_empirical": 0},
            {"throughput_window": 0},
            {"ocsvm_nu": 0.0},
            {"max_ocsvm_samples": 5},
            {"detector": "novelty/unknown"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SafetyConfig(**kwargs)

    def test_detector_backends_swap_in(self):
        for key in ("novelty/kde", "novelty/knn", "novelty/mahalanobis"):
            detector = SafetyConfig(detector=key).build_detector()
            assert hasattr(detector, "fit") and hasattr(detector, "is_outlier")


@pytest.fixture(scope="module")
def tiny_suite():
    from repro.video.envivio import envivio_dash3_manifest

    manifest = envivio_dash3_manifest(repeats=1)
    rng = np.random.default_rng(0)
    traces = tuple(
        Trace.from_bandwidths(
            np.maximum(rng.gamma(2.0, 2.0, size=200), 0.05), name=f"g{i}"
        )
        for i in range(5)
    )
    split = Dataset(name="gamma_2_2", traces=traces).split()
    suite = build_safety_suite(
        manifest,
        split,
        default_policy=BufferBasedPolicy(manifest.bitrates_kbps),
        is_synthetic=True,
        training_config=TrainingConfig(epochs=4, filters=4, hidden=12, seed=0),
        safety_config=SafetyConfig(
            ensemble_size=3,
            trim=1,
            ocsvm_k_synthetic=5,
            ocsvm_nu=0.2,
            max_ocsvm_samples=200,
        ),
        value_epochs=10,
    )
    return manifest, split, suite


class TestBuildSafetySuite:
    def test_produces_three_controllers(self, tiny_suite):
        _, _, suite = tiny_suite
        controllers = suite.controllers()
        assert set(controllers) == {"ND", "A-ensemble", "V-ensemble"}
        assert all(
            isinstance(c, MonitoredScheme) for c in controllers.values()
        )

    def test_ensembles_have_configured_size(self, tiny_suite):
        _, _, suite = tiny_suite
        assert len(suite.agents) == 3
        assert len(suite.value_functions) == 3

    def test_deployed_agent_is_ensemble_member(self, tiny_suite):
        _, _, suite = tiny_suite
        assert suite.agent in suite.agents

    def test_calibration_recorded(self, tiny_suite):
        _, _, suite = tiny_suite
        assert suite.calibration_a.alpha >= 0
        assert suite.calibration_v.alpha >= 0
        assert np.isfinite(suite.nd_qoe_in_distribution)

    def test_controllers_run_sessions(self, tiny_suite):
        from repro.abr.session import run_session

        manifest, split, suite = tiny_suite
        for controller in suite.controllers().values():
            result = run_session(controller, manifest, split.test[0], seed=0)
            assert len(result) == manifest.num_chunks - 1
            assert 0.0 <= result.default_fraction <= 1.0

    def test_empty_split_rejected(self, tiny_suite):
        from repro.traces.dataset import DatasetSplit
        from repro.video.envivio import envivio_dash3_manifest

        manifest = envivio_dash3_manifest(repeats=1)
        empty = DatasetSplit(train=(), validation=(), test=())
        with pytest.raises(Exception):
            build_safety_suite(
                manifest,
                empty,
                default_policy=BufferBasedPolicy(manifest.bitrates_kbps),
                is_synthetic=True,
            )
