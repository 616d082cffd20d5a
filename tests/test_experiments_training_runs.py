"""Tests for repro.experiments.training_runs at miniature scale.

These run the *real* pipeline (training, calibration, evaluation) with a
deliberately tiny configuration, checking structure, caching, and
baseline handling rather than result quality.
"""

import pytest

from repro.config import FAST
from repro.core.osap import SafetyConfig
from repro.errors import ConfigError
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.training_runs import (
    compute_baselines,
    run_all_distributions,
    run_training_distribution,
)
from repro.pensieve.training import TrainingConfig


@pytest.fixture(scope="module")
def tiny_config():
    return FAST.scaled(
        name="tiny",
        num_traces=4,
        trace_duration_s=200.0,
        video_repeats=1,
        training=TrainingConfig(
            epochs=2, gamma=0.9, n_step=4, filters=4, hidden=12
        ),
        safety=SafetyConfig(
            ensemble_size=3,
            trim=1,
            ocsvm_k_synthetic=5,
            ocsvm_nu=0.2,
            max_ocsvm_samples=200,
        ),
        value_epochs=5,
        datasets=("gamma_1_2", "exponential"),
        random_eval_repeats=1,
    )


class TestBaselines:
    def test_structure(self, tiny_config):
        baselines = compute_baselines(tiny_config)
        assert set(baselines) == {"gamma_1_2", "exponential"}
        for per_dataset in baselines.values():
            assert set(per_dataset) == {"BB", "Random"}
            assert "qoe" in per_dataset["BB"]

    def test_cached(self, tiny_config, tmp_path):
        cache = ArtifactCache(tiny_config.describe(), root=tmp_path)
        first = compute_baselines(tiny_config, cache)
        assert cache.has("baselines")
        second = compute_baselines(tiny_config, cache)
        assert first == second


class TestRunTrainingDistribution:
    def test_structure(self, tiny_config):
        run = run_training_distribution(tiny_config, "gamma_1_2")
        assert set(run["evaluations"]) == {"gamma_1_2", "exponential"}
        for per_test in run["evaluations"].values():
            assert set(per_test) == {"Pensieve", "ND", "A-ensemble", "V-ensemble"}
            for stats in per_test.values():
                assert "qoe" in stats
                assert 0.0 <= stats["default_fraction"] <= 1.0
        assert "alpha_a_ensemble" in run["metadata"]

    def test_unknown_dataset_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            run_training_distribution(tiny_config, "norway")

    def test_cache_round_trip(self, tiny_config, tmp_path):
        cache = ArtifactCache(tiny_config.describe(), root=tmp_path)
        first = run_training_distribution(tiny_config, "exponential", cache)
        assert cache.has("train_exponential")
        second = run_training_distribution(tiny_config, "exponential", cache)
        assert first == second


class TestWeightCache:
    @staticmethod
    def _count_trainer_invocations(monkeypatch):
        """Patch both training entry points with a counting wrapper."""
        from repro.pensieve import ensemble as ensemble_module
        from repro.pensieve.training import A2CTrainer

        calls = {"count": 0}

        def counting(real):
            def wrapper(*args, **kwargs):
                calls["count"] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(A2CTrainer, "train", counting(A2CTrainer.train))
        monkeypatch.setattr(
            ensemble_module,
            "_train_value_members_lockstep",
            counting(ensemble_module._train_value_members_lockstep),
        )
        return calls

    def test_second_suite_build_trains_nothing(
        self, tiny_config, tmp_path, monkeypatch
    ):
        # The acceptance property of weight-level caching: rebuilding a
        # safety suite with an unchanged configuration must invoke zero
        # trainers — everything loads from the fingerprint-keyed .npz.
        import numpy as np

        from repro.abr.suite import build_safety_suite
        from repro.experiments.training_runs import _weight_fingerprint
        from repro.policies.buffer_based import BufferBasedPolicy
        from repro.traces.dataset import make_dataset
        from repro.video.envivio import envivio_dash3_manifest

        calls = self._count_trainer_invocations(monkeypatch)
        manifest = envivio_dash3_manifest(repeats=tiny_config.video_repeats)
        dataset = make_dataset(
            "gamma_1_2",
            num_traces=tiny_config.num_traces,
            duration_s=tiny_config.trace_duration_s,
            seed=tiny_config.dataset_seed,
        )
        split = dataset.split()

        def build():
            return build_safety_suite(
                manifest,
                split,
                default_policy=BufferBasedPolicy(manifest.bitrates_kbps),
                is_synthetic=dataset.is_synthetic,
                training_config=tiny_config.training,
                safety_config=tiny_config.safety,
                value_epochs=tiny_config.value_epochs,
                seed=tiny_config.suite_seed,
                weight_cache=ArtifactCache(
                    _weight_fingerprint(tiny_config, "gamma_1_2"), root=tmp_path
                ),
            )

        first = build()
        assert calls["count"] == 2  # one A2C run, one value regression
        second = build()
        assert calls["count"] == 2  # zero additional trainer runs
        for a, b in zip(first.agents, second.agents):
            for pa, pb in zip(a.actor.params, b.actor.params):
                assert np.array_equal(pa, pb)
        for a, b in zip(first.value_functions, second.value_functions):
            assert a.name == b.name
            for pa, pb in zip(a.critic.params, b.critic.params):
                assert np.array_equal(pa, pb)

    def test_run_training_distribution_persists_weights(self, tiny_config, tmp_path):
        from repro.experiments.training_runs import _weight_fingerprint

        run_training_distribution(
            tiny_config, "gamma_1_2", weight_root=tmp_path
        )
        weight_cache = ArtifactCache(
            _weight_fingerprint(tiny_config, "gamma_1_2"), root=tmp_path
        )
        assert weight_cache.has_arrays("agent_weights")
        assert weight_cache.has_arrays("value_weights")


class TestRunAllDistributions:
    def test_full_matrix(self, tiny_config, tmp_path):
        cache = ArtifactCache(tiny_config.describe(), root=tmp_path)
        matrix = run_all_distributions(tiny_config, cache)
        assert matrix.datasets == ("gamma_1_2", "exponential")
        assert len(matrix.ood_pairs()) == 2
        # Every lookup path works.
        for train in matrix.datasets:
            for test in matrix.datasets:
                for scheme in ("Pensieve", "ND", "BB", "Random"):
                    assert isinstance(matrix.qoe(train, test, scheme), float)
