"""Failure-injection tests: corrupt inputs must fail loudly, not silently.

A safety system that silently mishandles bad data is worse than no safety
system; these tests verify that corrupt checkpoints, degenerate traces,
malformed cache artifacts, and invalid runtime values all raise the
library's typed errors rather than propagating NaNs or misbehaving.
"""

import numpy as np
import pytest

from repro.errors import (
    ArtifactError,
    ModelError,
    ReproError,
    SafetyError,
    SimulationError,
    TraceError,
    VideoError,
)


class TestCorruptTraces:
    def test_nan_bandwidth_rejected(self):
        from repro.traces.trace import Trace

        with pytest.raises(TraceError):
            Trace(times=np.array([0.0, 1.0]), bandwidths_mbps=np.array([1.0, np.nan]))

    def test_inf_bandwidth_rejected(self):
        from repro.traces.trace import Trace

        with pytest.raises(TraceError):
            Trace(times=np.array([0.0, 1.0]), bandwidths_mbps=np.array([np.inf, 1.0]))

    def test_nan_times_rejected(self):
        from repro.traces.trace import Trace

        with pytest.raises(TraceError):
            Trace(times=np.array([0.0, np.nan]), bandwidths_mbps=np.ones(2))


class TestCorruptVideo:
    def test_nan_chunk_size_rejected(self):
        from repro.video.manifest import VideoManifest

        sizes = np.ones((3, 2)) * 1000.0
        sizes[1, 1] = np.nan
        with pytest.raises(VideoError):
            VideoManifest(
                bitrates_kbps=np.array([300.0, 750.0]), chunk_sizes_bytes=sizes
            )


class TestCorruptCheckpoints:
    def test_truncated_npz_rejected(self, tmp_path):
        from repro.nn.network import build_mlp

        net = build_mlp(3, [4], 2, np.random.default_rng(0))
        path = tmp_path / "ckpt.npz"
        net.save(path)
        # Truncate the file: numpy should fail to parse it, and the load
        # must surface as an exception, not a half-loaded network.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            build_mlp(3, [4], 2, np.random.default_rng(1)).load(path)

    def test_wrong_architecture_checkpoint_rejected(self, tmp_path):
        from repro.nn.network import build_mlp

        build_mlp(3, [4], 2, np.random.default_rng(0)).save(tmp_path / "a.npz")
        with pytest.raises(ModelError):
            build_mlp(3, [8], 2, np.random.default_rng(0)).load(tmp_path / "a.npz")


class TestCorruptArtifacts:
    def test_corrupt_cache_entry_raises_artifact_error(self, tmp_path):
        from repro.experiments.artifacts import ArtifactCache

        cache = ArtifactCache({"x": 1}, root=tmp_path)
        cache.store("results", {"ok": True})
        cache.path("results").write_text("{broken json")
        with pytest.raises(ArtifactError):
            cache.load("results")


class TestRuntimeInvalidValues:
    def test_nan_signal_rejected_by_triggers(self):
        from repro.core.strategies import CusumTrigger, EWMATrigger
        from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger

        for trigger in (
            ConsecutiveTrigger(l=1),
            VarianceTrigger(alpha=1.0, k=3, l=1),
            EWMATrigger(bar=1.0),
            CusumTrigger(threshold=1.0, drift=0.1),
        ):
            with pytest.raises(SafetyError):
                trigger.update(float("nan"))

    def test_invalid_action_mid_session(self, manifest, steady_trace):
        from repro.abr.env import ABREnv

        env = ABREnv(manifest, steady_trace)
        env.reset()
        with pytest.raises(SimulationError):
            env.step(-1)

    def test_nan_observations_rejected_by_detectors(self):
        from repro.novelty import KDEDetector, MahalanobisDetector, OneClassSVM

        bad = np.array([[np.nan, 1.0]])
        for detector in (
            OneClassSVM(nu=0.5),
            KDEDetector(),
            MahalanobisDetector(),
        ):
            detector.fit(np.random.default_rng(0).normal(size=(20, 2)))
            with pytest.raises(ReproError):
                detector.predict(bad)


class TestErrorHierarchy:
    def test_all_typed_errors_are_repro_errors(self):
        import repro.errors as errors_module

        for name in dir(errors_module):
            obj = getattr(errors_module, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError
