"""The ABR domain: adaptive-bitrate video streaming, registered as ``abr``.

The original workload of this reproduction, wrapped behind the
:class:`~repro.domains.base.Domain` interface so the serve engine, the
service, and the tools reach it the same way they reach every other
domain.  Its session factory is
:class:`repro.abr.session.ABRSessionFactory`, the same wiring
:func:`repro.abr.session.run_session` streams through, so an ABR session
served by any path matches the one-call functions bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.abr.session import ABRSessionFactory
from repro.abr.state import S_INFO, S_LEN
from repro.core.ensemble_signals import PolicyEnsembleSignal
from repro.core.runner import MonitoredScheme
from repro.core.thresholding import VarianceTrigger
from repro.domains.base import DOMAINS, Domain, LinearSoftmaxPolicy
from repro.errors import ConfigError
from repro.policies.buffer_based import BufferBasedPolicy
from repro.traces.dataset import DATASET_NAMES, DatasetSplit, make_dataset
from repro.video.envivio import envivio_dash3_manifest
from repro.video.manifest import VideoManifest
from repro.video.qoe import QoEMetric

__all__ = ["ABRDomain"]

#: The demo scheme's calibrated variance threshold (the historical
#: ``build_demo_scheme`` default).
_DEMO_ALPHA = 0.12


@DOMAINS.register("abr")
class ABRDomain(Domain):
    """Adaptive-bitrate streaming over the standard Envivio manifest."""

    key = "abr"
    observation_shape = (S_INFO, S_LEN)

    def dataset_names(self) -> tuple[str, ...]:
        return tuple(DATASET_NAMES)

    def load_split(
        self,
        dataset: str,
        num_traces: int = 20,
        duration_s: float = 1200.0,
        seed: int = 0,
    ) -> DatasetSplit:
        return make_dataset(
            dataset, num_traces=num_traces, duration_s=duration_s, seed=seed
        ).split()

    def session_factory(
        self,
        manifest: VideoManifest | None = None,
        qoe_metric: QoEMetric | None = None,
    ) -> ABRSessionFactory:
        if manifest is None:
            manifest = envivio_dash3_manifest(repeats=1)
        return ABRSessionFactory(manifest=manifest, qoe_metric=qoe_metric)

    def demo_scheme(
        self,
        alpha: float | None = None,
        ensemble_size: int = 4,
        seed: int = 0,
        name: str = "demo",
    ) -> MonitoredScheme:
        """The seeded linear-softmax ``U_pi`` scheme over Envivio + BBA.

        Construction order and seeding are the service layer's
        historical ``build_demo_scheme`` exactly (learned at ``seed+1``,
        members at ``seed+10+i``), so existing demo trajectories are
        unchanged by the domain refactor.
        """
        if ensemble_size < 2:
            raise ConfigError(
                f"ensemble_size must be >= 2, got {ensemble_size}"
            )
        if alpha is None:
            alpha = _DEMO_ALPHA
        manifest = envivio_dash3_manifest(repeats=1)
        num_actions = len(manifest.bitrates_kbps)
        num_features = int(np.prod(self.observation_shape))
        learned = LinearSoftmaxPolicy(seed + 1, num_actions, num_features)
        default = BufferBasedPolicy(manifest.bitrates_kbps)
        members = [
            LinearSoftmaxPolicy(seed + 10 + index, num_actions, num_features)
            for index in range(ensemble_size)
        ]
        signal = PolicyEnsembleSignal(members, trim=1)
        trigger = VarianceTrigger(alpha=alpha, k=3, l=1)
        return MonitoredScheme(
            name=name,
            learned=learned,
            default=default,
            signal=signal,
            trigger=trigger,
            factory=ABRSessionFactory(manifest=manifest),
        )

    def throughput_of(self, observation: np.ndarray) -> float:
        """The latest measured throughput from the ``(6, 8)`` state.

        Row 2 holds normalized throughput history (newest last), scaled
        by 8 Mbit/s — the same extraction
        :class:`~repro.core.novelty_signal.StateNoveltySignal` performs
        by default for ABR observations.
        """
        return float(np.asarray(observation)[2, -1]) * 8.0

    # --- ABR-specific extras (trained artifacts) ------------------------

    def build_suite(self, *args, **kwargs):
        """Run the full offline phase: delegates to
        :func:`repro.abr.suite.build_safety_suite`."""
        from repro.abr.suite import build_safety_suite

        return build_safety_suite(*args, **kwargs)

    def collect_training_throughputs(self, *args, **kwargs):
        """Raw ``U_S`` training series: delegates to
        :func:`repro.abr.suite.collect_training_throughputs`."""
        from repro.abr.suite import collect_training_throughputs

        return collect_training_throughputs(*args, **kwargs)
