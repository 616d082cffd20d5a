"""The heavyweight experiment step: train per-distribution suites and
evaluate every scheme on every test distribution.

For each training dataset the paper's offline phase runs once
(:func:`repro.abr.suite.build_safety_suite`), and the deployed schemes —
vanilla Pensieve, BB, Random, ND, A-ensemble, V-ensemble — are then
evaluated on the *test* split of all six datasets.  The result is the
6x6x6 (train x test x scheme) QoE matrix that every figure in the paper is
a projection of.

Results are cached as JSON keyed by the experiment configuration.  The
trained models are persisted too when a *weight_root* is given: each
training distribution gets its own weight-fingerprint-keyed
:class:`~repro.experiments.artifacts.ArtifactCache` holding the agent and
value ensembles' parameters as ``.npz`` artifacts, so rebuilding a suite
(e.g. after deleting the JSON results, or for a new projection) loads the
networks instead of retraining them.  The weight fingerprint covers only
the knobs that affect training — dataset synthesis, the training config,
ensemble size, and seeds — so changing evaluation-only parameters still
reuses the weights.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.abr.session import run_session
from repro.abr.suite import build_safety_suite
from repro.config import ExperimentConfig
from repro.errors import ArtifactError, ConfigError
from repro.experiments.artifacts import ArtifactCache
from repro.parallel import parallel_map
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.random_policy import RandomPolicy
from repro.traces.dataset import Dataset, DatasetSplit, make_dataset
from repro.video.envivio import envivio_dash3_manifest
from repro.video.manifest import VideoManifest

__all__ = [
    "SCHEMES",
    "BASELINES",
    "EvaluationMatrix",
    "compute_training_distribution",
    "run_training_distribution",
    "run_all_distributions",
]

#: Schemes whose behaviour depends on the training distribution.
SCHEMES = ("Pensieve", "ND", "A-ensemble", "V-ensemble")
#: Training-free baselines, evaluated once per test distribution.
BASELINES = ("BB", "Random")


@dataclass
class EvaluationMatrix:
    """The (train, test, scheme) -> mean QoE table plus baselines.

    ``entries[train][test][scheme]`` holds ``{"qoe", "default_fraction"}``;
    ``baselines[test][scheme]`` holds ``{"qoe"}``.  ``metadata[train]``
    records calibration outcomes for inspection.
    """

    datasets: tuple[str, ...]
    entries: dict = field(default_factory=dict)
    baselines: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def qoe(self, train: str, test: str, scheme: str) -> float:
        """Mean QoE of *scheme* trained on *train*, tested on *test*."""
        if scheme in BASELINES:
            return float(self.baselines[test][scheme]["qoe"])
        return float(self.entries[train][test][scheme]["qoe"])

    def default_fraction(self, train: str, test: str, scheme: str) -> float:
        """Mean fraction of decisions delegated to the default policy."""
        if scheme in BASELINES:
            return 0.0
        return float(self.entries[train][test][scheme]["default_fraction"])

    def ood_pairs(self) -> list[tuple[str, str]]:
        """The train/test combinations with different distributions
        (30 pairs for the paper's six datasets)."""
        return [
            (train, test)
            for train in self.datasets
            for test in self.datasets
            if train != test
        ]

    def to_payload(self) -> dict:
        """JSON-able representation."""
        return {
            "datasets": list(self.datasets),
            "entries": self.entries,
            "baselines": self.baselines,
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EvaluationMatrix":
        """Inverse of :meth:`to_payload`."""
        try:
            return cls(
                datasets=tuple(payload["datasets"]),
                entries=payload["entries"],
                baselines=payload["baselines"],
                metadata=payload.get("metadata", {}),
            )
        except KeyError as exc:
            raise ArtifactError(f"malformed evaluation matrix: missing {exc}") from exc


def _build_datasets(config: ExperimentConfig) -> dict[str, Dataset]:
    return {
        name: make_dataset(
            name,
            num_traces=config.num_traces,
            duration_s=config.trace_duration_s,
            seed=config.dataset_seed,
        )
        for name in config.datasets
    }


def _manifest(config: ExperimentConfig) -> VideoManifest:
    return envivio_dash3_manifest(repeats=config.video_repeats)


def _sweep_sessions(
    manifest: VideoManifest,
    policies: dict,
    trace_groups: dict,
    tasks: list[tuple[str, str, int, int]],
) -> dict[tuple[str, str], tuple[float, float]]:
    """Run every ``(policy, group, trace index, seed)`` session task in
    order and reduce to mean (QoE, default fraction) per
    ``(policy, group)``."""
    grouped: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with obs.span("experiment.sweep_sessions", tasks=len(tasks), policies=len(policies)):
        for policy_key, group_key, index, seed in tasks:
            result = run_session(
                policies[policy_key],
                manifest,
                trace_groups[group_key][index],
                seed=seed,
            )
            grouped.setdefault((policy_key, group_key), []).append(
                (float(result.qoe), float(result.default_fraction))
            )
    return {
        key: (
            float(np.mean([qoe for qoe, _ in outcomes])),
            float(np.mean([fraction for _, fraction in outcomes])),
        )
        for key, outcomes in grouped.items()
    }


def compute_baselines(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
) -> dict:
    """BB and Random mean QoE on every test distribution (train-free)."""

    def compute() -> dict:
        manifest = _manifest(config)
        datasets = _build_datasets(config)
        policies = {
            "BB": BufferBasedPolicy(manifest.bitrates_kbps),
            "Random": RandomPolicy(manifest.bitrates_kbps),
        }
        trace_groups = {
            name: list(dataset.split().test) for name, dataset in datasets.items()
        }
        random_seeds = list(
            range(config.eval_seed, config.eval_seed + config.random_eval_repeats)
        )
        tasks = []
        for name in datasets:
            num_traces = len(trace_groups[name])
            tasks.extend(
                ("BB", name, index, config.eval_seed) for index in range(num_traces)
            )
            tasks.extend(
                ("Random", name, index, seed)
                for index in range(num_traces)
                for seed in random_seeds
            )
        means = _sweep_sessions(manifest, policies, trace_groups, tasks)
        return {
            name: {
                "BB": {"qoe": means[("BB", name)][0]},
                "Random": {"qoe": means[("Random", name)][0]},
            }
            for name in datasets
        }

    if cache is None:
        return compute()
    return cache.get_or_compute("baselines", compute)


def _weight_fingerprint(config: ExperimentConfig, train_name: str) -> dict:
    """The configuration facts that determine the trained weights.

    Deliberately narrower than ``config.describe()``: evaluation-only
    knobs (eval seeds, OC-SVM parameters, calibration settings) are
    excluded so changing them reuses the cached weights.
    """
    return {
        "artifact": "ensemble_weights",
        "train_name": train_name,
        "video_repeats": config.video_repeats,
        "num_traces": config.num_traces,
        "trace_duration_s": config.trace_duration_s,
        "dataset_seed": config.dataset_seed,
        "suite_seed": config.suite_seed,
        "ensemble_size": config.safety.ensemble_size,
        "value_epochs": config.value_epochs,
        "training": asdict(config.training),
    }


def _weight_cache(
    config: ExperimentConfig, train_name: str, weight_root
) -> ArtifactCache | None:
    if weight_root is None:
        return None
    return ArtifactCache(_weight_fingerprint(config, train_name), root=weight_root)


def compute_training_distribution(
    config: ExperimentConfig,
    train_name: str,
    weight_root=None,
) -> dict:
    """The body of :func:`run_training_distribution`, cache-free.

    Module-level (rather than a closure) so a process-pool worker can run
    one training distribution end-to-end per task.  *weight_root* (a
    directory) enables weight-level caching of the trained ensembles.
    """
    manifest = _manifest(config)
    datasets = _build_datasets(config)
    train_split: DatasetSplit = datasets[train_name].split()
    bb = BufferBasedPolicy(manifest.bitrates_kbps)
    with obs.span("experiment.build_suite", train=train_name):
        suite = build_safety_suite(
            manifest,
            train_split,
            default_policy=bb,
            is_synthetic=datasets[train_name].is_synthetic,
            training_config=config.training,
            safety_config=config.safety,
            value_epochs=config.value_epochs,
            seed=config.suite_seed,
            weight_cache=_weight_cache(config, train_name, weight_root),
            checkpoint_every=config.checkpoint_every,
        )
    policies = {"Pensieve": suite.agent, **suite.controllers()}
    trace_groups = {
        name: list(dataset.split().test) for name, dataset in datasets.items()
    }
    tasks = [
        (scheme, test_name, index, config.eval_seed)
        for test_name in datasets
        for scheme in policies
        for index in range(len(trace_groups[test_name]))
    ]
    means = _sweep_sessions(manifest, policies, trace_groups, tasks)
    evaluations = {
        test_name: {
            scheme: {
                "qoe": means[(scheme, test_name)][0],
                "default_fraction": means[(scheme, test_name)][1],
            }
            for scheme in policies
        }
        for test_name in datasets
    }
    metadata = {
        "nd_qoe_in_distribution": suite.nd_qoe_in_distribution,
        "alpha_a_ensemble": suite.calibration_a.alpha,
        "alpha_v_ensemble": suite.calibration_v.alpha,
        "calibration_gap_a": suite.calibration_a.gap,
        "calibration_gap_v": suite.calibration_v.gap,
    }
    return {"evaluations": evaluations, "metadata": metadata}


def run_training_distribution(
    config: ExperimentConfig,
    train_name: str,
    cache: ArtifactCache | None = None,
    weight_root=None,
) -> dict:
    """Offline phase + full evaluation for one training distribution.

    Returns ``{"evaluations": {test -> scheme -> stats}, "metadata": ...}``.
    *weight_root* enables weight-level caching of the trained ensembles
    (see :func:`compute_training_distribution`).
    """
    if train_name not in config.datasets:
        raise ConfigError(
            f"{train_name!r} is not in this configuration's datasets"
        )
    if cache is None:
        return compute_training_distribution(
            config, train_name, weight_root=weight_root
        )
    return cache.get_or_compute(
        f"train_{train_name}",
        lambda: compute_training_distribution(
            config, train_name, weight_root=weight_root
        ),
    )


def run_all_distributions(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    max_workers: int | None = None,
    weight_root=None,
) -> EvaluationMatrix:
    """The full 6x6x6 evaluation matrix behind every figure.

    With *max_workers* > 1 the uncached training distributions build
    concurrently, one worker per distribution (the heaviest-grained unit
    of independent work, and the only pooled loop in the library).  The
    matrix is identical to the serial one.  *weight_root* enables
    weight-level caching of every distribution's trained ensembles.
    """
    matrix = EvaluationMatrix(datasets=tuple(config.datasets))
    with obs.span("experiment.baselines"):
        matrix.baselines = compute_baselines(config, cache)
    pending = [
        name
        for name in config.datasets
        if cache is None or not cache.has(f"train_{name}")
    ]
    with obs.span("experiment.build_distributions", pending=len(pending)):
        built = dict(
            zip(
                pending,
                parallel_map(
                    partial(
                        compute_training_distribution,
                        config,
                        weight_root=weight_root,
                    ),
                    pending,
                    max_workers=max_workers,
                ),
            )
        )
    for train_name in config.datasets:
        if train_name in built:
            run = built[train_name]
            if cache is not None:
                cache.store(f"train_{train_name}", run)
        else:
            run = run_training_distribution(
                config, train_name, cache, weight_root=weight_root
            )
        matrix.entries[train_name] = run["evaluations"]
        matrix.metadata[train_name] = run["metadata"]
    return matrix
