"""Data builders for every figure in the paper's evaluation (Section 3).

Each ``figureN`` function returns the numbers the corresponding figure
plots, as plain dictionaries; the benchmark harness prints them and
EXPERIMENTS.md records them.  All figures are projections of the
(train, test, scheme) evaluation matrix, so they share one cached
computation.  The safety schemes in that matrix run through
:class:`~repro.core.monitor.SafetyMonitor`-backed controllers (built by
:func:`repro.abr.suite.build_safety_suite`).

* Figure 1 — in-distribution QoE of Pensieve / ND / A-ensemble /
  V-ensemble / BB for the six (train = test) pairs.
* Figure 2 — raw QoE of Pensieve vs BB vs Random when trained on Belgium
  (2a) and on Gamma(2,2) (2b), tested on every dataset.
* Figure 3 — normalized Pensieve score for all 6x6 train/test pairs.
* Figure 4 — normalized max/min/mean/median of each scheme over the 30
  OOD pairs.
* Figure 5 — CDF of normalized performance over the 30 OOD pairs.
"""

from __future__ import annotations

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.normalization import normalize_matrix, normalized_score
from repro.experiments.training_runs import EvaluationMatrix, run_all_distributions
from repro.util.stats import empirical_cdf, summarize

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure4_significance",
    "figure5",
    "get_matrix",
]

_SAFETY_SCHEMES = ("ND", "A-ensemble", "V-ensemble")
_FIGURE2_TRAININGS = ("belgium", "gamma_2_2")


def get_matrix(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
    max_workers: int | None = None,
) -> EvaluationMatrix:
    """Fetch (or compute) the evaluation matrix all figures project from.

    *max_workers* builds the training distributions in a process pool on
    a cache miss; the numbers are identical to a serial run.
    """
    if matrix is not None:
        return matrix
    if cache is None:
        cache = ArtifactCache(config.describe())
    return run_all_distributions(config, cache, max_workers=max_workers)


def figure1(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """In-distribution QoE per scheme for each (train = test) dataset."""
    matrix = get_matrix(config, cache, matrix)
    schemes = ("Pensieve",) + _SAFETY_SCHEMES + ("BB",)
    series = {
        scheme: [matrix.qoe(name, name, scheme) for name in matrix.datasets]
        for scheme in schemes
    }
    return {"datasets": list(matrix.datasets), "series": series}


def figure2(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """Raw QoE of Pensieve/BB/Random, trained on Belgium and Gamma(2,2)."""
    matrix = get_matrix(config, cache, matrix)
    panels = {}
    for train in _FIGURE2_TRAININGS:
        if train not in matrix.datasets:
            raise ConfigError(
                f"figure 2 needs dataset {train!r} in the configuration"
            )
        panels[train] = {
            "datasets": list(matrix.datasets),
            "Pensieve": [
                matrix.qoe(train, test, "Pensieve") for test in matrix.datasets
            ],
            "BB": [matrix.qoe(train, test, "BB") for test in matrix.datasets],
            "Random": [
                matrix.qoe(train, test, "Random") for test in matrix.datasets
            ],
        }
    return panels


def figure3(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """Normalized Pensieve score for every (train, test) pair.

    Scores below 1 mean Pensieve loses to BB; below 0, to Random.
    """
    matrix = get_matrix(config, cache, matrix)
    scores = {
        train: {
            test: normalized_score(matrix, train, test, "Pensieve")
            for test in matrix.datasets
        }
        for train in matrix.datasets
    }
    return {"datasets": list(matrix.datasets), "scores": scores}


def figure4(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """Max/min/mean/median normalized OOD performance per scheme."""
    matrix = get_matrix(config, cache, matrix)
    normalized = normalize_matrix(matrix)
    pairs = matrix.ood_pairs()
    summary = {}
    for scheme in ("Pensieve",) + _SAFETY_SCHEMES:
        values = [normalized[train][test][scheme] for train, test in pairs]
        summary[scheme] = summarize(values)
    return {"ood_pairs": len(pairs), "summary": summary}


def figure4_significance(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """Paired statistical comparison of each safety scheme vs Pensieve.

    The schemes are evaluated on the *same* 30 OOD (train, test) pairs,
    so Wilcoxon signed-rank / sign tests on the normalized-score
    differences quantify whether Figure 4's orderings are meaningful.
    """
    from repro.util.significance import paired_comparison

    matrix = get_matrix(config, cache, matrix)
    normalized = normalize_matrix(matrix)
    pairs = matrix.ood_pairs()
    pensieve = [normalized[train][test]["Pensieve"] for train, test in pairs]
    comparisons = {}
    for scheme in _SAFETY_SCHEMES:
        scores = [normalized[train][test][scheme] for train, test in pairs]
        result = paired_comparison(scores, pensieve)
        comparisons[scheme] = {
            "mean_difference": result.mean_difference,
            "median_difference": result.median_difference,
            "wins": result.wins,
            "losses": result.losses,
            "ties": result.ties,
            "wilcoxon_p": result.wilcoxon_p,
            "sign_test_p": result.sign_test_p,
        }
    return {"ood_pairs": len(pairs), "vs": "Pensieve", "comparisons": comparisons}


def figure5(
    config: ExperimentConfig,
    cache: ArtifactCache | None = None,
    matrix: EvaluationMatrix | None = None,
) -> dict:
    """CDF of normalized OOD performance per scheme."""
    matrix = get_matrix(config, cache, matrix)
    normalized = normalize_matrix(matrix)
    pairs = matrix.ood_pairs()
    cdfs = {}
    for scheme in ("Pensieve",) + _SAFETY_SCHEMES:
        values = [normalized[train][test][scheme] for train, test in pairs]
        sorted_values, fractions = empirical_cdf(values)
        cdfs[scheme] = {
            "values": sorted_values.tolist(),
            "fractions": fractions.tolist(),
        }
    return {"ood_pairs": len(pairs), "cdfs": cdfs}
