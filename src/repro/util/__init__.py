"""Shared utilities: deterministic RNG handling, statistics, serialization.

These helpers are numpy only and are used by every other subpackage, so
importing ``repro.util`` loads no other third-party package.  The paired
significance test in ``repro.util.significance`` needs scipy; it is not
re-exported here and is imported by its full path.
"""

from repro.util.bootstrap import ConfidenceInterval, bootstrap_ci
from repro.util.rng import child_rng, rng_from_seed, spawn_seeds
from repro.util.stats import (
    empirical_cdf,
    mean_std_window,
    normalize_scores,
    summarize,
)

__all__ = [
    "ConfidenceInterval",
    "bootstrap_ci",
    "child_rng",
    "empirical_cdf",
    "mean_std_window",
    "normalize_scores",
    "rng_from_seed",
    "spawn_seeds",
    "summarize",
]
