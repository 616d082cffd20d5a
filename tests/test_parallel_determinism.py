"""Serial and parallel execution must be bitwise interchangeable.

The pool's contract is that ``max_workers`` only changes wall-clock
time: the one pooled loop maps self-contained training-distribution
names in a fixed order, so the experiment pipeline produces the same
floats at any pool size.

This is the gate for that contract: the full experiment matrix —
datasets, suites, calibration, evaluation — must be identical serially
and through a real process pool.  (``test_equivalence_sweep.py`` covers
the training engines, which never pool.)
"""

import pytest

from repro import parallel
from repro.config import FAST
from repro.core.osap import SafetyConfig
from repro.experiments.training_runs import run_all_distributions
from repro.pensieve.training import TrainingConfig


@pytest.fixture(scope="module")
def tiny_config():
    return FAST.scaled(
        name="tiny-parallel",
        num_traces=4,
        trace_duration_s=200.0,
        video_repeats=1,
        training=TrainingConfig(epochs=2, gamma=0.9, n_step=4, filters=4, hidden=12),
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


@pytest.mark.parametrize("max_workers", [4])
def test_run_all_distributions_identical_across_pool_sizes(
    tiny_config, max_workers, monkeypatch
):
    # The pool size is capped at os.cpu_count(); pretend this machine has
    # enough cores so a real pool (two workers, one per distribution) runs
    # even on 1-CPU CI instead of comparing serial against serial.
    monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 4)
    serial = run_all_distributions(tiny_config, max_workers=1)
    pools = []
    pool_map = parallel._pool_map

    def spy(fn, items, workers):
        pools.append(workers)
        return pool_map(fn, items, workers)

    monkeypatch.setattr(parallel, "_pool_map", spy)
    pooled = run_all_distributions(tiny_config, max_workers=max_workers)
    assert pools == [2]
    assert serial.to_payload() == pooled.to_payload()
