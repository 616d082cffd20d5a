#!/usr/bin/env python3
"""Benchmark gate for the parallel + vectorized evaluation engine.

Runs the scaled-down (train x test x scheme) evaluation matrix over the
six datasets two ways and demands they produce bitwise-identical
results:

* ``serial``     — one process (the reference),
* ``parallel``   — ``--workers`` process-pool workers, one training
  distribution per worker.

The full run writes ``BENCH_parallel.json`` at the repository root so
the perf trajectory is tracked PR over PR (``tools/check_bench.py``
gates nightly runs against it).  A micro section times the per-step hot
paths against their reference loops: the stacked 5-member ensemble
forward against the member-by-member loop, and pruned OC-SVM scoring
(cached support-vector norms) against ``rbf_kernel`` over the unpruned
model.

The two variants run as ``--pairs`` alternating pairs (the side that
runs first swaps every pair).  Each side is reported as the median and
quartiles of its walls, plus the number of pairs the pool won;
``speedup_parallel`` is serial median over pool median.

Usage::

    PYTHONPATH=src python tools/bench_parallel.py            # full gate
    PYTHONPATH=src python tools/bench_parallel.py --smoke    # CI-sized

``--smoke`` shrinks the workload, runs one pair, and skips the
JSON artifact (machine-dependent numbers do not belong in CI); every
equality assertion still runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import FAST
from repro.core.osap import SafetyConfig
from repro.experiments.training_runs import run_all_distributions
from repro.novelty.kernels import rbf_kernel
from repro.novelty.ocsvm import OneClassSVM
from repro.pensieve.model import ActorNetwork
from repro.pensieve.stacked import StackedActorEnsemble
from repro.pensieve.training import TrainingConfig
from repro.util.rng import rng_from_seed

ROOT = Path(__file__).resolve().parent.parent


def bench_config(smoke: bool):
    """The scaled-down experiment matrix the gate times."""
    if smoke:
        return FAST.scaled(
            name="bench-parallel-smoke",
            num_traces=4,
            trace_duration_s=120.0,
            video_repeats=1,
            training=TrainingConfig(
                epochs=1, gamma=0.9, n_step=4, filters=4, hidden=12
            ),
            safety=SafetyConfig(
                ensemble_size=3,
                trim=1,
                ocsvm_k_synthetic=5,
                ocsvm_nu=0.2,
                max_ocsvm_samples=200,
            ),
            value_epochs=2,
            datasets=("gamma_1_2", "exponential"),
            random_eval_repeats=1,
        )
    return FAST.scaled(
        name="bench-parallel",
        num_traces=6,
        trace_duration_s=200.0,
        video_repeats=2,
        training=TrainingConfig(
            epochs=2, gamma=0.9, n_step=4, filters=8, hidden=48
        ),
        safety=SafetyConfig(
            ensemble_size=5,
            trim=2,
            ocsvm_k_synthetic=5,
            ocsvm_nu=0.2,
            max_ocsvm_samples=300,
        ),
        value_epochs=4,
        datasets=FAST.datasets,
        random_eval_repeats=1,
    )


def _quartiles(walls: list[float]) -> dict:
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {"median_s": float(median), "q1_s": float(q1), "q3_s": float(q3)}


def bench_matrix(config, workers: int, pairs: int) -> dict:
    print(f"evaluation matrix ({config.name}, {pairs} alternating pairs) ...")
    walls: dict[int, list[float]] = {1: [], workers: []}
    reference = None
    for pair in range(pairs):
        order = (1, workers) if pair % 2 == 0 else (workers, 1)
        for width in order:
            start = time.perf_counter()
            payload = run_all_distributions(config, max_workers=width).to_payload()
            walls[width].append(time.perf_counter() - start)
            if reference is None:
                reference = payload
            elif payload != reference:
                raise AssertionError("QoE matrices diverged between variants")
        print(
            f"  pair {pair + 1:2d}: serial {walls[1][-1]:6.2f}s  "
            f"{workers} workers {walls[workers][-1]:6.2f}s"
        )
    print("  QoE matrices bitwise identical across both variants")

    serial, parallel = _quartiles(walls[1]), _quartiles(walls[workers])
    wins = sum(p < s for s, p in zip(walls[1], walls[workers]))
    parallel_factor = serial["median_s"] / parallel["median_s"]
    print(
        f"  serial median {serial['median_s']:.2f}s "
        f"(IQR {serial['q1_s']:.2f}-{serial['q3_s']:.2f}), "
        f"{workers} workers median {parallel['median_s']:.2f}s "
        f"(IQR {parallel['q1_s']:.2f}-{parallel['q3_s']:.2f}), "
        f"pool wins {wins}/{pairs}, speedup {parallel_factor:.2f}x"
    )
    return {
        "config": config.name,
        "datasets": list(config.datasets),
        "ensemble_size": config.safety.ensemble_size,
        "pairs": pairs,
        "workers": workers,
        "serial": serial,
        "parallel": parallel,
        "parallel_wins": wins,
        "speedup_parallel": parallel_factor,
        "qoe_bitwise_identical": True,
    }


def bench_stacked_forward(members: int = 5, steps: int = 400) -> dict:
    """Per-step U_pi forward: member loop vs. one stacked pass."""
    actors = [
        ActorNetwork(6, rng_from_seed(100 + i), filters=8, hidden=48)
        for i in range(members)
    ]
    stacked = StackedActorEnsemble(actors)
    observations = rng_from_seed(7).normal(size=(steps, 6, 8))

    start = time.perf_counter()
    loop_out = [
        np.stack([actor.probabilities(obs[None])[0] for actor in actors])
        for obs in observations
    ]
    loop_s = time.perf_counter() - start

    start = time.perf_counter()
    stacked_out = [stacked.probabilities(obs) for obs in observations]
    stacked_s = time.perf_counter() - start

    identical = all(
        np.array_equal(a, b) for a, b in zip(loop_out, stacked_out)
    )
    if not identical:
        raise AssertionError("stacked ensemble forward diverged from member loop")
    result = {
        "members": members,
        "steps": steps,
        "loop_us_per_step": loop_s / steps * 1e6,
        "stacked_us_per_step": stacked_s / steps * 1e6,
        "speedup": loop_s / stacked_s,
        "bitwise_identical": True,
    }
    print(
        f"  stacked {members}-member forward: "
        f"{result['loop_us_per_step']:.0f}us -> {result['stacked_us_per_step']:.0f}us "
        f"per step ({result['speedup']:.2f}x, bitwise identical)"
    )
    return result


def bench_ocsvm_scoring(n_train: int = 400, n_query: int = 2000) -> dict:
    """Per-step novelty score: ``rbf_kernel`` over the unpruned model vs.
    the pruned model's cached-norm scoring."""
    rng = np.random.default_rng(11)
    train = rng.normal(size=(n_train, 6))
    queries = rng.normal(size=(n_query, 6))
    pruned = OneClassSVM(nu=0.1).fit(train)
    unpruned = OneClassSVM(nu=0.1, prune=False).fit(train)

    def reference_scores():
        kernel = rbf_kernel(queries, unpruned.support_vectors_, unpruned._gamma_value)
        return kernel @ unpruned.dual_coef_ - unpruned.rho_

    # Scores, then predictions from a second pass, as scores() + predict().
    start = time.perf_counter()
    reference = reference_scores()
    reference_pred = np.where(reference_scores() >= 0.0, 1, -1)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    fast = pruned.scores(queries)
    fast_pred = pruned.predict(queries)
    fast_s = time.perf_counter() - start

    max_diff = float(np.max(np.abs(fast - reference)))
    # Dropping exact-zero dual coefficients changes BLAS's pairwise-sum
    # grouping, so scores may differ by one ULP (~1e-16); predictions and
    # everything downstream are identical.
    if not np.allclose(fast, reference, rtol=0.0, atol=1e-12):
        raise AssertionError(f"pruned OC-SVM scores diverged: {max_diff}")
    if not np.array_equal(fast_pred, reference_pred):
        raise AssertionError("pruned OC-SVM predictions diverged")
    result = {
        "train_samples": n_train,
        "support_vectors": int(pruned.support_vectors_.shape[0]),
        "queries": n_query,
        "reference_us_per_query": reference_s / n_query * 1e6,
        "fast_us_per_query": fast_s / n_query * 1e6,
        "speedup": reference_s / fast_s,
        "max_abs_score_diff": max_diff,
        "predictions_identical": True,
    }
    print(
        f"  OC-SVM scoring ({result['support_vectors']}/{n_train} SVs kept): "
        f"{result['reference_us_per_query']:.1f}us -> {result['fast_us_per_query']:.1f}us "
        f"per query ({result['speedup']:.2f}x, max score diff {max_diff:.1e})"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiny matrix, one pair, no JSON",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pool size for the parallel variant"
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=None,
        help="alternating serial/pool timing pairs (default: 10, smoke: 1)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_parallel.json",
        help="where to write the benchmark JSON (full runs only)",
    )
    args = parser.parse_args(argv)
    if args.workers < 2:
        parser.error("--workers must be >= 2 (the serial side is the reference)")
    pairs = args.pairs if args.pairs is not None else (1 if args.smoke else 10)

    config = bench_config(args.smoke)
    matrix = bench_matrix(config, args.workers, pairs)
    print("per-step micro-benchmarks ...")
    micro = {
        "stacked_ensemble_forward": bench_stacked_forward(
            members=config.safety.ensemble_size, steps=100 if args.smoke else 400
        ),
        "ocsvm_scoring": bench_ocsvm_scoring(
            n_train=150 if args.smoke else 400,
            n_query=300 if args.smoke else 2000,
        ),
    }

    if args.smoke:
        print("smoke run complete (no JSON written)")
        return 0

    payload = {
        "benchmark": "parallel + vectorized evaluation engine",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "matrix": matrix,
        "micro": micro,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
