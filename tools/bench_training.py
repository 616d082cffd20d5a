#!/usr/bin/env python3
"""Benchmark gate for the lockstep ensemble trainer.

Trains the same multi-member A2C ensemble two ways and demands they
produce bitwise-identical weights:

* ``legacy``   — the per-member oracle (``tests/pensieve_oracles.py``):
  each member trains alone through its own networks, one after another,
* ``lockstep`` — :func:`train_agent_ensemble`: all members advance
  together through :class:`A2CTrainer` with stacked forward/backward
  passes and a stacked RMSProp update.

The headline number is the legacy vs. lockstep wall time for a 5-member
agent ensemble; the full run asserts it is >= 3x — for **two different
root seeds**, each of which must also match the reference float for
float — and writes ``BENCH_training.json`` at the repository root so the
perf trajectory is tracked PR over PR.  Further sections time the
lockstep value-function regression against its per-member oracle, the
vectorized n-step return scan against the reference nested loop, a
weight-cache round trip (store + load vs. retrain), and the CC demo
scheme's Q-tables (``_demo_tables(0, 4)``, trained from raw PCG64
blocks) against the numpy oracle loop that calls ``rng.random()`` and
``rng.integers()`` per step, over the same training envs; the tables
must be byte-equal (no timing floor).

Wall times are the minimum over ``--repeats`` runs of each variant, the
standard defense against scheduler noise on shared machines.

Usage::

    PYTHONPATH=src python tools/bench_training.py            # full gate
    PYTHONPATH=src python tools/bench_training.py --smoke    # CI-sized

``--smoke`` shrinks the workload, runs each variant once, and skips both
the speedup assertion and the JSON artifact (machine-dependent numbers do
not belong in CI); every bitwise-equality assertion still runs.
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

ROOT = Path(__file__).resolve().parent.parent
# The per-member baselines are the test oracles in tests/pensieve_oracles.py.
sys.path.insert(0, str(ROOT))

from repro.domains import cc  # noqa: E402
from repro.experiments.artifacts import ArtifactCache  # noqa: E402
from repro.pensieve.ensemble import (  # noqa: E402
    train_agent_ensemble,
    train_value_ensemble,
)
from repro.pensieve.training import TrainingConfig, n_step_targets  # noqa: E402
from repro.traces.dataset import make_dataset  # noqa: E402
from repro.util.rng import rng_from_seed, spawn_seeds  # noqa: E402
from repro.video.envivio import envivio_dash3_manifest  # noqa: E402
from tests import pensieve_oracles, qlearning_oracles  # noqa: E402

MIN_SPEEDUP = 3.0


def bench_workload(smoke: bool):
    """The (manifest, traces, config, members) tuple the gate times."""
    manifest = envivio_dash3_manifest(repeats=1)
    if smoke:
        traces = make_dataset(
            "gamma_1_2", num_traces=3, duration_s=120.0, seed=0
        ).split().train
        config = TrainingConfig(
            epochs=2, episodes_per_epoch=1, filters=4, hidden=12
        )
        return manifest, traces, config, 3
    traces = make_dataset(
        "gamma_1_2", num_traces=6, duration_s=200.0, seed=0
    ).split().train
    config = TrainingConfig(epochs=12, episodes_per_epoch=2, filters=8, hidden=48)
    return manifest, traces, config, 5


def _weights(agents) -> list[np.ndarray]:
    return [
        param
        for agent in agents
        for network in (agent.actor, agent.critic)
        for param in network.params
    ]


def _assert_identical(reference, candidate, what: str) -> None:
    if len(reference) != len(candidate) or not all(
        np.array_equal(a, b) for a, b in zip(reference, candidate)
    ):
        raise AssertionError(f"{what}: weights diverged from the reference")


def bench_agent_ensemble(
    manifest, traces, config, members: int, repeats: int, smoke: bool
) -> dict:
    """Per-member oracle training vs. the lockstep trainer, two seeds."""
    print(f"agent ensemble ({members} members, repeats={repeats}) ...")
    per_seed = []
    for root_seed in (0, 1):
        legacy_walls, lockstep_walls = [], []
        reference = fast = None
        for _ in range(repeats):
            start = time.perf_counter()
            reference = pensieve_oracles.train_agents(
                manifest, traces, config, spawn_seeds(root_seed, members)
            )
            legacy_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            fast = train_agent_ensemble(
                manifest, traces, size=members, config=config,
                root_seed=root_seed,
            )
            lockstep_walls.append(time.perf_counter() - start)
        _assert_identical(
            _weights(reference), _weights(fast), f"agent ensemble seed {root_seed}"
        )
        legacy, lockstep = min(legacy_walls), min(lockstep_walls)
        speedup = legacy / lockstep
        print(
            f"  seed {root_seed}: legacy {legacy:6.2f}s -> lockstep "
            f"{lockstep:6.2f}s ({speedup:.2f}x, weights bitwise identical)"
        )
        if not smoke and speedup < MIN_SPEEDUP:
            raise AssertionError(
                f"agent-ensemble speedup gate failed for seed {root_seed}: "
                f"{speedup:.2f}x < {MIN_SPEEDUP}x"
            )
        per_seed.append(
            {
                "root_seed": root_seed,
                "legacy_s": legacy,
                "lockstep_s": lockstep,
                "speedup": speedup,
                "weights_bitwise_identical": True,
            }
        )
    return {
        "members": members,
        "epochs": config.epochs,
        "episodes_per_epoch": config.episodes_per_epoch,
        "repeats": repeats,
        "seeds": per_seed,
        "min_speedup_gate": None if smoke else MIN_SPEEDUP,
    }


def bench_value_ensemble(
    manifest, traces, config, members: int, repeats: int
) -> dict:
    """Per-member oracle value regression vs. the stacked pass."""
    print(f"value ensemble ({members} members, repeats={repeats}) ...")
    agent = train_agent_ensemble(
        manifest, traces, size=1, config=config, root_seed=0
    )[0]
    epochs = 20 if members > 3 else 5
    kwargs = dict(
        size=members, gamma=config.gamma, epochs=epochs,
        filters=config.filters, hidden=config.hidden, root_seed=0,
    )
    legacy_walls, lockstep_walls = [], []
    reference = fast = None
    for _ in range(repeats):
        start = time.perf_counter()
        reference = pensieve_oracles.train_values(agent, manifest, traces, **kwargs)
        legacy_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast = train_value_ensemble(agent, manifest, traces, **kwargs)
        lockstep_walls.append(time.perf_counter() - start)
    _assert_identical(
        [p for member in reference for p in member.critic.params],
        [p for member in fast for p in member.critic.params],
        "value ensemble",
    )
    legacy, lockstep = min(legacy_walls), min(lockstep_walls)
    print(
        f"  legacy {legacy:6.2f}s -> lockstep {lockstep:6.2f}s "
        f"({legacy / lockstep:.2f}x, weights bitwise identical)"
    )
    return {
        "members": members,
        "epochs": epochs,
        "legacy_s": legacy,
        "lockstep_s": lockstep,
        "speedup": legacy / lockstep,
        "weights_bitwise_identical": True,
    }


def bench_n_step_targets(horizon: int = 400, trials: int = 50) -> dict:
    """Vectorized reverse-scan vs. the reference nested loop."""
    rng = rng_from_seed(3)
    episodes = [
        (rng.normal(size=horizon), rng.normal(size=horizon))
        for _ in range(trials)
    ]
    gamma, n_step = 0.95, 8

    start = time.perf_counter()
    reference = [
        pensieve_oracles.n_step_targets_reference(rewards, values, gamma, n_step)
        for rewards, values in episodes
    ]
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    fast = [
        n_step_targets(rewards, values, gamma, n_step)
        for rewards, values in episodes
    ]
    fast_s = time.perf_counter() - start

    if not all(np.array_equal(a, b) for a, b in zip(reference, fast)):
        raise AssertionError("vectorized n-step targets diverged from reference")
    result = {
        "horizon": horizon,
        "n_step": n_step,
        "trials": trials,
        "reference_us_per_episode": reference_s / trials * 1e6,
        "fast_us_per_episode": fast_s / trials * 1e6,
        "speedup": reference_s / fast_s,
        "bitwise_identical": True,
    }
    print(
        f"  n-step targets (horizon {horizon}): "
        f"{result['reference_us_per_episode']:.0f}us -> "
        f"{result['fast_us_per_episode']:.0f}us per episode "
        f"({result['speedup']:.1f}x, bitwise identical)"
    )
    return result


def bench_weight_cache(
    manifest, traces, config, members: int, tmp_root: Path
) -> dict:
    """Store + load round trip vs. retraining the same ensemble."""
    cache = ArtifactCache(
        {"benchmark": "training", "members": members}, root=tmp_root
    )
    start = time.perf_counter()
    trained = train_agent_ensemble(
        manifest, traces, size=members, config=config, root_seed=0, cache=cache
    )
    train_and_store_s = time.perf_counter() - start
    start = time.perf_counter()
    loaded = train_agent_ensemble(
        manifest, traces, size=members, config=config, root_seed=0, cache=cache
    )
    load_s = time.perf_counter() - start
    _assert_identical(_weights(trained), _weights(loaded), "weight cache")
    result = {
        "members": members,
        "train_and_store_s": train_and_store_s,
        "load_s": load_s,
        "speedup": train_and_store_s / load_s,
        "weights_bitwise_identical": True,
    }
    print(
        f"  weight cache: train+store {train_and_store_s:.2f}s -> "
        f"load {load_s * 1e3:.1f}ms ({result['speedup']:.0f}x, "
        f"weights bitwise identical)"
    )
    return result


def bench_q_tables(repeats: int, seed: int = 0, ensemble_size: int = 4) -> dict:
    """The CC demo Q-tables (uncached) vs. the numpy oracle loop."""
    print(f"CC demo Q-tables (seed {seed}, {ensemble_size} members) ...")
    traces = cc._training_traces()
    oracle_walls, lean_walls = [], []
    reference = lean = None
    for _ in range(repeats):
        start = time.perf_counter()
        reference = [
            qlearning_oracles.train_q_table(
                cc._CyclingTraceEnv(traces, cc.DEFAULT_HORIZON),
                cc._state_of,
                cc.NUM_STATES,
                **options,
            )
            for options in cc._demo_training_runs(seed, ensemble_size)
        ]
        oracle_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        learned, members = cc._demo_tables.__wrapped__(seed, ensemble_size)
        lean_walls.append(time.perf_counter() - start)
        lean = [learned, *members]
    if [table.tobytes() for table in reference] != [
        table.tobytes() for table in lean
    ]:
        raise AssertionError("CC demo Q-tables diverged from the numpy oracle")
    oracle, fast = min(oracle_walls), min(lean_walls)
    print(
        f"  oracle {oracle:6.2f}s -> train_q_learning {fast:6.2f}s "
        f"({oracle / fast:.2f}x, tables byte-identical)"
    )
    return {
        "seed": seed,
        "ensemble_size": ensemble_size,
        "repeats": repeats,
        "oracle_s": oracle,
        "lean_s": fast,
        "speedup": oracle / fast,
        "tables_byte_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiny ensemble, one repeat, no speedup gate, no JSON",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per variant (min is reported)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_training.json",
        help="where to write the benchmark JSON (full runs only)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)

    manifest, traces, config, members = bench_workload(args.smoke)
    agent = bench_agent_ensemble(
        manifest, traces, config, members, repeats, args.smoke
    )
    value = bench_value_ensemble(manifest, traces, config, members, repeats)
    print("micro-benchmarks ...")
    micro = {
        "n_step_targets": bench_n_step_targets(
            horizon=100 if args.smoke else 400, trials=10 if args.smoke else 50
        ),
    }
    print("weight cache ...")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cache = bench_weight_cache(manifest, traces, config, members, Path(tmp))

    q_tables = bench_q_tables(repeats)

    if args.smoke:
        print("smoke run complete (no JSON written)")
        return 0

    payload = {
        "benchmark": "batched ensemble training engine",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "agent_ensemble": agent,
        "value_ensemble": value,
        "micro": micro,
        "weight_cache": cache,
        "q_tables": q_tables,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
