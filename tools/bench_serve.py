#!/usr/bin/env python3
"""Benchmark gate for the multi-session serving engine.

Serves the same 16 concurrent monitored sessions two ways and demands
chunk-for-chunk identical trajectories:

* ``serial``  — per-session evaluation through
  :func:`repro.domains.run_monitored_session`, the one serial session
  loop (the reference),
* ``batched`` — :meth:`ServeEngine.run`, the continuous-batching SoA
  kernel: waves gathered from the structure-of-arrays session table,
  one batched ensemble forward and one vectorized monitor fold per wave.

The headline number is serial per-session evaluation vs. the batched
engine; the full run asserts batching contributes >= 1.3x for the
ensemble schemes at 16 sessions, and writes ``BENCH_serve.json`` at the
repository root so the perf trajectory is tracked PR over PR
(``tools/check_bench.py`` gates nightly runs against it).  Every run —
smoke or full — asserts that both variants produce identical sessions,
for the stateful ``ND`` scheme
(served by the same kernel, each slot measuring its own copy of the
signal row by row; an earlier wave loop made ND *slower* than serial,
recorded in ``nd_batching_fix``) as well as the batched ensemble
schemes; a slot-limited engine (``max_slots = sessions // 2``,
exercising continuous admission through the slot free-list) must also
match chunk for chunk.

The ``cc-demo`` scheme runs the same gauntlet for the second registered
domain — the congestion-control demo scheme (tabular Q ensemble, CUSUM
trigger) through the identical engine paths — so the serving stack's
domain-genericity is load-tested, not just unit-tested.

Wall times are the minimum over ``--repeats`` runs of each variant, the
standard defense against scheduler noise on shared machines.

Usage::

    PYTHONPATH=src python tools/bench_serve.py            # full gate
    PYTHONPATH=src python tools/bench_serve.py --smoke    # CI-sized

``--smoke`` shrinks the workload, runs each variant once, and skips both
the speedup assertion and the JSON artifact (machine-dependent numbers do
not belong in CI); every equality assertion still runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import dataclasses

from repro.abr.suite import build_safety_suite
from repro.core.osap import SafetyConfig
from repro.domains import (
    MonitoredScheme,
    apply_scenario,
    get_domain,
    run_monitored_session,
)
from repro.pensieve.training import TrainingConfig
from repro.policies.buffer_based import BufferBasedPolicy
from repro.serve import ServeEngine, SessionSpec
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest

ROOT = Path(__file__).resolve().parent.parent
#: The continuous-batching kernel must beat the serial loop by >= 1.3x
#: on the ensemble schemes.
MIN_SPEEDUP_BATCHING = 1.3
GATED_BATCHING_SCHEMES = ("A-ensemble", "V-ensemble")
#: serial/batched for the ND scheme before the wave loop was replaced by
#: sequential serving for non-batchable signals (the 0.95x regression).
ND_BATCHING_BEFORE_FIX = 0.9466
SESSIONS = 16


def build_bench_suite(smoke: bool):
    """Train one tiny safety suite to serve sessions from."""
    if smoke:
        training = TrainingConfig(epochs=1, gamma=0.9, n_step=4, filters=4, hidden=12)
        safety = SafetyConfig(
            ensemble_size=3,
            trim=1,
            ocsvm_k_synthetic=5,
            ocsvm_nu=0.2,
            max_ocsvm_samples=200,
        )
        manifest = envivio_dash3_manifest(repeats=1)
        dataset = make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=1)
        value_epochs = 2
    else:
        training = TrainingConfig(epochs=2, gamma=0.9, n_step=4, filters=8, hidden=48)
        safety = SafetyConfig(
            ensemble_size=5,
            trim=2,
            ocsvm_k_synthetic=5,
            ocsvm_nu=0.2,
            max_ocsvm_samples=300,
        )
        manifest = envivio_dash3_manifest(repeats=2)
        dataset = make_dataset("gamma_1_2", num_traces=6, duration_s=200.0, seed=1)
        value_epochs = 4
    split = dataset.split()
    suite = build_safety_suite(
        manifest,
        split,
        BufferBasedPolicy(manifest.bitrates_kbps),
        is_synthetic=dataset.is_synthetic,
        training_config=training,
        safety_config=safety,
        value_epochs=value_epochs,
        seed=0,
    )
    return manifest, split, suite


def make_specs(split, count: int) -> list[SessionSpec]:
    """*count* sessions cycling over the held-out test traces."""
    return [
        SessionSpec(
            trace=split.test[index % len(split.test)],
            seed=index,
            name=f"session-{index:03d}",
        )
        for index in range(count)
    ]


def fingerprint(result) -> tuple:
    """A session's trajectory as an exactly-comparable value.

    Per-step records are domain dataclasses (``ChunkRecord``,
    ``CCStepRecord``), so ``astuple`` compares every field of whichever
    record type the engine's factory produces.
    """
    return (
        result.trace_name,
        tuple(dataclasses.astuple(chunk) for chunk in result.chunks),
        result.observations.tobytes(),
    )


def run_serial(engine: ServeEngine, specs: list[SessionSpec]):
    """The per-session reference loop (one monitor, reset per session)."""
    monitor = engine.spawn_monitor()
    return [
        run_monitored_session(
            engine.factory,
            spec,
            engine.learned,
            engine.default,
            monitor,
            policy_name=spec.name,
        )
        for spec in specs
    ]


def _timed(fn, repeats: int):
    walls = []
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = fn()
        walls.append(time.perf_counter() - start)
    return min(walls), walls, results


def bench_scheme(
    name: str,
    scheme: MonitoredScheme,
    specs: list[SessionSpec],
    repeats: int,
    smoke: bool,
) -> dict:
    print(f"{name} ({len(specs)} sessions, repeats={repeats}) ...")
    engine = ServeEngine.from_scheme(scheme)

    serial, serial_runs, serial_results = _timed(
        lambda: run_serial(engine, specs), repeats
    )
    print(f"  serial           : {serial:8.3f}s  {[round(w, 3) for w in serial_runs]}")
    batched, batched_runs, batched_results = _timed(lambda: engine.run(specs), repeats)
    print(
        f"  engine batched   : {batched:8.3f}s  {[round(w, 3) for w in batched_runs]}"
    )

    # Continuous admission through the slot free-list: halving the slots
    # forces sessions to join mid-run, and must not change a single chunk.
    max_slots = max(1, len(specs) // 2)
    slotted_engine = ServeEngine.from_scheme(scheme, max_slots=max_slots)
    slotted_results = slotted_engine.run(specs)

    reference = [fingerprint(result) for result in serial_results]
    for variant, results in (
        ("batched", batched_results),
        (f"slot-limited (max_slots={max_slots})", slotted_results),
    ):
        if [fingerprint(result) for result in results] != reference:
            raise AssertionError(
                f"{name}: {variant} trajectories diverged from serial"
            )
    print(
        "  trajectories chunk-for-chunk identical across all variants "
        f"(incl. max_slots={max_slots})"
    )

    steps = sum(len(result.chunks) for result in serial_results)
    batching = serial / batched
    print(
        f"  speedup: {batching:.2f}x batching "
        f"({steps / serial:.0f} -> {steps / batched:.0f} steps/s)"
    )
    if not smoke and name in GATED_BATCHING_SCHEMES:
        if batching < MIN_SPEEDUP_BATCHING:
            raise AssertionError(
                f"{name}: batching speedup gate failed: "
                f"{batching:.2f}x < {MIN_SPEEDUP_BATCHING}x"
            )
    return {
        "sessions": len(specs),
        "steps": steps,
        "repeats": repeats,
        "optimized_serial_s": serial,
        "batched_s": batched,
        "max_slots_checked": max_slots,
        "batched_steps_per_second": steps / batched,
        "speedup_batching": batching,
        "trajectories_identical": True,
        "continuous_slots_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiny suite, one repeat, no speedup gate, no JSON",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=None,
        help=f"concurrent sessions (default: {SESSIONS}, smoke: 8)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per variant (min is reported)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_serve.json",
        help="where to write the benchmark JSON (full runs only)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    sessions = (
        args.sessions if args.sessions is not None else (8 if args.smoke else SESSIONS)
    )

    print("training bench suite ...")
    _, split, suite = build_bench_suite(args.smoke)
    specs = make_specs(split, sessions)

    schemes = {}
    for name, scheme in suite.controllers().items():
        schemes[name] = bench_scheme(name, scheme, specs, repeats, args.smoke)

    # Second domain through the identical gauntlet: the CC demo scheme
    # (tabular Q ensemble + CUSUM) over its provisioned trace corpus,
    # with a few shifted sessions so the default path is exercised too.
    print("building cc demo scheme ...")
    cc = get_domain("cc")
    cc_scheme = cc.demo_scheme()
    cc_split = cc.load_split(
        "logistic", num_traces=16, duration_s=96.0, seed=3
    )
    cc_traces = list(cc_split.test)
    cc_traces += [
        apply_scenario("abrupt_shift", trace, seed=index).trace
        for index, trace in enumerate(cc_traces[:2])
    ]
    cc_specs = [
        SessionSpec(
            trace=cc_traces[index % len(cc_traces)],
            seed=index,
            name=f"cc-session-{index:03d}",
        )
        for index in range(sessions)
    ]
    schemes["cc-demo"] = bench_scheme(
        "cc-demo", cc_scheme, cc_specs, repeats, args.smoke
    )

    if args.smoke:
        print("smoke run complete (no JSON written)")
        return 0

    payload = {
        "benchmark": "multi-session serving engine",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "sessions": sessions,
        "min_speedup_batching_gate": MIN_SPEEDUP_BATCHING,
        # The ND wave-loop regression and its fix (sequential serving for
        # non-batchable signals), in serial/batched ratios.  Keys avoid
        # the ``speedup`` prefix on purpose: before_fix is a historical
        # constant, not a gated ratio.
        "nd_batching_fix": {
            "before_fix": ND_BATCHING_BEFORE_FIX,
            "after_fix": round(schemes["ND"]["speedup_batching"], 4),
        },
        "schemes": schemes,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
