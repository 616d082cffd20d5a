"""The in-process serving workloads: ``abr-suite`` and ``cc-shift``.

Both serve a fixed traffic set through :class:`repro.serve.ServeEngine`
in one closed loop: one operation is one ``run_inprocess`` call over a
group of sessions, with fewer slots than sessions so the continuous
kernel admits sessions mid-run.  Operations cycle through every
(scheme, group) pair, so each run serves the same mix.

Every served session is compared with the serial reference
:func:`repro.domains.runner.run_monitored_session`, computed once before
the timed loop; comparisons happen between operations, outside the
timed regions.
"""

from __future__ import annotations

import contextlib
import time
import traceback

from repro.core.monitor import MonitorTable, SafetyMonitor
from repro.domains import get_domain, run_monitored_session
from repro.serve import ServeEngine

from common import (
    CORPUS_SEED,
    EVALUATION_SEED,
    EVALUATION_SESSIONS,
    BestTimes,
    QUALITY_METRICS,
    Session,
    abr_step_times,
    arrivals,
    cc_step_times,
    fingerprint,
    handoff_quality,
    layer_split,
    traffic,
)
from tracer import TracedFactory, TracedPolicy, TracedSignal, Tracer

#: Monitor classes the kernel instantiates itself, timed by class patch.
MONITOR_TARGETS = (
    (MonitorTable, "observe_measured", "monitor.fold"),
    (MonitorTable, "observe_sticky", "monitor.fold"),
    (SafetyMonitor, "observe", "monitor.observe"),
)


class InProcessWorkload:
    """Shared loop of the in-process workloads.

    Subclasses provide the traffic (:meth:`make_traffic`), the offline
    phase (:meth:`train`: a session factory plus ``{scheme: (learned,
    default, signal, trigger, allow_revert)}``) and the set-up calls the
    traced run times (:meth:`setup_targets`).
    """

    #: Sessions served per run, per operation, and the slots they share.
    traffic_sessions = 32
    group_size = 8
    max_slots = 4

    def __init__(self, seed: int, small: bool, corrupt: bool) -> None:
        self.seed = seed
        self.small = small
        self.corrupt = corrupt

    def make_traffic(self, seed: int, count: int) -> list[Session]:
        raise NotImplementedError

    def train(self):
        raise NotImplementedError

    def setup_targets(self) -> list:
        raise NotImplementedError

    def step_times(self, chunks) -> list[float]:
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------

    def setup(self, tracer: Tracer | None) -> None:
        """Train or build the schemes and the engines that serve them."""
        make_traffic = self.make_traffic
        patches = contextlib.nullcontext()
        if tracer is not None:
            make_traffic = tracer.wrap("setup.traces", make_traffic)
            patches = tracer.patch(self.setup_targets())
        with patches:
            count = 8 if self.small else self.traffic_sessions
            self.sessions = arrivals(make_traffic(CORPUS_SEED, count), self.seed)
            factory, schemes = self.train()
        self.engines = {
            name: ServeEngine(
                factory, learned, default, signal, trigger,
                allow_revert=allow_revert, name=name, max_slots=self.max_slots,
            )
            for name, (learned, default, signal, trigger, allow_revert)
            in schemes.items()
        }
        self.groups = [
            list(range(start, min(start + self.group_size, len(self.sessions))))
            for start in range(0, len(self.sessions), self.group_size)
        ]
        self.jobs = [
            (name, group) for group in range(len(self.groups)) for name in schemes
        ]
        self.runs = {name: engine.run_inprocess for name, engine in self.engines.items()}
        self.traced_runs = {}
        if tracer is not None:
            self.traced_runs = self._traced_runs(tracer, factory, schemes)

    def _traced_runs(self, tracer: Tracer, factory, schemes) -> dict:
        """Timed twins of the engines, sharing one wrapper per object."""
        traced_factory = TracedFactory(factory, tracer)
        policies = {}

        def traced_policy(policy, layer):
            if id(policy) not in policies:
                policies[id(policy)] = TracedPolicy(policy, tracer, layer)
            return policies[id(policy)]

        runs = {}
        for name, (learned, default, signal, trigger, allow_revert) in schemes.items():
            engine = ServeEngine(
                traced_factory,
                traced_policy(learned, "policy.learned"),
                traced_policy(default, "policy.default"),
                TracedSignal(signal, tracer),
                trigger,
                allow_revert=allow_revert,
                name=name,
                max_slots=self.max_slots,
            )
            runs[name] = tracer.wrap(f"serve.run.{name}", engine.run_inprocess)
        return runs

    # -- reference --------------------------------------------------------

    def reference(self) -> None:
        """Serial reference trajectories, and hand-off quality on the
        fixed evaluation traffic."""

        def serial(engine, session):
            return run_monitored_session(
                engine.factory,
                session.spec,
                engine.learned,
                engine.default,
                engine.spawn_monitor(),
            )

        self.expected = {
            (name, index): fingerprint(serial(engine, session))
            for name, engine in self.engines.items()
            for index, session in enumerate(self.sessions)
        }
        outcomes = []
        evaluation = self.make_traffic(
            EVALUATION_SEED, 8 if self.small else EVALUATION_SESSIONS
        )
        for engine in self.engines.values():
            for session in evaluation:
                chunks = serial(engine, session).chunks
                outcomes.append(
                    (
                        [record.defaulted for record in chunks],
                        self.step_times(chunks),
                        session.onset_s,
                    )
                )
        self.quality = handoff_quality(outcomes)
        if self.corrupt:
            # Flip the first recorded decision of one session: serving it
            # must now count as a failed operation.
            key = next(iter(self.expected))
            records, observations = self.expected[key]
            first = list(records[0])
            first[-1] = not first[-1]
            self.expected[key] = ((tuple(first),) + records[1:], observations)

    # -- the timed loop ---------------------------------------------------

    def serve(self, seconds: float, tracer: Tracer | None) -> dict:
        """Cycle through the jobs until each phase has served *seconds*.

        With a tracer, traced and untraced operations alternate and
        split the time evenly; only untraced operations give latency and
        throughput.
        """
        phases = [False, True] if tracer is not None else [False]
        budget = seconds / len(phases)
        best = {phase: BestTimes() for phase in phases}
        wall = dict.fromkeys(phases, 0.0)
        decisions = dict.fromkeys(phases, 0)
        attempted = failed = 0
        turn = 0
        while True:
            # Each phase runs every job at least once, then fills its budget.
            open_phases = [
                phase for phase in phases
                if wall[phase] < budget or best[phase].repeats < len(self.jobs)
            ]
            if not open_phases:
                break
            traced = open_phases[turn % len(open_phases)]
            turn += 1
            job = self.jobs[best[traced].repeats % len(self.jobs)]
            name, group = job
            indices = self.groups[group]
            specs = [self.sessions[index].spec for index in indices]
            run = (self.traced_runs if traced else self.runs)[name]
            patches = (
                tracer.patch(MONITOR_TARGETS) if traced else contextlib.nullcontext()
            )
            with patches:
                start = time.perf_counter()
                try:
                    results = run(specs)
                except Exception:
                    traceback.print_exc()
                    results = None
                elapsed = time.perf_counter() - start
            wall[traced] += elapsed
            attempted += len(indices)
            if results is None:
                failed += len(indices)
                best[traced].repeats += 1
                continue
            failed += sum(
                fingerprint(result) != self.expected[name, index]
                for index, result in zip(indices, results)
            )
            count = sum(len(result.chunks) for result in results)
            decisions[traced] += count
            best[traced].add(job, elapsed, count)
        plain = best[False]
        metrics = {
            "decisions_per_s": plain.rate(),
            **plain.latency_metrics(),
            **{name: self.quality[name] for name in QUALITY_METRICS},
        }
        outcome = {
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "info": {
                "operations": plain.repeats,
                "jobs": len(self.jobs),
                "sessions_per_operation": self.group_size,
                "slots": self.max_slots,
                "mean_decisions_per_s": decisions[False] / wall[False],
                "quality": self.quality,
            },
        }
        if tracer is not None:
            split = layer_split(tracer.snapshot(), wall[True])
            split["trace.decisions"] = decisions[True]
            split["trace.overhead_frac"] = best[True].overhead(plain)
            outcome["layers"] = split
        return outcome

    def close(self) -> None:
        """Nothing to release: everything ran in this process."""


class AbrSuite(InProcessWorkload):
    """One trained ABR suite serving ND, A-ensemble and V-ensemble."""

    def make_traffic(self, seed: int, count: int) -> list[Session]:
        from repro.traces.dataset import make_dataset

        traces = make_dataset(
            "gamma_1_2",
            num_traces=count,
            duration_s=200.0,
            seed=seed,
        ).traces
        return traffic(traces)

    def train(self):
        from repro.abr.suite import build_safety_suite
        from repro.core.osap import SafetyConfig
        from repro.pensieve.training import TrainingConfig
        from repro.policies.buffer_based import BufferBasedPolicy
        from repro.traces.dataset import make_dataset
        from repro.video.envivio import envivio_dash3_manifest

        # The deployed model is fixed; only the traffic follows the seed.
        manifest = envivio_dash3_manifest(repeats=1)
        split = make_dataset("gamma_1_2", num_traces=8, duration_s=200.0, seed=1).split()
        suite = build_safety_suite(
            manifest,
            split,
            BufferBasedPolicy(manifest.bitrates_kbps),
            is_synthetic=True,
            training_config=TrainingConfig(
                epochs=3, gamma=0.9, n_step=4, filters=8, hidden=32
            ),
            safety_config=SafetyConfig(
                ensemble_size=5,
                trim=2,
                ocsvm_k_synthetic=5,
                ocsvm_nu=0.2,
                max_ocsvm_samples=300,
            ),
            value_epochs=4,
            seed=0,
            max_workers=1,
        )
        factory = get_domain("abr").session_factory(manifest=manifest)
        schemes = {
            name: (
                controller.learned,
                controller.default,
                controller.signal,
                controller.trigger,
                controller.allow_revert,
            )
            for name, controller in suite.controllers().items()
        }
        return factory, schemes

    def setup_targets(self) -> list:
        from repro.abr import suite
        from repro.novelty.base import NoveltyDetector

        return [
            (suite, "train_agent_ensemble", "setup.train_agents"),
            (suite, "train_value_ensemble", "setup.train_values"),
            (suite, "collect_training_throughputs", "setup.novelty_fit"),
            (suite, "throughput_window_samples", "setup.novelty_fit"),
            (NoveltyDetector, "fit", "setup.novelty_fit"),
            (suite, "evaluate_mean_qoe", "setup.calibrate"),
            (suite, "calibrate_variance_threshold", "setup.calibrate"),
        ]

    def step_times(self, chunks) -> list[float]:
        return abr_step_times(chunks)


class CcShift(InProcessWorkload):
    """The congestion-control demo scheme over many more sessions than slots."""

    traffic_sessions = 48
    group_size = 16

    def make_traffic(self, seed: int, count: int) -> list[Session]:
        split = get_domain("cc").load_split(
            "logistic",
            num_traces=count,
            duration_s=96.0,
            seed=seed,
        )
        return traffic(split.train + split.validation + split.test)

    def train(self):
        scheme = get_domain("cc").demo_scheme()
        return scheme.factory, {
            scheme.name: (
                scheme.learned,
                scheme.default,
                scheme.signal,
                scheme.trigger,
                scheme.allow_revert,
            )
        }

    def setup_targets(self) -> list:
        from repro.domains import cc

        return [(cc, "train_q_learning", "setup.train_q")]

    def step_times(self, chunks) -> list[float]:
        from repro.domains.cc import STEP_S

        return cc_step_times(chunks, STEP_S)
