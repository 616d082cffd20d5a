"""Property tests for the continuous-batching serve kernel.

The invariant under test (the tentpole contract): **any** interleaving
of admissions and completions through the SoA session table — any spec
count, any ``max_slots``, any trigger family — yields per-session
trajectories bitwise identical to serving each spec alone through the
reference loop.  The stub signals compute per-row values independently
of batch composition, so the property is exact regardless of which
sessions happen to share a wave.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.abr.session import run_monitored_session
from repro.core.monitor import MonitorTable, SafetyMonitor
from repro.core.strategies import CusumTrigger, EWMATrigger, HysteresisTrigger
from repro.core.thresholding import ConsecutiveTrigger, VarianceTrigger
from repro.domains import get_domain
from repro.errors import SafetyError
from repro.pensieve.agent import PensieveAgent
from repro.pensieve.model import ActorNetwork
from repro.perf import fast_paths
from repro.policies.buffer_based import BufferBasedPolicy
from repro.serve import ServeEngine, SessionSpec
from repro.traces.dataset import make_dataset

from tests.test_serve_engine import (
    SCHEMES,
    _ObsPolicy,
    _engine as _scheme_engine,
    _fingerprint,
    _serial_reference,
)


class _RowwiseSignal:
    """Stateless signal whose batch path is a per-row loop.

    Each row's value depends only on its own observation, so batched
    measurements are bitwise identical to scalar ones for every batch
    composition — hypothesis can then demand exact equality across
    arbitrary admission/completion interleavings.
    """

    stateless = True

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self._weights = np.random.default_rng(seed).normal(size=48)
        self._scale = scale

    def reset(self) -> None:
        pass

    def measure(self, observation) -> float:
        flat = np.asarray(observation, dtype=float).reshape(-1)
        return abs(float(self._weights @ flat)) * self._scale

    def measure_batch(self, observations) -> np.ndarray:
        return np.array([self.measure(row) for row in observations])


TRIGGERS = {
    "variance": lambda: VarianceTrigger(alpha=0.05, k=3, l=2),
    "consecutive": lambda: ConsecutiveTrigger(l=4),
    "ewma": lambda: EWMATrigger(bar=0.6, alpha=0.3),
    "cusum": lambda: CusumTrigger(threshold=3.0, drift=0.4),
    "hysteresis": lambda: HysteresisTrigger(high=0.8, low=0.2),
}


@pytest.fixture(scope="module")
def traces():
    return make_dataset("gamma_1_2", num_traces=5, duration_s=120.0, seed=3).traces


def _engine(manifest, trigger, max_slots=None, allow_revert=False):
    return ServeEngine(
        factory=get_domain("abr").session_factory(manifest=manifest),
        learned=_ObsPolicy(1, len(manifest.bitrates_kbps)),
        default=BufferBasedPolicy(manifest.bitrates_kbps),
        signal=_RowwiseSignal(seed=5, scale=0.4),
        trigger=trigger,
        allow_revert=allow_revert,
        name="continuous",
        max_slots=max_slots,
    )


def _solo_reference(engine, specs):
    return [
        run_monitored_session(
            engine.learned,
            engine.default,
            SafetyMonitor(
                engine.signal,
                copy.deepcopy(engine.trigger),
                allow_revert=engine.allow_revert,
                name=engine.name,
            ),
            engine.factory.manifest,
            spec.trace,
            seed=spec.seed,
            policy_name=spec.name,
        )
        for spec in specs
    ]


class TestContinuousExactness:
    @given(
        num_specs=st.integers(min_value=1, max_value=6),
        max_slots=st.integers(min_value=1, max_value=6),
        trigger_kind=st.sampled_from(sorted(TRIGGERS)),
        allow_revert=st.booleans(),
        seed_base=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_interleaving_matches_solo_runs(
        self, manifest, traces, num_specs, max_slots, trigger_kind,
        allow_revert, seed_base,
    ):
        specs = [
            SessionSpec(
                trace=traces[(seed_base + index) % len(traces)],
                seed=seed_base + index,
                name=f"p{index}",
            )
            for index in range(num_specs)
        ]
        engine = _engine(
            manifest,
            TRIGGERS[trigger_kind](),
            max_slots=min(max_slots, num_specs),
            allow_revert=allow_revert,
        )
        served = [_fingerprint(r) for r in engine.run(specs)]
        reference = [_fingerprint(r) for r in _solo_reference(engine, specs)]
        assert served == reference

    def test_slot_limited_run_matches_unlimited(self, manifest, traces):
        specs = [
            SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"s{index}")
            for index in range(6)
        ]
        unlimited = _engine(manifest, TRIGGERS["variance"]())
        limited = _engine(manifest, TRIGGERS["variance"](), max_slots=2)
        assert [_fingerprint(r) for r in limited.run(specs)] == [
            _fingerprint(r) for r in unlimited.run(specs)
        ]

    def test_max_slots_validated(self, manifest):
        with pytest.raises(SafetyError, match="max_slots"):
            _engine(manifest, TRIGGERS["variance"](), max_slots=0)


class TestContinuousMetrics:
    def test_wave_occupancy_and_slot_reuse_emitted(self, manifest, traces):
        specs = [
            SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"m{index}")
            for index in range(5)
        ]
        engine = _engine(manifest, TRIGGERS["variance"](), max_slots=2)
        with obs.collecting() as run:
            engine.run(specs)
        names = {record.get("name") for record in run.records()}
        assert "serve.wave_occupancy" in names
        assert "serve.slot_reuse" in names
        assert "serve.steps_per_second" in names
        reuse = [
            record
            for record in run.records()
            if record.get("name") == "serve.slot_reuse"
        ]
        # 5 sessions through 2 slots: at least 3 admissions reuse a slot.
        assert sum(record["value"] for record in reuse) >= 3

    def test_occupancy_stays_full_while_queue_nonempty(self, manifest, traces):
        specs = [
            SessionSpec(trace=traces[0], seed=index, name=f"q{index}")
            for index in range(4)
        ]
        engine = _engine(manifest, TRIGGERS["variance"](), max_slots=2)
        with obs.collecting() as run:
            engine.run(specs)
        occupancy = [
            record
            for record in run.records()
            if record.get("name") == "serve.wave_occupancy"
        ]
        assert occupancy, "no occupancy samples recorded"
        samples = occupancy[0]
        assert samples["count"] > 0
        # Identical-length sessions through a LIFO free-list: freed slots
        # refill immediately, so waves with queued work run at 100%
        # occupancy — the distribution's max must hit exactly 1.0.
        assert samples["max"] == 1.0


class _SpyBatchPolicy(_ObsPolicy):
    """An ``_ObsPolicy`` that counts its per-row and batched acts."""

    def __init__(self, seed: int, num_actions: int) -> None:
        super().__init__(seed, num_actions)
        self.batches: list[int] = []
        self.single_acts = 0

    def act(self, observation, rng) -> int:
        self.single_acts += 1
        return super().act(observation, rng)

    def act_batch(self, observations, rngs) -> list[int]:
        self.batches.append(len(observations))
        return [
            _ObsPolicy.act(self, observation, rng)
            for observation, rng in zip(observations, rngs)
        ]


class TestBatchedAct:
    @pytest.mark.parametrize("allow_revert", [False, True])
    def test_one_act_batch_per_wave_with_two_learned_rows(
        self, manifest, traces, monkeypatch, allow_revert
    ):
        # The oracle: the learned-row count of every wave, read off the
        # monitor fold that decides it.
        learned_per_wave = []
        fold = MonitorTable.observe_measured

        def spy_fold(self, rows, values):
            now = fold(self, rows, values)
            learned_per_wave.append(int(np.count_nonzero(~now)))
            return now

        monkeypatch.setattr(MonitorTable, "observe_measured", spy_fold)
        specs = [
            SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"b{index}")
            for index in range(6)
        ]
        engine = _engine(
            manifest,
            # This signal reads 2.6-5.8 on these traces: rows hand off
            # mid-session at different waves.
            HysteresisTrigger(high=4.6, low=3.5),
            max_slots=4,
            allow_revert=allow_revert,
        )
        spy = engine.learned = _SpyBatchPolicy(1, len(manifest.bitrates_kbps))
        served = [_fingerprint(r) for r in engine.run(specs)]
        batches, single_acts = spy.batches, spy.single_acts
        assert batches == [n for n in learned_per_wave if n >= 2]
        assert single_acts == learned_per_wave.count(1)
        assert served == [_fingerprint(r) for r in _solo_reference(engine, specs)]
        # Both kinds of wave occurred: batched learned rows, and default
        # rows that never reach act_batch.
        assert batches
        learned_chunks = sum(
            not chunk[-1] for result in served for chunk in result[1]
        )
        total_chunks = sum(len(result[1]) for result in served)
        assert sum(batches) + single_acts == learned_chunks < total_chunks


def _pensieve_engine(manifest, scheme, **kwargs):
    engine = _scheme_engine(manifest, scheme, **kwargs)
    actor = ActorNetwork(
        len(manifest.bitrates_kbps), np.random.default_rng(11), filters=8, hidden=32
    )
    engine.learned = PensieveAgent(manifest.bitrates_kbps, actor)
    return engine


class TestPensieveThroughKernel:
    """A real Pensieve agent (batched acts) under every scheme and mode,
    ND (stateful U_S) included."""

    @pytest.fixture(scope="class")
    def specs(self, traces):
        return [
            SessionSpec(trace=traces[index % len(traces)], seed=index, name=f"k{index}")
            for index in range(6)
        ]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode", ["batched", "slot-limited", "fast-paths-off"])
    def test_matches_serial_reference(self, manifest, specs, scheme, mode):
        kwargs = {"slot-limited": {"max_slots": 2}}.get(mode, {})
        engine = _pensieve_engine(manifest, scheme, **kwargs)
        with fast_paths(mode != "fast-paths-off"):
            reference = [_fingerprint(r) for r in _serial_reference(engine, specs)]
            served = [_fingerprint(r) for r in engine.run(specs)]
        assert served == reference
        flags = [chunk[-1] for result in served for chunk in result[1]]
        assert any(flags) and not all(flags)

    def test_stateful_signal_gets_a_copy_per_slot(self, manifest, specs):
        engine = _pensieve_engine(manifest, "U_S", max_slots=2)
        before = engine.signal.state_dict()
        engine.run(specs)
        # The prototype never measured: every slot used its own copy.
        assert engine.signal.state_dict() == before

