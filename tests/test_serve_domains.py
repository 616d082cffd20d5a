"""The serve engine over a non-ABR domain: CC through the SoA kernel.

The acceptance property mirrors the ABR one: every engine path —
continuous batching with slot reuse, unbatched row-by-row measurement —
must reproduce :func:`repro.core.runner.run_monitored_session`
chunk-for-chunk for the congestion-control domain.  The CC demo trigger
is a CUSUM, which vectorizes (``make_table``), so the default engine
path here is the continuous-batching kernel; the tabular signal's fused
gather+softmax makes batch and scalar measurements bitwise-equal, so
equality is exact, not last-ulp.
"""

from __future__ import annotations

import pytest

from repro.domains import (
    SessionSpec,
    apply_scenario,
    get_domain,
    run_monitored_session,
)
from repro.serve import ServeEngine


@pytest.fixture(scope="module")
def domain():
    return get_domain("cc")


@pytest.fixture(scope="module")
def scheme(domain):
    return domain.demo_scheme()


@pytest.fixture(scope="module")
def specs(domain):
    split = domain.load_split("logistic", num_traces=8, duration_s=96.0, seed=3)
    traces = list(split.test[:2])
    # Two shifted sessions so the wave actually diverges: some slots
    # default mid-run while their neighbours stay on the learned policy.
    traces.append(apply_scenario("abrupt_shift", split.test[0], seed=1).trace)
    traces.append(apply_scenario("slow_drift", split.test[1], seed=2).trace)
    return [
        SessionSpec(trace=trace, seed=index, name=f"cc-{index}")
        for index, trace in enumerate(traces)
    ]


def _engine(scheme, **kwargs):
    return ServeEngine(
        factory=scheme.factory,
        learned=scheme.learned,
        default=scheme.default,
        signal=scheme.signal,
        trigger=scheme.trigger,
        name=scheme.name,
        **kwargs,
    )


def _fingerprint(result):
    return [
        (
            record.step_index,
            record.rate_index,
            record.rate_mbps,
            record.throughput_mbps,
            record.loss_fraction,
            record.queue_delay_s,
            record.reward,
            record.defaulted,
        )
        for record in result.chunks
    ]


@pytest.fixture(scope="module")
def references(scheme, specs):
    return [
        _fingerprint(
            run_monitored_session(
                scheme.factory, spec, scheme.learned, scheme.default,
                scheme.monitor(),
            )
        )
        for spec in specs
    ]


class TestCCThroughTheEngine:
    def test_continuous_kernel_matches_serial_runner(
        self, scheme, specs, references
    ):
        engine = _engine(scheme)
        assert engine.trigger.make_table(len(specs)) is not None
        results = engine.run(specs)
        for spec, result, reference in zip(specs, results, references):
            assert result.policy_name == spec.name
            assert _fingerprint(result) == reference, spec.name

    def test_slot_reuse_matches_serial_runner(self, scheme, specs, references):
        # max_slots < sessions forces queued specs to resume into slots
        # freed by finished sessions — state must not leak across them.
        results = _engine(scheme, max_slots=2).run(specs)
        assert [_fingerprint(r) for r in results] == references

    def test_unbatched_sequential_path_identical(
        self, scheme, specs, references
    ):
        results = _engine(scheme, batch_signals=False).run(specs)
        assert [_fingerprint(r) for r in results] == references

    def test_shifted_sessions_defaulted_in_dist_did_not(self, scheme, specs):
        results = _engine(scheme).run(specs)
        assert results[0].default_fraction == 0.0
        assert results[1].default_fraction == 0.0
        assert results[2].default_fraction > 0.0

    def test_worker_sharding_matches_inprocess(self, scheme, specs):
        inprocess = _engine(scheme).run(specs, max_workers=1)
        sharded = _engine(scheme).run(specs, max_workers=2)
        assert [_fingerprint(r) for r in sharded] == [
            _fingerprint(r) for r in inprocess
        ]
