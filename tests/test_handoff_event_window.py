"""The ``controller.default`` hand-off event is the same on every path.

One ABR-demo session that defaults is served three ways — the serial
runner, the serve kernel (two slots, so the session shares waves), and
the service's ``step`` operation — with metrics collection on.  Each
path must emit one hand-off event with the same step, signal value and
signal window, and that window must be the last k signal values the
variance trigger saw.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.abr.env import ABREnv
from repro.core.monitor import SafetyMonitor
from repro.core.runner import run_monitored_session
from repro.core.signals import UncertaintySignal
from repro.domains import SessionSpec, get_domain
from repro.serve import ServeEngine
from repro.service import SafetyService, build_demo_scheme
from repro.traces.dataset import make_dataset

SEED = 7


@pytest.fixture(scope="module")
def scheme():
    return get_domain("abr").demo_scheme()


@pytest.fixture(scope="module")
def traces():
    return make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).traces


class _Recorder(UncertaintySignal):
    """Pass-through signal that keeps every value it measures."""

    def __init__(self, inner: UncertaintySignal) -> None:
        self.inner = inner
        self.binary = inner.binary
        self.values: list[float] = []

    def reset(self) -> None:
        self.inner.reset()
        self.values.clear()

    def measure(self, observation: np.ndarray) -> float:
        value = self.inner.measure(observation)
        self.values.append(float(value))
        return value


def _handoffs(run) -> list[dict]:
    with obs.collecting() as collector:
        run()
    return [event["data"] for event in collector.metrics.events("controller.default")]


def _runner_handoffs(scheme, trace):
    recorder = _Recorder(scheme.signal)
    monitor = SafetyMonitor(recorder, scheme.trigger.make_table(1), name=scheme.name)
    events = _handoffs(
        lambda: run_monitored_session(
            scheme.factory,
            SessionSpec(trace=trace, seed=SEED),
            scheme.learned,
            scheme.default,
            monitor,
        )
    )
    return events, recorder.values


def _service_handoffs(scheme, trace):
    service = SafetyService([build_demo_scheme()])

    def drive():
        step = {"op": "step", "tenant": "t", "session": "s"}
        attach = {"op": "attach", "tenant": "t", "session": "s", "scheme": "demo"}
        asyncio.run(service.dispatch({**attach, "seed": SEED}))
        env = ABREnv(manifest=scheme.factory.manifest, trace=trace)
        observation = env.reset()
        for _ in range(scheme.factory.steps_per_session()):
            observation = np.asarray(observation).tolist()
            response = asyncio.run(
                service.dispatch({**step, "observation": observation})
            )
            outcome = env.step(response["action"])
            if outcome.done:
                break
            observation = outcome.observation

    return _handoffs(drive)


def test_handoff_window_matches_across_runner_kernel_and_service(scheme, traces):
    events, values = _runner_handoffs(scheme, traces[0])
    assert len(events) == 1
    (event,) = events
    k = scheme.trigger.k
    step = event["step"]
    assert event["signal"] == values[step - 1]
    assert event["window"] == values[step - k : step]
    assert len(event["window"]) == k

    # The kernel serves the session next to two others on two slots.
    specs = [SessionSpec(trace=trace, seed=SEED) for trace in traces[:3]]
    expected = [event]
    for trace in traces[1:3]:
        expected += _runner_handoffs(scheme, trace)[0]
    engine = ServeEngine(
        scheme.factory,
        scheme.learned,
        scheme.default,
        scheme.signal,
        scheme.trigger,
        name=scheme.name,
        max_slots=2,
    )
    served = _handoffs(lambda: engine.run(specs))
    assert sorted(served, key=repr) == sorted(expected, key=repr)

    assert _service_handoffs(scheme, traces[0]) == [event]
