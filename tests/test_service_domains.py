"""The multi-tenant service over a non-ABR domain, end to end.

``build_demo_scheme(domain="cc")`` must give the service a scheme whose
socket-driven sessions — including one TTL-evicted to SQLite and resumed
through a rebuilt store handle — are step-for-step identical to the
domain-generic serial runner.  The client owns a :class:`CCEnv`, exactly
as a congestion-control deployment would own its sender.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.domains import (
    SessionSpec,
    apply_scenario,
    get_domain,
    run_monitored_session,
)
from repro.domains.cc import CCEnv
from repro.service import (
    BackgroundService,
    SafetyService,
    ServiceClient,
    ServiceConfig,
    build_demo_scheme,
)

HORIZON = 160


@pytest.fixture(scope="module")
def domain():
    return get_domain("cc")


@pytest.fixture(scope="module")
def runtime():
    return build_demo_scheme(domain="cc")


@pytest.fixture(scope="module")
def traces(domain):
    split = domain.load_split("logistic", num_traces=8, duration_s=96.0, seed=3)
    return [
        split.test[0],
        apply_scenario("abrupt_shift", split.test[0], seed=1).trace,
    ]


def _reference(domain, runtime, trace, seed):
    result = run_monitored_session(
        domain.session_factory(horizon=HORIZON),
        SessionSpec(trace=trace, seed=seed),
        runtime.learned,
        runtime.default,
        runtime.new_monitor(),
    )
    return [
        (r.step_index, r.rate_index, r.reward, r.defaulted)
        for r in result.chunks
    ]


class _SenderDriver:
    """Client-side half of one CC session: owns the env, streams state."""

    def __init__(self, client, trace, tenant, session, seed):
        self.client = client
        self.tenant = tenant
        self.session = session
        payload = client.attach(tenant, session, "demo", seed=seed)
        assert payload["ok"], payload
        self._env = CCEnv(trace)
        self._observation = self._env.reset()
        self.chunks = []
        self.resumed_steps = 0

    @property
    def done(self) -> bool:
        return len(self.chunks) >= HORIZON

    def step(self) -> None:
        payload = self.client.step(
            self.tenant,
            self.session,
            np.asarray(self._observation, dtype=float).tolist(),
        )
        assert payload["ok"], payload
        if payload["resumed"]:
            self.resumed_steps += 1
        step = self._env.step(payload["action"])
        self.chunks.append(
            (
                step.info["step_index"],
                step.info["rate_index"],
                step.reward,
                payload["defaulted"],
            )
        )
        self._observation = step.observation


class TestCCScheme:
    def test_build_demo_scheme_dispatches_by_domain(self, runtime):
        assert runtime.name == "demo"
        abr = build_demo_scheme()
        assert type(runtime.learned) is not type(abr.learned)

    def test_interleaved_cc_tenants_match_reference(
        self, domain, runtime, traces
    ):
        service = SafetyService([runtime], ServiceConfig(max_sessions=8))
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                drivers = [
                    _SenderDriver(
                        client, trace, f"tenant-{i}", f"session-{i}", seed=i
                    )
                    for i, trace in enumerate(traces)
                ]
                while any(not d.done for d in drivers):
                    for driver in drivers:
                        if not driver.done:
                            driver.step()
                for driver in drivers:
                    assert client.detach(driver.tenant, driver.session)["ok"]
                client.shutdown()
        for i, (driver, trace) in enumerate(zip(drivers, traces)):
            assert driver.chunks == _reference(domain, runtime, trace, i), (
                f"session {i} diverged from the serial runner"
            )
        # The shifted tenant defaulted; the in-distribution one never did.
        assert not any(chunk[3] for chunk in drivers[0].chunks)
        assert any(chunk[3] for chunk in drivers[1].chunks)

    def test_evicted_cc_session_resumes_bitwise(
        self, domain, runtime, traces, tmp_path
    ):
        config = ServiceConfig(
            store="sqlite",
            store_path=str(tmp_path / "cc-sessions.sqlite"),
            max_sessions=4,
        )
        service = SafetyService([runtime], config)
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                driver = _SenderDriver(client, traces[1], "t", "s", seed=1)
                # Run into the post-shift regime so CUSUM accumulation
                # (live trigger state) is what eviction must preserve.
                for _ in range(HORIZON // 2):
                    driver.step()
                evicted = client.evict(0.0)
                assert evicted["ok"] and evicted["evicted"] == 1
                assert client.reopen()["cold"] == 1
                while not driver.done:
                    driver.step()
                assert driver.resumed_steps == 1
                stats = client.detach("t", "s")
                assert stats["ok"] and stats["resumes"] == 1
                client.shutdown()
        assert driver.chunks == _reference(domain, runtime, traces[1], 1)

    def test_wrong_shape_observation_rejected_before_the_monitor(
        self, runtime, traces
    ):
        # A CC observation of the wrong shape used to index past the
        # history and answer "internal"; it must get a bad-request and
        # leave the session as if the line had never been sent.
        assert runtime.observation_shape == CCEnv(traces[1]).reset().shape
        service = SafetyService([runtime], ServiceConfig(max_sessions=4))
        reshapes = (
            np.ravel,
            np.transpose,
            lambda observation: observation[:3],
            lambda observation: observation[:, :4],
            lambda observation: observation[None],
        )
        runs = {}
        for session, poisoned in (("clean", False), ("poisoned", True)):
            attach = {
                "op": "attach",
                "tenant": "t",
                "session": session,
                "scheme": "demo",
                "seed": 1,
            }
            assert asyncio.run(service.dispatch(attach))["ok"]
            env = CCEnv(traces[1])
            observation = env.reset()
            decisions, rejected = [], []
            for index in range(HORIZON):
                step = {"op": "step", "tenant": "t", "session": session}
                for reshape in reshapes if poisoned and index % 40 == 20 else ():
                    line = dict(step, observation=reshape(observation).tolist())
                    rejected.append(asyncio.run(service.dispatch(line)))
                line = dict(step, observation=observation.tolist())
                response = asyncio.run(service.dispatch(line))
                assert response["ok"], response
                decisions.append(response)
                observation = env.step(response["action"]).observation
            runs[session] = decisions, rejected
        clean, poisoned = runs["clean"][0], runs["poisoned"][0]
        rejected = runs["poisoned"][1]
        assert len(rejected) == 4 * len(reshapes)
        assert all(r["code"] == "bad-request" for r in rejected)
        assert all("expects (4, 8)" in r["message"] for r in rejected)
        assert any(decision["handoff"] for decision in clean)
        assert poisoned == clean

    def test_mixed_shape_schemes_check_each_session_against_its_own(self, runtime):
        # With schemes of different shapes, a shape some scheme declares
        # passes the pre-checkout check and is then held to the
        # session's own scheme; an unchecked scheme accepts any shape.
        abr = build_demo_scheme(name="abr")
        service = SafetyService([abr, runtime], ServiceConfig(max_sessions=4))
        attach = {"op": "attach", "tenant": "t", "scheme": "demo", "seed": 1}
        assert asyncio.run(service.dispatch(dict(attach, session="s")))["ok"]
        step = {"op": "step", "tenant": "t", "session": "s"}
        for shape, expected in (
            ((6, 8), "scheme 'demo' expects (4, 8)"),
            ((3,), "this service expects (4, 8) or (6, 8)"),
        ):
            line = dict(step, observation=np.zeros(shape).tolist())
            response = asyncio.run(service.dispatch(line))
            assert response["code"] == "bad-request"
            assert expected in response["message"]
        line = dict(step, observation=np.zeros((4, 8)).tolist())
        assert asyncio.run(service.dispatch(line))["ok"]

        unchecked = dataclasses.replace(abr, observation_shape=None)
        service = SafetyService([unchecked, runtime], ServiceConfig(max_sessions=4))
        for session, scheme in (("cc", "demo"), ("abr", "abr")):
            line = dict(attach, session=session, scheme=scheme)
            assert asyncio.run(service.dispatch(line))["ok"]
        line = dict(step, session="cc", observation=np.zeros((3,)).tolist())
        response = asyncio.run(service.dispatch(line))
        assert "scheme 'demo' expects (4, 8)" in response["message"]
        line = dict(step, session="abr", observation=np.zeros((6, 8)).tolist())
        assert asyncio.run(service.dispatch(line))["ok"]
