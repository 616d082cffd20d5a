"""Tests for repro.service: the multi-tenant socket service end to end.

The acceptance property mirrors the serve engine's: a session driven
over the real socket API — interleaved with other tenants, TTL-evicted
to cold storage, resumed through a rebuilt store handle — must be
chunk-for-chunk identical to
:func:`repro.abr.session.run_monitored_session`.  On top of that sit
the overload behaviours: structured ``overloaded`` rejections beyond
the slot budget and structured ``shed`` rejections under queue
pressure.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro import obs
from repro.abr.env import ABREnv
from repro.abr.session import run_monitored_session
from repro.errors import ServiceError
from repro.service import (
    BackgroundService,
    SafetyService,
    ServiceClient,
    ServiceConfig,
    build_demo_scheme,
    protocol,
)
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest


@pytest.fixture(scope="module")
def runtime():
    return build_demo_scheme()


@pytest.fixture(scope="module")
def demo_manifest():
    return envivio_dash3_manifest(repeats=1)


@pytest.fixture(scope="module")
def traces():
    return make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).traces


def _reference_fingerprint(runtime, manifest, trace, seed):
    result = run_monitored_session(
        runtime.learned,
        runtime.default,
        runtime.new_monitor(),
        manifest,
        trace,
        seed=seed,
    )
    return [
        (
            chunk.chunk_index,
            chunk.bitrate_index,
            chunk.bitrate_mbps,
            chunk.rebuffer_s,
            chunk.download_time_s,
            chunk.throughput_mbps,
            chunk.buffer_s,
            chunk.reward,
            chunk.defaulted,
        )
        for chunk in result.chunks
    ]


class _EnvDriver:
    """Client-side half of one session: owns the env, streams observations."""

    def __init__(self, client, manifest, trace, tenant, session, seed):
        self.client = client
        self.tenant = tenant
        self.session = session
        self.manifest = manifest
        payload = client.attach(tenant, session, "demo", seed=seed)
        assert payload["ok"], payload
        self._env = ABREnv(manifest=manifest, trace=trace)
        self._observation = self._env.reset()
        self.chunks = []
        self.done = False
        self.resumed_steps = 0

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
        info = step.info
        self.chunks.append(
            (
                info["chunk_index"],
                info["bitrate_index"],
                info["bitrate_mbps"],
                info["rebuffer_s"],
                info["download_time_s"],
                info["throughput_mbps"],
                info["buffer_s"],
                step.reward,
                payload["defaulted"],
            )
        )
        self._observation = step.observation
        self.done = step.done or len(self.chunks) >= self.manifest.num_chunks - 1

    def run_to_completion(self) -> None:
        while not self.done:
            self.step()


def _dispatch(service, message):
    return asyncio.run(service.dispatch(message))


def _drive_poisoned(service, manifest, trace, session, poisons=(), poison_at=3):
    """Serve one demo session through dispatch(); before step *poison_at*
    send one line per value in *poisons*, each with that value at
    observation entry [2][3], through the JSON codec.  Returns the
    accepted decisions and the rejections (each must be a bad-request).
    """
    _dispatch(
        service,
        {
            "op": "attach",
            "tenant": "t",
            "session": session,
            "scheme": "demo",
            "seed": 7,
        },
    )
    env = ABREnv(manifest=manifest, trace=trace)
    observation = env.reset()
    decisions, rejected = [], []
    for index in range(manifest.num_chunks - 1):
        rows = np.asarray(observation, dtype=float).tolist()
        for bad in poisons if index == poison_at else ():
            rows[2][3] = bad
            # json.dumps writes the NaN/Infinity literals.
            line = json.dumps(
                {"op": "step", "tenant": "t", "session": session, "observation": rows}
            )
            message = protocol.decode_message(line.encode())
            assert json.dumps(message["observation"][2][3]) == json.dumps(bad)
            response = _dispatch(service, message)
            assert not response["ok"], response
            assert response["code"] == "bad-request"
            rejected.append(response)
        response = _dispatch(
            service,
            {
                "op": "step",
                "tenant": "t",
                "session": session,
                "observation": np.asarray(observation).tolist(),
            },
        )
        assert response["ok"], response
        decisions.append(response)
        step = env.step(response["action"])
        observation = step.observation
        if step.done:
            break
    return decisions, rejected


class TestDispatch:
    """Handler semantics through dispatch(), no socket in the loop."""

    @pytest.fixture
    def service(self, runtime):
        return SafetyService([runtime], ServiceConfig(max_sessions=4))

    def test_missing_op_is_bad_request(self, service):
        response = _dispatch(service, {"tenant": "t"})
        assert response == {
            "ok": False,
            "code": "bad-request",
            "message": "request must carry a string 'op' field",
        }

    def test_unknown_op(self, service):
        response = _dispatch(service, {"op": "frobnicate"})
        assert not response["ok"] and response["code"] == "unknown-op"

    def test_unknown_scheme(self, service):
        response = _dispatch(
            service,
            {"op": "attach", "tenant": "t", "session": "s", "scheme": "prod"},
        )
        assert not response["ok"] and response["code"] == "unknown-scheme"

    def test_attach_field_validation(self, service):
        for message in (
            {"op": "attach", "session": "s", "scheme": "demo"},
            {"op": "attach", "tenant": "", "session": "s", "scheme": "demo"},
            {
                "op": "attach",
                "tenant": "t",
                "session": "s",
                "scheme": "demo",
                "seed": "zero",
            },
        ):
            response = _dispatch(service, message)
            assert not response["ok"] and response["code"] == "bad-request"

    def test_step_requires_numeric_observation(self, service):
        _dispatch(
            service,
            {"op": "attach", "tenant": "t", "session": "s", "scheme": "demo"},
        )
        for observation in (None, "x", [["a", "b"]]):
            response = _dispatch(
                service,
                {
                    "op": "step",
                    "tenant": "t",
                    "session": "s",
                    "observation": observation,
                },
            )
            assert not response["ok"] and response["code"] == "bad-request"

    def test_non_finite_observation_rejected_before_the_monitor(
        self, service, demo_manifest, traces
    ):
        # json.loads accepts NaN/Infinity literals: the poisoned line must
        # get a bad-request and leave the session exactly as if it had
        # never been sent, hand-off included.
        clean, _ = _drive_poisoned(service, demo_manifest, traces[0], "clean")
        poisoned, rejected = _drive_poisoned(
            service,
            demo_manifest,
            traces[0],
            "poisoned",
            poisons=(np.nan, np.inf, -np.inf),
        )
        assert all("finite" in response["message"] for response in rejected)
        assert any(decision["handoff"] for decision in clean)
        assert poisoned == clean

    def test_non_number_observation_rejected_before_the_monitor(
        self, service, demo_manifest, traces
    ):
        # A string or a boolean entry is not a number, even where numpy
        # would coerce it to one.
        clean, _ = _drive_poisoned(service, demo_manifest, traces[0], "clean")
        poisoned, rejected = _drive_poisoned(
            service,
            demo_manifest,
            traces[0],
            "poisoned",
            poisons=("1.5", True, False),
        )
        assert all("JSON numbers" in r["message"] for r in rejected)
        assert poisoned == clean
        for observation in (["1", "2"], [True], [[1.0, "2"]]):
            response = _dispatch(
                service,
                {
                    "op": "step",
                    "tenant": "t",
                    "session": "poisoned",
                    "observation": observation,
                },
            )
            assert not response["ok"] and response["code"] == "bad-request"
            assert "JSON numbers" in response["message"]

    def test_step_unknown_session(self, service):
        response = _dispatch(
            service,
            {"op": "step", "tenant": "t", "session": "s", "observation": [1.0]},
        )
        assert not response["ok"] and response["code"] == "unknown-session"

    def test_duplicate_attach(self, service):
        message = {"op": "attach", "tenant": "t", "session": "s", "scheme": "demo"}
        assert _dispatch(service, message)["ok"]
        response = _dispatch(service, message)
        assert not response["ok"] and response["code"] == "session-exists"

    def test_sleep_bounds(self, service):
        response = _dispatch(service, {"op": "sleep", "seconds": 99})
        assert not response["ok"] and response["code"] == "bad-request"


class TestServiceConfigValidation:
    def test_sqlite_requires_path(self):
        with pytest.raises(ServiceError, match="store path"):
            ServiceConfig(store="sqlite")

    def test_bad_values_rejected(self):
        with pytest.raises(ServiceError, match="hot_ttl_s"):
            ServiceConfig(hot_ttl_s=0)
        with pytest.raises(ServiceError, match="max_sessions"):
            ServiceConfig(max_sessions=0)
        with pytest.raises(ServiceError, match="max_inflight"):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ServiceError, match="unknown store backend"):
            ServiceConfig(store="redis")

    def test_service_requires_schemes(self):
        with pytest.raises(ServiceError, match="at least one scheme"):
            SafetyService([])


class TestEndToEndEquality:
    def test_interleaved_tenants_match_reference(
        self, runtime, demo_manifest, traces
    ):
        service = SafetyService([runtime], ServiceConfig(max_sessions=8))
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                drivers = [
                    _EnvDriver(
                        client,
                        demo_manifest,
                        traces[index],
                        tenant=f"tenant-{index % 2}",
                        session=f"session-{index}",
                        seed=index,
                    )
                    for index in range(4)
                ]
                # Round-robin, one decision per session per round: every
                # state machine advances interleaved with the others.
                while any(not driver.done for driver in drivers):
                    for driver in drivers:
                        if not driver.done:
                            driver.step()
                for index, driver in enumerate(drivers):
                    stats = client.detach(driver.tenant, driver.session)
                    assert stats["ok"] and stats["steps"] == len(driver.chunks)
                client.shutdown()
        for index, driver in enumerate(drivers):
            assert driver.chunks == _reference_fingerprint(
                runtime, demo_manifest, traces[index], index
            ), f"session {index} diverged from run_monitored_session"

    def test_evicted_session_resumes_identically_after_reopen(
        self, runtime, demo_manifest, traces, tmp_path
    ):
        config = ServiceConfig(
            store="sqlite",
            store_path=str(tmp_path / "sessions.sqlite"),
            max_sessions=4,
        )
        service = SafetyService([runtime], config)
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                driver = _EnvDriver(
                    client, demo_manifest, traces[0], "t", "s", seed=0
                )
                for _ in range(10):
                    driver.step()
                evicted = client.evict(0.0)
                assert evicted["ok"] and evicted["evicted"] == 1
                # The rebuilt store handle (fresh SQLite connection) is
                # what a different worker would see.
                assert client.reopen()["cold"] == 1
                driver.run_to_completion()
                assert driver.resumed_steps == 1
                stats = client.detach("t", "s")
                assert stats["ok"] and stats["resumes"] == 1
                client.shutdown()
        assert driver.chunks == _reference_fingerprint(
            runtime, demo_manifest, traces[0], 0
        )


class TestOverloadBehaviour:
    def test_attach_beyond_budget_gets_structured_rejection(self, runtime):
        service = SafetyService(
            [runtime], ServiceConfig(max_sessions=2, hot_ttl_s=3600.0)
        )
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                assert client.attach("t", "a", "demo")["ok"]
                assert client.attach("t", "b", "demo")["ok"]
                rejected = client.attach("t", "c", "demo")
                assert not rejected["ok"]
                assert rejected["code"] == "overloaded"
                assert rejected["max_sessions"] == 2
                assert rejected["live"] == 2
                # Detaching frees the slot; the same attach now succeeds.
                assert client.detach("t", "a")["ok"]
                assert client.attach("t", "c", "demo")["ok"]
                assert client.stats()["overloaded"] == 1
                client.shutdown()

    def test_admission_prefers_evicting_idle_sessions(self, runtime):
        # With an expired TTL, admission control frees slots by
        # snapshotting idle sessions instead of rejecting the attach.
        clock_start = time.monotonic()
        service = SafetyService(
            [runtime],
            ServiceConfig(max_sessions=1, hot_ttl_s=0.05),
            clock=time.monotonic,
        )
        assert clock_start <= time.monotonic()
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                assert client.attach("t", "a", "demo")["ok"]
                time.sleep(0.1)
                accepted = client.attach("t", "b", "demo")
                assert accepted["ok"], accepted
                stats = client.stats()
                assert stats["hot"] == 1 and stats["cold"] == 1
                assert stats["evictions"] == 1
                client.shutdown()

    def test_excess_inflight_requests_are_shed(self, runtime):
        service = SafetyService(
            [runtime], ServiceConfig(max_inflight=1, max_sessions=4)
        )
        with BackgroundService(service) as background:
            host, port = background.address
            with socket.create_connection((host, port)) as raw:
                stream = raw.makefile("rwb")
                # Occupy the only in-flight slot without reading the reply.
                stream.write(
                    protocol.encode_message({"op": "sleep", "seconds": 2.0})
                )
                stream.flush()
                with ServiceClient(host, port) as client:
                    for _ in range(100):
                        if client.stats()["inflight"] >= 1:
                            break
                        time.sleep(0.02)
                    else:
                        pytest.fail("sleep request never went in flight")
                    rejected = client.attach("t", "s", "demo")
                    assert not rejected["ok"]
                    assert rejected["code"] == "shed"
                    assert client.stats()["shed"] == 1
                reply = protocol.decode_message(stream.readline())
                assert reply["ok"] and reply["op"] == "sleep"
            with ServiceClient(host, port) as client:
                client.shutdown()


class TestBackgroundEviction:
    def test_ttl_loop_evicts_and_step_resumes(self, runtime):
        service = SafetyService(
            [runtime],
            ServiceConfig(
                max_sessions=4, hot_ttl_s=0.1, evict_interval_s=0.02
            ),
        )
        with BackgroundService(service) as background:
            with ServiceClient(*background.address) as client:
                assert client.attach("t", "s", "demo")["ok"]
                for _ in range(200):
                    stats = client.stats()
                    if stats["hot"] == 0 and stats["cold"] == 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("background eviction never fired")
                payload = client.step("t", "s", np.zeros((6, 8)).tolist())
                assert payload["ok"] and payload["resumed"]
                assert client.stats()["resumes"] == 1
                client.shutdown()


class TestWireRobustness:
    def test_bad_json_and_non_object_lines(self, runtime):
        service = SafetyService([runtime])
        with BackgroundService(service) as background:
            with socket.create_connection(background.address) as raw:
                stream = raw.makefile("rwb")
                for line in (b"{not json\n", b"[1, 2, 3]\n", b'"ping"\n'):
                    stream.write(line)
                    stream.flush()
                    reply = protocol.decode_message(stream.readline())
                    assert not reply["ok"]
                    assert reply["code"] == "bad-request"
                # The connection survives malformed lines.
                stream.write(protocol.encode_message({"op": "ping"}))
                stream.flush()
                assert protocol.decode_message(stream.readline())["ok"]
            with ServiceClient(*background.address) as client:
                client.shutdown()

    def test_encode_refuses_nan(self):
        with pytest.raises(protocol.ProtocolError, match="serializable"):
            protocol.encode_message({"value": float("nan")})

    def test_shutdown_survives_to_durable_store(self, runtime, tmp_path):
        # Hot sessions are snapshotted on shutdown, so a second service
        # over the same SQLite file still knows them.
        path = str(tmp_path / "sessions.sqlite")
        config = ServiceConfig(store="sqlite", store_path=path)
        with BackgroundService(SafetyService([runtime], config)) as background:
            with ServiceClient(*background.address) as client:
                assert client.attach("t", "s", "demo", seed=5)["ok"]
                client.shutdown()
        with BackgroundService(SafetyService([runtime], config)) as background:
            with ServiceClient(*background.address) as client:
                stats = client.stats()
                assert stats["cold"] == 1
                payload = client.step("t", "s", np.zeros((6, 8)).tolist())
                assert payload["ok"] and payload["resumed"]
                client.shutdown()


class TestServiceMetrics:
    def test_per_tenant_counters(self, runtime):
        with obs.collecting() as run:
            service = SafetyService([runtime], ServiceConfig(max_sessions=4))
            with BackgroundService(service) as background:
                with ServiceClient(*background.address) as client:
                    for tenant, steps in (("a", 3), ("b", 1)):
                        assert client.attach(tenant, "s", "demo")["ok"]
                        for _ in range(steps):
                            payload = client.step(
                                tenant, "s", np.zeros((6, 8)).tolist()
                            )
                            assert payload["ok"]
                    client.evict(0.0)
                    assert client.detach("a", "s")["ok"]
                    client.shutdown()
        metrics = run.metrics
        assert metrics.counter("service.steps", tenant="a").value == 3.0
        assert metrics.counter("service.steps", tenant="b").value == 1.0
        assert metrics.counter("service.attaches", tenant="a").value == 1.0
        assert metrics.counter("service.evictions", tenant="a").value == 1.0
        assert metrics.counter("service.evictions", tenant="b").value == 1.0
        assert metrics.counter("service.detaches", tenant="a").value == 1.0
        assert metrics.counter("service.requests", op="step").value == 4.0
