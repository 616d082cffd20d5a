"""Hypothesis fuzzing of the service wire.

Every line a client can send goes through the same two steps the socket
handler runs: :func:`protocol.decode_message`, then
:meth:`SafetyService.dispatch`.  Whatever the line — arbitrary bytes,
any JSON value, NaN/Infinity literals, wrong-typed or missing fields —
the answer must be a structured response: a failure carries one of the
documented codes and is never ``internal``, and the response encodes
back onto the wire.  A live session stepped between the fuzzed lines
must keep exactly the decisions of an undisturbed one.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    BackgroundService,
    SafetyService,
    ServiceClient,
    build_demo_scheme,
    protocol,
)
from repro.service.protocol import MAX_LINE_BYTES
from repro.util.rng import rng_from_seed

#: Every failure code the protocol documents, except ``internal``.
DOCUMENTED_CODES = {
    getattr(protocol, name) for name in protocol.__all__ if name.startswith("CODE_")
} - {protocol.CODE_INTERNAL}

#: The key and seed of the session the fuzzed lines must not disturb.
LIVE_TENANT, LIVE_SESSION, LIVE_SEED = "live", "s", 11

#: Upper bound on fuzzed lines per example (one live step follows each).
MAX_LINES = 6

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()  # NaN and +-Infinity included
    | st.text(max_size=12)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)

#: Every op but ``sleep``, which would only make the run slow.
OPS = ["ping", "attach", "step", "detach", "stats", "evict", "reopen", "shutdown"]

fuzzed_requests = st.fixed_dictionaries(
    {"op": st.sampled_from(OPS) | json_values},
    optional={
        "tenant": st.sampled_from(["t", "u"]) | json_values,
        "session": st.sampled_from(["a", "b"]) | json_values,
        "scheme": st.just("demo") | json_values,
        "seed": json_values,
        "observation": json_values,
        "max_idle_s": json_values,
    },
).filter(lambda message: message.get("tenant") != LIVE_TENANT)


@st.composite
def bad_observations(draw):
    """An observation the service must reject: bad leaf or bad shape."""
    grid = np.zeros((6, 8)).tolist()
    if draw(st.booleans()):
        row, column = draw(st.integers(0, 5)), draw(st.integers(0, 7))
        grid[row][column] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf, 10**400, True, None])
            | st.text(max_size=4)
            | st.lists(st.integers(), max_size=2)
            | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
        )
        return grid
    rows, columns = draw(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda shape: shape != (6, 8)
        )
    )
    return np.zeros((rows, columns)).tolist()


#: Steps aimed at the live session that must all be refused.
live_attacks = st.builds(
    lambda observation: {
        "op": "step",
        "tenant": LIVE_TENANT,
        "session": LIVE_SESSION,
        "observation": observation,
    },
    bad_observations(),
)

#: One wire line: raw bytes, any JSON value, or a request-shaped object.
#: ``json.dumps`` writes NaN and Infinity as their bare literals.
lines = (
    st.binary(max_size=64)
    | json_values.map(lambda value: json.dumps(value).encode())
    | (fuzzed_requests | live_attacks).map(lambda value: json.dumps(value).encode())
)


@pytest.fixture(scope="module")
def runtime():
    return build_demo_scheme()


def _live_observations(count: int) -> list[list]:
    rng = np.random.default_rng(LIVE_SEED)
    return [rng.normal(size=(6, 8)).tolist() for _ in range(count)]


def _decision(payload: dict) -> tuple:
    return tuple(
        payload[key]
        for key in ("action", "step", "defaulted", "fired", "handoff", "signal_value")
    )


@pytest.fixture(scope="module")
def reference(runtime):
    """The live session's undisturbed decisions, straight off the monitor."""
    monitor = runtime.new_monitor()
    monitor.reset()
    rng = rng_from_seed(LIVE_SEED)
    decisions = []
    for rows in _live_observations(MAX_LINES + 1):
        observation = np.asarray(rows)
        decision = monitor.observe(observation)
        action = runtime.policy_for(decision.defaulted).act(observation, rng)
        value = decision.signal_value
        decisions.append(
            (
                int(action),
                int(decision.step),
                bool(decision.defaulted),
                bool(decision.fired),
                bool(decision.handoff),
                None if math.isnan(value) else float(value),
            )
        )
    return decisions


def _answer(service: SafetyService, line: bytes) -> dict:
    """What the socket handler would send back for *line*."""
    try:
        message = protocol.decode_message(line)
    except protocol.ProtocolError as exc:
        return protocol.fail(exc.code, str(exc))
    return asyncio.run(service.dispatch(message))


@settings(max_examples=150, deadline=None)
@given(fuzzed=st.lists(lines, min_size=1, max_size=MAX_LINES))
def test_fuzzed_lines_get_structured_answers(runtime, reference, fuzzed):
    service = SafetyService([runtime])
    attach = {
        "op": "attach",
        "tenant": LIVE_TENANT,
        "session": LIVE_SESSION,
        "scheme": "demo",
        "seed": LIVE_SEED,
    }
    assert _answer(service, json.dumps(attach).encode())["ok"]
    observations = _live_observations(len(fuzzed) + 1)
    decisions = []
    for line, rows in zip(fuzzed + [None], observations):
        if line is not None:
            response = _answer(service, line)
            if not response["ok"]:
                assert response["code"] in DOCUMENTED_CODES, response
            protocol.encode_message(response)  # must go back on the wire
        step = {
            "op": "step",
            "tenant": LIVE_TENANT,
            "session": LIVE_SESSION,
            "observation": rows,
        }
        response = _answer(service, json.dumps(step).encode())
        assert response["ok"], response
        decisions.append(_decision(response))
    assert decisions == reference[: len(decisions)]


@pytest.mark.parametrize(
    "line",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"op": "step", "tenant": "t", "session": "a", "observation": [1' + b"0" * 400
        + b"]}",
        b'{"op": "attach", "tenant": "t", "session": "a", "scheme": "demo",'
        b' "seed": -1}',
        b'{"op": "attach", "tenant": "\\ud800", "session": "a", "scheme": "demo"}',
        b'{"op": "evict", "max_idle_s": true}',
        b'{"op": "evict", "max_idle_s": NaN}',
        b'{"op": "evict", "max_idle_s": Infinity}',
        b'{"op": "evict", "max_idle_s": -Infinity}',
        b'{"op": "evict", "max_idle_s": -1}',
        b'{"op": "evict", "max_idle_s": 1' + b"0" * 400 + b"}",
    ],
    ids=[
        "deep-nesting",
        "int-overflow",
        "negative-seed",
        "lone-surrogate",
        "evict-bool",
        "evict-nan",
        "evict-infinity",
        "evict-minus-infinity",
        "evict-negative",
        "evict-int-overflow",
    ],
)
def test_known_hostile_lines_are_bad_requests(runtime, line):
    response = _answer(SafetyService([runtime]), line)
    assert not response["ok"] and response["code"] == "bad-request", response


def test_oversized_line_is_refused_and_the_service_keeps_serving(runtime):
    with BackgroundService(SafetyService([runtime])) as background:
        with socket.create_connection(background.address, timeout=30) as raw:
            # One byte over the cap overruns the reader; sending no more
            # than that leaves nothing unread when the server hangs up.
            raw.sendall(b"x" * (MAX_LINE_BYTES + 1))
            stream = raw.makefile("rb")
            reply = protocol.decode_message(stream.readline())
            assert not reply["ok"] and reply["code"] == "bad-request"
            assert str(MAX_LINE_BYTES) in reply["message"]
            assert stream.readline() == b""  # that connection is closed
        with ServiceClient(*background.address) as client:
            assert client.ping()["ok"]
            client.shutdown()
