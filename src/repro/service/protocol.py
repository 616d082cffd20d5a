"""The service wire protocol: line-delimited JSON request/response.

Every message is one JSON object on one ``\\n``-terminated line.  A
request names its operation in ``op`` plus op-specific fields; the
response echoes ``op`` and carries ``ok``.  Failures are *structured*:
``{"ok": false, "code": ..., "message": ...}`` with a stable machine
code from the catalogue below, so clients can distinguish an admission
rejection (``overloaded``), transient back-pressure (``shed``), and
caller bugs (``unknown-session``) without parsing prose.

Operations (see ``docs/SERVICE.md`` for the full field tables):

* ``attach``   — register ``(tenant, session)`` under a scheme and seed.
* ``step``     — one monitored decision for an observation; returns the
  chosen action and the monitor's verdict.
* ``detach``   — finish a session and return its final counters.
* ``stats``    — service-level occupancy and counters (never shed).
* ``evict``    — run a TTL eviction pass now (idle bound overridable).
* ``reopen``   — snapshot everything and rebuild the store handle.
* ``ping`` / ``sleep`` / ``shutdown`` — health, diagnostics, teardown.

NaN never crosses the wire (:func:`encode_message` refuses it); the
sticky skip's unmeasured signal value is transmitted as ``null``.
"""

from __future__ import annotations

import json

from repro.errors import ServiceError

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "CODE_BAD_REQUEST",
    "CODE_INTERNAL",
    "CODE_OVERLOADED",
    "CODE_SESSION_EXISTS",
    "CODE_SHED",
    "CODE_UNKNOWN_OP",
    "CODE_UNKNOWN_SCHEME",
    "CODE_UNKNOWN_SESSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "fail",
    "ok",
]

#: Wire-format version, echoed by ``ping``; bump on breaking changes.
PROTOCOL_VERSION = 1

#: Upper bound on one request/response line (the asyncio reader limit).
MAX_LINE_BYTES = 1 << 20

#: The request line was not a JSON object (or violated a field contract).
CODE_BAD_REQUEST = "bad-request"
#: The request named an operation the service does not implement.
CODE_UNKNOWN_OP = "unknown-op"
#: ``attach`` named a scheme the service was not booted with.
CODE_UNKNOWN_SCHEME = "unknown-scheme"
#: The ``(tenant, session)`` key is neither hot nor in cold storage.
CODE_UNKNOWN_SESSION = "unknown-session"
#: ``attach`` named a ``(tenant, session)`` key that already exists.
CODE_SESSION_EXISTS = "session-exists"
#: Admission control: the hot-slot budget is exhausted (structured
#: rejection — live sessions are never degraded to make room).
CODE_OVERLOADED = "overloaded"
#: Load shedding: too many requests in flight; retry later.
CODE_SHED = "shed"
#: An unexpected server-side failure.
CODE_INTERNAL = "internal"


class ProtocolError(ServiceError):
    """A message violated the line-JSON wire format."""

    code = CODE_BAD_REQUEST


def encode_message(message: dict) -> bytes:
    """Serialize one message as a compact JSON line (UTF-8 bytes).

    Refuses NaN/Infinity — they are not JSON, and a client in another
    language would reject the line; senders must map unmeasured values
    to ``None`` first.
    """
    try:
        text = json.dumps(message, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    return (text + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one received line into a message mapping.

    Raises :class:`ProtocolError` when the line is not a JSON object
    (nesting too deep for the parser included).
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def ok(op: str, **fields) -> dict:
    """A success response for *op* with *fields* merged in."""
    return {"ok": True, "op": op, **fields}


def fail(code: str, message: str, **fields) -> dict:
    """A structured failure response carrying *code* and *message*."""
    return {"ok": False, "code": code, "message": message, **fields}
