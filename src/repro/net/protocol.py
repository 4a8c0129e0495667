"""The versioned, length-prefixed JSON wire protocol spoken between brokers.

Every frame on the wire is ``4-byte big-endian length prefix + UTF-8 JSON
object``.  The JSON object always carries a ``"type"`` field; everything else
is frame-type specific.  Frame types:

========== ==================================================================
``hello``      First frame in each direction of every connection.  Carries
               ``version`` (:data:`PROTOCOL_VERSION`), ``role`` (``"link"``
               for inter-broker streams, ``"client"`` for command
               connections) and ``node`` (the peer's name).  A version
               mismatch is answered with an ``error`` frame and the
               connection is closed — negotiation is exact-match.
``message``    One inter-broker routing message (``kind`` is one of
               :data:`~repro.sim.transport.MESSAGE_KINDS`), one-way on a
               link connection.  Carries ``sender``/``receiver``, the hop
               count, the send timestamp and the encoded payload.
``subscribe``  Client command: register ``client_id`` + ``subscription`` at
               the broker the client is connected to.
``unsubscribe`` Client command: withdraw ``client_id``'s ``sub_id``.
``publish``    Client command: publish ``event`` at the connected broker;
               the reply carries the delivered client ids.
``batch``      Client command: ``op`` (``subscribe`` / ``unsubscribe`` /
               ``publish``) over ``items``, riding the network's amortised
               batch APIs.
``ping``       Client command: liveness probe.
``shutdown``   Client command: gracefully drain and stop the whole server.
``ok``/``error`` Replies to client commands, correlated by ``seq``.
========== ==================================================================

The codec is deliberately strict: oversized frames, truncated frames (short
reads), non-JSON bodies, non-object bodies and frames without a ``type`` all
raise :class:`ProtocolError` — a malformed peer is rejected, never guessed at.

Payload encoding requires JSON-safe identifiers (strings, numbers, booleans,
``None``): a subscription id that is, say, a tuple cannot cross the wire and
is rejected at encode time rather than silently mangled.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Hashable, List, Mapping, Optional

from ..pubsub.schema import AttributeSchema
from ..pubsub.subscription import Event, Subscription

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_SIZE",
    "ProtocolError",
    "VersionMismatch",
    "FrameDecoder",
    "encode_frame",
    "hello_frame",
    "check_hello",
    "message_frame",
    "encode_payload",
    "decode_payload",
    "encode_subscription",
    "decode_subscription",
    "encode_event",
    "decode_event",
    "error_frame",
    "ok_frame",
    "ROLE_LINK",
    "ROLE_CLIENT",
]

#: Exact-match wire protocol version; bumped on any incompatible frame change.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON body (a batch of thousands of
#: subscriptions fits comfortably; anything larger is a corrupt length prefix).
MAX_FRAME_SIZE = 4 * 1024 * 1024

ROLE_LINK = "link"
ROLE_CLIENT = "client"

_LEN = struct.Struct(">I")
_JSON_ID_TYPES = (str, int, float, bool, type(None))


class ProtocolError(ValueError):
    """A malformed, oversized, truncated or otherwise unacceptable frame."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version."""


def _json_id(value: Hashable, what: str) -> Hashable:
    """Reject identifiers that cannot round-trip through JSON."""
    if not isinstance(value, _JSON_ID_TYPES):
        raise ProtocolError(
            f"{what} {value!r} is not JSON-safe; the wire protocol needs "
            "str/int/float/bool/None identifiers"
        )
    return value


def encode_frame(frame: Mapping[str, object]) -> bytes:
    """Serialize one frame: 4-byte big-endian length prefix + compact JSON."""
    if "type" not in frame:
        raise ProtocolError("frame has no 'type' field")
    body = json.dumps(frame, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_SIZE:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_SIZE ({MAX_FRAME_SIZE})"
        )
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte-chunk stream.

    Feed whatever the socket produced — single bytes, half frames, several
    frames at once — and get back the complete frames decoded so far.  The
    decoder validates as it goes: a length prefix beyond
    :data:`MAX_FRAME_SIZE` (or zero), a body that is not a JSON object, or a
    frame without a ``type`` raises :class:`ProtocolError` immediately.  Call
    :meth:`eof` when the peer closes to detect a truncated (short-read) frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Consume ``data``; return every frame completed by it (in order)."""
        self._buffer.extend(data)
        frames: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buffer)
            if length == 0 or length > MAX_FRAME_SIZE:
                raise ProtocolError(f"invalid frame length {length}")
            if len(self._buffer) < _LEN.size + length:
                return frames
            body = bytes(self._buffer[_LEN.size : _LEN.size + length])
            del self._buffer[: _LEN.size + length]
            try:
                frame = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
            if not isinstance(frame, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got {type(frame).__name__}"
                )
            if not isinstance(frame.get("type"), str):
                raise ProtocolError("frame has no string 'type' field")
            frames.append(frame)

    def eof(self) -> None:
        """Assert the stream ended on a frame boundary (no truncated frame)."""
        if self._buffer:
            raise ProtocolError(
                f"connection closed mid-frame ({len(self._buffer)} trailing bytes)"
            )


# --------------------------------------------------------------- handshaking
def hello_frame(role: str, node: Hashable) -> Dict[str, object]:
    """The first frame each side sends: version + role + node name."""
    if role not in (ROLE_LINK, ROLE_CLIENT):
        raise ProtocolError(f"unknown hello role {role!r}")
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "role": role,
        "node": _json_id(node, "node id"),
    }


def check_hello(frame: Mapping[str, object]) -> Mapping[str, object]:
    """Validate a received hello; raise :class:`VersionMismatch` on skew."""
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected hello frame, got {frame.get('type')!r}")
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer speaks protocol version {version!r}, this side speaks "
            f"{PROTOCOL_VERSION}"
        )
    role = frame.get("role", ROLE_CLIENT)
    if role not in (ROLE_LINK, ROLE_CLIENT):
        raise ProtocolError(f"unknown hello role {role!r}")
    return frame


# ------------------------------------------------------------------ payloads
def encode_subscription(subscription: Subscription) -> Dict[str, object]:
    """Subscription → JSON: id + application-unit constraints.

    The quantised ``ranges`` are *derived* state: the receiver re-quantises
    against its own copy of the schema, so both sides provably run the same
    grid (floats round-trip exactly through JSON).
    """
    return {
        "sub_id": _json_id(subscription.sub_id, "subscription id"),
        "constraints": {
            name: [float(lo), float(hi)]
            for name, (lo, hi) in subscription.constraints.items()
        },
    }


def decode_subscription(obj: Mapping[str, object], schema: AttributeSchema) -> Subscription:
    """JSON → Subscription bound to the receiver's schema."""
    try:
        constraints = {
            str(name): (float(pair[0]), float(pair[1]))
            for name, pair in dict(obj["constraints"]).items()
        }
        return Subscription(schema, constraints, sub_id=obj["sub_id"])
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed subscription payload: {exc}") from exc


def encode_event(event: Event) -> Dict[str, object]:
    """Event → JSON: id + application-unit values."""
    return {
        "event_id": _json_id(event.event_id, "event id"),
        "values": {name: float(value) for name, value in event.values.items()},
    }


def decode_event(obj: Mapping[str, object], schema: AttributeSchema) -> Event:
    """JSON → Event bound to the receiver's schema."""
    try:
        values = {str(name): float(value) for name, value in dict(obj["values"]).items()}
        return Event(schema, values, event_id=obj["event_id"])
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed event payload: {exc}") from exc


def encode_payload(kind: str, payload: object) -> object:
    """Encode one transport payload by message kind."""
    if kind == "subscription":
        if not isinstance(payload, Subscription):
            raise ProtocolError(f"subscription message with {type(payload).__name__} payload")
        return encode_subscription(payload)
    if kind == "unsubscription":
        return _json_id(payload, "subscription id")
    if kind == "event":
        if not isinstance(payload, Event):
            raise ProtocolError(f"event message with {type(payload).__name__} payload")
        return encode_event(payload)
    raise ProtocolError(f"unknown message kind {kind!r}")


def decode_payload(kind: str, obj: object, schema: AttributeSchema) -> object:
    """Decode one transport payload by message kind."""
    if kind == "subscription":
        if not isinstance(obj, Mapping):
            raise ProtocolError("subscription payload must be a JSON object")
        return decode_subscription(obj, schema)
    if kind == "unsubscription":
        return _json_id(obj, "subscription id")
    if kind == "event":
        if not isinstance(obj, Mapping):
            raise ProtocolError("event payload must be a JSON object")
        return decode_event(obj, schema)
    raise ProtocolError(f"unknown message kind {kind!r}")


# ------------------------------------------------------------------- framing
def message_frame(
    kind: str,
    sender: Hashable,
    receiver: Hashable,
    hops: int,
    sent_at: float,
    payload: object,
) -> Dict[str, object]:
    """One inter-broker routing message as a wire frame."""
    return {
        "type": "message",
        "kind": kind,
        "sender": _json_id(sender, "sender broker id"),
        "receiver": _json_id(receiver, "receiver broker id"),
        "hops": int(hops),
        "sent_at": float(sent_at),
        "payload": payload,
    }


def error_frame(error: str, seq: Optional[int] = None) -> Dict[str, object]:
    """An error reply (``seq`` correlates it to the offending command)."""
    frame: Dict[str, object] = {"type": "error", "error": str(error)}
    if seq is not None:
        frame["seq"] = seq
    return frame


def ok_frame(seq: Optional[int] = None, **extra: object) -> Dict[str, object]:
    """A success reply carrying command-specific result fields."""
    frame: Dict[str, object] = {"type": "ok"}
    if seq is not None:
        frame["seq"] = seq
    frame.update(extra)
    return frame
