"""Wire-protocol codec tests: framing, strict rejection, payload round-trips."""

from __future__ import annotations

import json
import struct

import pytest

from repro.net.protocol import (
    MAX_FRAME_SIZE,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    VersionMismatch,
    check_hello,
    decode_event,
    decode_payload,
    decode_subscription,
    encode_event,
    encode_frame,
    encode_payload,
    encode_subscription,
    hello_frame,
    message_frame,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.subscription import Event, Subscription


@pytest.fixture
def schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", -50.0, 50.0)], order=8
    )


class TestFraming:
    def test_round_trip_single_frame(self):
        frame = {"type": "ping", "seq": 3}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(frame)) == [frame]
        decoder.eof()  # nothing left over: no partial frame buffered

    def test_byte_by_byte_feed(self):
        frame = {"type": "hello", "version": PROTOCOL_VERSION, "role": "client"}
        data = encode_frame(frame)
        decoder = FrameDecoder()
        collected = []
        for i in range(len(data)):
            collected.extend(decoder.feed(data[i : i + 1]))
        assert collected == [frame]

    def test_several_frames_in_one_chunk(self):
        frames = [{"type": "ping", "seq": i} for i in range(5)]
        blob = b"".join(encode_frame(frame) for frame in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_truncated_frame_detected_at_eof(self):
        data = encode_frame({"type": "ping"})
        decoder = FrameDecoder()
        assert decoder.feed(data[:-2]) == []
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.eof()

    def test_eof_on_frame_boundary_is_clean(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"type": "ping"}))
        decoder.eof()  # no trailing bytes: must not raise

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="invalid frame length"):
            decoder.feed(struct.pack(">I", MAX_FRAME_SIZE + 1))

    def test_zero_length_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="invalid frame length"):
            FrameDecoder().feed(struct.pack(">I", 0))

    def test_non_json_body_rejected(self):
        body = b"\xff\xfenot json"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="JSON object"):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_missing_type_rejected(self):
        body = json.dumps({"seq": 1}).encode()
        with pytest.raises(ProtocolError, match="'type'"):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_encode_requires_type(self):
        with pytest.raises(ProtocolError, match="'type'"):
            encode_frame({"seq": 1})

    def test_encode_rejects_oversized_frame(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_SIZE"):
            encode_frame({"type": "blob", "data": "x" * (MAX_FRAME_SIZE + 1)})


class TestHello:
    def test_round_trip(self):
        frame = hello_frame("link", "broker-3")
        assert check_hello(frame) is frame

    def test_version_mismatch_raises(self):
        frame = hello_frame("client", "c")
        frame["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatch):
            check_hello(frame)

    def test_non_hello_frame_rejected(self):
        with pytest.raises(ProtocolError, match="expected hello"):
            check_hello({"type": "ping", "version": PROTOCOL_VERSION})

    def test_unknown_role_rejected(self):
        with pytest.raises(ProtocolError, match="role"):
            hello_frame("admin", "c")
        frame = hello_frame("client", "c")
        frame["role"] = "admin"
        with pytest.raises(ProtocolError, match="role"):
            check_hello(frame)


class TestPayloadCodecs:
    def test_subscription_round_trip_requantises(self, schema):
        original = Subscription(
            schema, {"x": (10.5, 42.25), "y": (-3.0, 7.0)}, sub_id="s1"
        )
        wire = json.loads(json.dumps(encode_subscription(original)))
        decoded = decode_subscription(wire, schema)
        assert decoded.sub_id == original.sub_id
        assert decoded.constraints == original.constraints
        # The receiver derives the quantised ranges from its own schema; both
        # sides must land on the same grid (floats round-trip through JSON).
        assert decoded.ranges == original.ranges

    def test_event_round_trip(self, schema):
        original = Event(schema, {"x": 33.3, "y": -11.5}, event_id="e9")
        wire = json.loads(json.dumps(encode_event(original)))
        decoded = decode_event(wire, schema)
        assert decoded.event_id == original.event_id
        assert decoded.values == original.values

    def test_unsubscription_payload_is_bare_id(self, schema):
        assert encode_payload("unsubscription", "s1") == "s1"
        assert decode_payload("unsubscription", "s1", schema) == "s1"

    def test_non_json_safe_ids_rejected(self, schema):
        with pytest.raises(ProtocolError, match="JSON-safe"):
            encode_subscription(
                Subscription(schema, {"x": (0.0, 1.0)}, sub_id=("tuple", 1))
            )
        with pytest.raises(ProtocolError, match="JSON-safe"):
            encode_payload("unsubscription", ("tuple", 1))

    def test_wrong_payload_type_rejected(self, schema):
        with pytest.raises(ProtocolError):
            encode_payload("subscription", "not-a-subscription")
        with pytest.raises(ProtocolError):
            encode_payload("event", 42)
        with pytest.raises(ProtocolError, match="unknown message kind"):
            encode_payload("gossip", None)

    def test_malformed_payload_objects_rejected(self, schema):
        with pytest.raises(ProtocolError, match="malformed subscription"):
            decode_subscription({"sub_id": "s"}, schema)
        with pytest.raises(ProtocolError, match="malformed event"):
            decode_event({"event_id": "e", "values": {"x": "NaN-ish?"}}, schema)
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload("event", [1, 2], schema)

    def test_message_frame_round_trips_subscription(self, schema):
        subscription = Subscription(schema, {"x": (1.0, 2.0)}, sub_id=7)
        frame = message_frame(
            "subscription", 0, 1,
            hops=1, sent_at=0.5, payload=encode_payload("subscription", subscription),
        )
        wire = FrameDecoder().feed(encode_frame(frame))[0]
        decoded = decode_payload("subscription", wire["payload"], schema)
        assert decoded.sub_id == 7
        assert decoded.ranges == subscription.ranges
