"""Served-deployment tests: client lifecycle, /metrics, malformed peers, shutdown."""

from __future__ import annotations

import socket
import struct
import threading
from contextlib import contextmanager

import pytest

from repro.net import NetClient, NetError, NetTransport, fetch_metrics, serve_network
from repro.net.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame
from repro.obs.exposition import validate_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.workloads.scenarios import stock_market_scenario


@contextmanager
def _served(**network_kwargs):
    """A 3-broker tree served over loopback TCP; yields (addresses, thread)."""
    schema = stock_market_scenario(num_subscriptions=0, num_events=0).schema
    network = BrokerNetwork.from_topology(
        schema, tree_topology(3), seed=3, transport=NetTransport(), **network_kwargs
    )
    addresses = {}
    ready = threading.Event()

    def on_ready(addr_map):
        addresses.update(addr_map)
        ready.set()

    thread = threading.Thread(target=serve_network, args=(network,), kwargs={"on_ready": on_ready})
    thread.start()
    assert ready.wait(timeout=10.0), "server never became ready"
    try:
        yield addresses, thread
    finally:
        if thread.is_alive():
            try:
                with NetClient(*addresses[0], timeout=5.0) as client:
                    client.shutdown()
            except NetError:
                pass
            thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.fixture
def served_network():
    with _served(metrics=MetricsRegistry()) as served:
        yield served


def _raw_exchange(address, blobs, expect_reply=True):
    """Send raw bytes to a server; return the decoded reply frames."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        for blob in blobs:
            sock.sendall(blob)
        decoder = FrameDecoder()
        frames = []
        if expect_reply:
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
        return frames


class TestClientLifecycle:
    def test_subscribe_publish_unsubscribe_round_trip(self, served_network):
        addresses, _ = served_network
        with NetClient(*addresses[1]) as sub_client, NetClient(*addresses[2]) as pub_client:
            assert sub_client.ping() >= 0.0
            sub_id = sub_client.subscribe("alice", {"price": (10.0, 50.0)}, sub_id="a1")
            assert sub_id == "a1"
            delivered = pub_client.publish(
                {"price": 25.0, "volume": 100.0, "change_pct": 0.0}, event_id="e1"
            )
            assert delivered == {"alice"}
            assert sub_client.unsubscribe("alice", "a1") is True
            assert sub_client.unsubscribe("alice", "a1") is False
            delivered = pub_client.publish(
                {"price": 25.0, "volume": 100.0, "change_pct": 0.0}, event_id="e2"
            )
            assert delivered == set()

    def test_batch_commands(self, served_network):
        from repro.pubsub.subscription import Subscription

        addresses, _ = served_network
        schema = stock_market_scenario(num_subscriptions=0, num_events=0).schema
        with NetClient(*addresses[0]) as client:
            count = client.subscribe_batch(
                [
                    ("alice", Subscription(schema, {"price": (0.0, 100.0)}, sub_id="ba")),
                    ("bob", Subscription(schema, {"price": (50.0, 200.0)}, sub_id="bb")),
                ]
            )
            assert count == 2
            from repro.pubsub.subscription import Event

            [low, high] = client.publish_batch(
                [
                    Event(schema, {"price": 25.0, "volume": 1.0, "change_pct": 0.0},
                          event_id="be1"),
                    Event(schema, {"price": 150.0, "volume": 1.0, "change_pct": 0.0},
                          event_id="be2"),
                ]
            )
            assert low == {"alice"}
            assert high == {"bob"}
            flags = client.unsubscribe_batch(
                [("alice", "ba"), ("bob", "bb"), ("ghost", "gx")]
            )
            assert flags == [True, True, False]

    def test_mapping_forms_require_explicit_ids(self, served_network):
        from repro.net.protocol import ProtocolError

        addresses, _ = served_network
        with NetClient(*addresses[0]) as client:
            with pytest.raises(ProtocolError):
                client.subscribe("alice", {"price": (0.0, 1.0)})  # no sub_id
            with pytest.raises(ProtocolError):
                client.publish({"price": 1.0, "volume": 1.0, "change_pct": 0.0})

    def test_unknown_command_gets_error_frame(self, served_network):
        addresses, _ = served_network
        with NetClient(*addresses[0]) as client:
            with pytest.raises(NetError, match="unknown command"):
                client._request({"type": "frobnicate"})


class TestMetricsEndpoint:
    def test_scrape_validates_and_reflects_traffic(self, served_network):
        addresses, _ = served_network
        with NetClient(*addresses[1]) as client:
            client.subscribe("alice", {"price": (10.0, 50.0)}, sub_id="a1")
            client.publish(
                {"price": 20.0, "volume": 5.0, "change_pct": 0.0}, event_id="e1"
            )
        for broker_id, (host, port) in addresses.items():
            text = fetch_metrics(host, port)
            validate_prometheus_text(text)
            assert "repro_transport_counter_total" in text

    def test_network_without_a_registry_serves_broker_counters(self):
        with _served() as (addresses, _):
            for host, port in addresses.values():
                samples = validate_prometheus_text(fetch_metrics(host, port))
                assert "repro_broker_counter_total" in samples

    def test_unknown_path_is_404(self, served_network):
        addresses, _ = served_network
        host, port = addresses[0]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(b"GET /nope HTTP/1.0\r\n\r\n")
            raw = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                raw += data
        assert b"404" in raw.split(b"\r\n", 1)[0]


class TestMalformedPeers:
    def test_version_mismatch_rejected_with_error_frame(self, served_network):
        addresses, _ = served_network
        bad_hello = encode_frame(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION + 1,
                "role": "client",
                "node": "time-traveller",
            }
        )
        frames = _raw_exchange(addresses[0], [bad_hello])
        assert frames and frames[0]["type"] == "error"
        assert "version" in frames[0]["error"]

    def test_garbage_bytes_rejected_with_error_frame(self, served_network):
        addresses, _ = served_network
        # A length prefix claiming far more than MAX_FRAME_SIZE: rejected
        # before any body arrives.
        frames = _raw_exchange(addresses[0], [struct.pack(">I", 0xFFFFFFFF)])
        assert frames and frames[0]["type"] == "error"
        assert "length" in frames[0]["error"]

    def test_non_hello_first_frame_rejected(self, served_network):
        addresses, _ = served_network
        frames = _raw_exchange(addresses[0], [encode_frame({"type": "ping", "seq": 1})])
        assert frames and frames[0]["type"] == "error"
        assert "hello" in frames[0]["error"]

    def test_client_may_not_send_message_frames(self, served_network):
        addresses, _ = served_network
        from repro.net.protocol import ROLE_CLIENT, hello_frame

        blobs = [
            encode_frame(hello_frame(ROLE_CLIENT, "imposter")),
            encode_frame(
                {
                    "type": "message",
                    "kind": "event",
                    "sender": 9,
                    "receiver": 0,
                    "hops": 1,
                    "sent_at": 0.0,
                    "payload": {},
                }
            ),
        ]
        with socket.create_connection(addresses[0], timeout=5.0) as sock:
            sock.settimeout(5.0)
            for blob in blobs:
                sock.sendall(blob)
            decoder = FrameDecoder()
            collected = []
            while True:
                try:
                    data = sock.recv(65536)
                except socket.timeout:
                    break
                if not data:
                    break
                collected.extend(decoder.feed(data))
                if any(frame["type"] == "error" for frame in collected):
                    break
        # First reply is the server's hello; the message frame then draws an
        # error and the connection closes.
        assert collected and collected[0]["type"] == "hello"
        assert any(
            frame["type"] == "error" and "message frames" in frame["error"]
            for frame in collected
        )


class TestGracefulShutdown:
    def test_shutdown_stops_the_serve_loop(self, served_network):
        addresses, thread = served_network
        with NetClient(*addresses[0]) as client:
            client.subscribe("alice", {"price": (0.0, 100.0)}, sub_id="a1")
            client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
