"""Synchronous client library for a served broker network.

:class:`NetClient` opens one TCP connection to one broker's server, performs
the hello handshake (exact-match version negotiation) and then exposes the
network's subscription lifecycle as plain blocking calls::

    with NetClient(host, port) as client:
        client.subscribe("alice", {"price": (10.0, 50.0)}, sub_id="a1")
        delivered = client.publish({"price": 25.0, "volume": 100.0,
                                    "change_pct": 0.0}, event_id="e1")
        assert "alice" in delivered
        client.unsubscribe("alice", "a1")

Connection establishment retries (the server may still be booting when the
client starts — the loopback smoke test races exactly that), every request
carries a ``seq`` the reply must echo, and every wait is bounded by
``timeout`` — a dead server surfaces as :class:`NetTimeout`, a server-side
rejection as :class:`NetError`.

:func:`fetch_metrics` is the matching scrape helper: a plain HTTP ``GET
/metrics`` against the same port, returning the Prometheus text exposition.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..pubsub.subscription import Event, Subscription
from .protocol import (
    FrameDecoder,
    ProtocolError,
    ROLE_CLIENT,
    check_hello,
    encode_event,
    encode_frame,
    encode_subscription,
    hello_frame,
)

__all__ = ["NetClient", "NetError", "NetTimeout", "fetch_metrics"]

ConstraintMap = Mapping[str, Tuple[float, float]]


class NetError(RuntimeError):
    """The server answered a command with an ``error`` frame."""


class NetTimeout(NetError, TimeoutError):
    """The server did not answer within the client's timeout."""


class NetClient:
    """A blocking wire-protocol client bound to one broker's server.

    Parameters
    ----------
    host / port:
        The broker server to talk to (as printed by the ``serve`` CLI).
    timeout:
        Bound, in seconds, on every socket operation and reply wait.

    A client connects up to :attr:`CONNECT_RETRIES` times,
    :attr:`RETRY_DELAY` seconds apart, so it may start concurrently with the
    server it targets, and announces itself as ``"client"`` in the hello.
    """

    CONNECT_RETRIES = 20
    RETRY_DELAY = 0.05

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._decoder = FrameDecoder()
        self._pending: List[Dict[str, object]] = []
        self._seq = 0
        self._sock = self._connect()
        self._handshake()

    # ------------------------------------------------------------- connection
    def _connect(self) -> socket.socket:
        last_error: Optional[Exception] = None
        retries = self.CONNECT_RETRIES
        for attempt in range(retries):
            try:
                sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
                sock.settimeout(self.timeout)
                return sock
            except OSError as exc:
                last_error = exc
                if attempt + 1 < retries:
                    time.sleep(self.RETRY_DELAY)
        raise NetError(
            f"could not connect to {self.host}:{self.port} after {retries} attempts: "
            f"{last_error}"
        )

    def _handshake(self) -> None:
        self._sock.sendall(encode_frame(hello_frame(ROLE_CLIENT, "client")))
        reply = self._read_frame()
        if reply.get("type") == "error":
            raise NetError(f"server rejected handshake: {reply.get('error')}")
        check_hello(reply)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- framing
    def _read_frame(self) -> Dict[str, object]:
        if self._pending:
            return self._pending.pop(0)
        deadline = time.monotonic() + self.timeout
        while True:
            if time.monotonic() > deadline:
                raise NetTimeout(f"no reply from {self.host}:{self.port} within {self.timeout}s")
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                raise NetTimeout(
                    f"no reply from {self.host}:{self.port} within {self.timeout}s"
                ) from exc
            if not data:
                self._decoder.eof()
                raise NetError(f"server {self.host}:{self.port} closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                self._pending.extend(frames[1:])
                return frames[0]

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        self._seq += 1
        frame["seq"] = self._seq
        self._sock.sendall(encode_frame(frame))
        while True:
            reply = self._read_frame()
            if reply.get("seq") != self._seq:
                # A reply to an older command (e.g. after a timeout retry);
                # correlation is by seq, so skip it.
                continue
            if reply.get("type") == "error":
                raise NetError(str(reply.get("error")))
            return reply

    # ---------------------------------------------------------------- commands
    def ping(self) -> float:
        """Liveness probe; returns the server transport's clock."""
        return float(self._request({"type": "ping"})["now"])  # type: ignore[arg-type]

    def subscribe(
        self,
        client_id: Hashable,
        subscription: Union[Subscription, ConstraintMap],
        sub_id: Optional[Hashable] = None,
    ) -> Hashable:
        """Register a subscription at the connected broker; returns its id."""
        payload = self._subscription_payload(subscription, sub_id)
        reply = self._request(
            {"type": "subscribe", "client_id": client_id, "subscription": payload}
        )
        return reply["sub_id"]

    def unsubscribe(self, client_id: Hashable, sub_id: Hashable) -> bool:
        """Withdraw a subscription network-wide; True when it existed."""
        reply = self._request(
            {"type": "unsubscribe", "client_id": client_id, "sub_id": sub_id}
        )
        return bool(reply["found"])

    def publish(
        self,
        event: Union[Event, Mapping[str, float]],
        event_id: Optional[Hashable] = None,
    ) -> Set[Hashable]:
        """Publish at the connected broker; returns the delivered client ids."""
        reply = self._request({"type": "publish", "event": self._event_payload(event, event_id)})
        return set(reply["delivered"])  # type: ignore[arg-type]

    def subscribe_batch(
        self, items: Sequence[Tuple[Hashable, Union[Subscription, ConstraintMap]]]
    ) -> int:
        """Register ``(client_id, subscription)`` pairs through the batch API."""
        wire_items = [
            [client_id, self._subscription_payload(subscription, None)]
            for client_id, subscription in items
        ]
        reply = self._request({"type": "batch", "op": "subscribe", "items": wire_items})
        return int(reply["count"])  # type: ignore[arg-type]

    def unsubscribe_batch(self, items: Sequence[Tuple[Hashable, Hashable]]) -> List[bool]:
        """Withdraw ``(client_id, sub_id)`` pairs; one found-flag per pair."""
        reply = self._request(
            {"type": "batch", "op": "unsubscribe", "items": [list(pair) for pair in items]}
        )
        return [bool(flag) for flag in reply["found"]]  # type: ignore[union-attr]

    def publish_batch(
        self, events: Sequence[Union[Event, Mapping[str, float]]]
    ) -> List[Set[Hashable]]:
        """Publish a batch of events; per-event delivered client-id sets."""
        wire_items = [self._event_payload(event, None) for event in events]
        reply = self._request({"type": "batch", "op": "publish", "items": wire_items})
        return [set(delivered) for delivered in reply["delivered"]]  # type: ignore[union-attr]

    def shutdown(self) -> None:
        """Ask the server to drain and stop the whole topology gracefully."""
        self._request({"type": "shutdown"})

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _subscription_payload(
        subscription: Union[Subscription, ConstraintMap], sub_id: Optional[Hashable]
    ) -> Dict[str, object]:
        if isinstance(subscription, Subscription):
            return encode_subscription(subscription)
        payload: Dict[str, object] = {
            "constraints": {
                name: [float(lo), float(hi)] for name, (lo, hi) in subscription.items()
            }
        }
        if sub_id is None:
            raise ProtocolError("subscribing with a constraint mapping needs an explicit sub_id")
        payload["sub_id"] = sub_id
        return payload

    @staticmethod
    def _event_payload(
        event: Union[Event, Mapping[str, float]], event_id: Optional[Hashable]
    ) -> Dict[str, object]:
        if isinstance(event, Event):
            return encode_event(event)
        if event_id is None:
            raise ProtocolError("publishing a value mapping needs an explicit event_id")
        return {
            "event_id": event_id,
            "values": {name: float(value) for name, value in event.items()},
        }


def fetch_metrics(host: str, port: int, timeout: float = 10.0) -> str:
    """HTTP ``GET /metrics`` against a broker server; returns the body text."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(
            f"GET /metrics HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        chunks: List[bytes] = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    if len(parts) < 2 or parts[1] != "200":
        raise NetError(f"metrics scrape failed: {status_line!r}")
    return body.decode("utf-8")
