"""The networked transport: brokers exchange messages over loopback TCP.

:class:`NetTransport` is the third implementation of the
:class:`~repro.sim.transport.Transport` seam (after the synchronous and
simulated ones): every inter-broker subscription, unsubscription and event
message is serialized through the versioned wire protocol
(:mod:`repro.net.protocol`), written to a real TCP socket, read back by the
receiving broker's :class:`~repro.net.server.BrokerServer` and only then
dispatched into the broker — `BrokerNetwork` code is unchanged, and the
scripted-lockstep suite pins that the networked deployment is the *same
routing machine* as the in-process transports.

Topology of the implementation:

* one background thread runs a private asyncio event loop;
* one TCP server per broker (ephemeral loopback port by default), started as
  brokers register (``broker_added``) or lazily on first send;
* one persistent TCP connection per directed overlay link — TCP's in-order
  delivery gives the per-link FIFO guarantee the broker protocol needs (a
  subscription and its later withdrawal arrive in order);
* arrivals land in a thread-safe queue; :meth:`flush` drains it on the
  calling (control) thread until the network is quiescent (every frame sent
  has either landed, been counted lost, or been dropped at a down broker),
  so all broker-state mutation stays single-threaded.

Liveness mirrors :class:`~repro.sim.transport.SyncTransport`: messages to a
crashed broker are dropped (at send time, and again at dispatch time for
frames already in flight when the crash hit) and counted.

:func:`serve_network` is the deployment entry point used by the CLI ``serve``
subcommand: it parks the control thread on the transport's command queue so
client connections (see :mod:`repro.net.client`) can subscribe, publish and
scrape ``/metrics`` against a live topology, and shuts the whole thing down
gracefully (drain-then-close) on a ``shutdown`` command.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Hashable, Optional, Tuple

from ..sim.transport import Message, Transport
from .protocol import (
    ProtocolError,
    ROLE_LINK,
    FrameDecoder,
    check_hello,
    decode_payload,
    decode_subscription,
    decode_event,
    encode_frame,
    encode_payload,
    error_frame,
    hello_frame,
    message_frame,
    ok_frame,
)
from .server import BrokerServer

__all__ = ["NetTransport", "serve_network"]

_CLOSE = object()

#: Wall-clock bound on one :meth:`NetTransport.flush`: a quiescence wait
#: exceeding it raises rather than hanging the control thread forever.
FLUSH_TIMEOUT = 30.0

#: One queued client command: (broker_id, frame, thread-safe reply callable).
Command = Tuple[Hashable, Dict[str, object], Callable[[Dict[str, object]], None]]


class NetTransport(Transport):
    """Inter-broker messaging over real TCP sockets on one machine.

    Parameters
    ----------
    host:
        Interface every broker server binds (loopback by default; ports are
        always ephemeral and reported by :meth:`addresses`).
    """

    def __init__(self, *, host: str = "127.0.0.1") -> None:
        super().__init__()
        self.host = host
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._servers: Dict[Hashable, BrokerServer] = {}
        self._addresses: Dict[Hashable, Tuple[str, int]] = {}
        # Event-loop-thread state: one queue + writer task per directed link.
        self._link_queues: Dict[Tuple[Hashable, Hashable], asyncio.Queue] = {}
        self._link_tasks: Dict[Tuple[Hashable, Hashable], asyncio.Task] = {}
        self._dead_links: set = set()
        # Cross-thread accounting guarded by one condition variable: a frame
        # is "sent" when handed to the loop, "landed" when the receiving
        # server decoded it, "lost" when its link died under it.
        self._cond = threading.Condition()
        self._frames_sent = 0
        self._frames_landed = 0
        self._frames_lost = 0
        self._arrivals: Deque[Message] = deque()
        self.commands: "queue.Queue[Command]" = queue.Queue()
        self.protocol_errors = 0
        self._closed = False
        self._epoch = time.monotonic()

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Wall-clock seconds since the transport was created."""
        return time.monotonic() - self._epoch

    # --------------------------------------------------------------- lifecycle
    def broker_added(self, broker_id: Hashable) -> None:
        """Network hook: a broker registered — bring its server up."""
        self.ensure_server(broker_id)

    def ensure_server(self, broker_id: Hashable) -> Tuple[str, int]:
        """Start (or look up) the broker's TCP server; return its address."""
        address = self._addresses.get(broker_id)
        if address is not None:
            return address
        if self._closed:
            raise RuntimeError("transport is closed")
        self._ensure_loop()
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(self._start_server(broker_id), self._loop)
        return future.result(timeout=10.0)

    def addresses(self) -> Dict[Hashable, Tuple[str, int]]:
        """``broker_id → (host, port)`` for every running server."""
        return dict(self._addresses)

    def start_serving(self) -> Dict[Hashable, Tuple[str, int]]:
        """Ensure every registered broker has a server; return the addresses."""
        if self.network is not None:
            for broker_id in self.network.brokers:
                self.ensure_server(broker_id)
        return self.addresses()

    def _ensure_loop(self) -> None:
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="net-transport", daemon=True
        )
        self._thread.start()

    async def _start_server(self, broker_id: Hashable) -> Tuple[str, int]:
        server = self._servers.get(broker_id)
        if server is None:
            server = BrokerServer(
                broker_id,
                on_message=self._on_link_message,
                on_command=self._on_command,
                host=self.host,
            )
            address = await server.start()
            self._servers[broker_id] = server
            self._addresses[broker_id] = address
        return self._addresses[broker_id]

    def close(self) -> None:
        """Drain-then-close every link connection and broker server."""
        if self._closed:
            return
        self._closed = True
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        try:
            future.result(timeout=10.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._loop.close()

    async def _shutdown(self) -> None:
        for link_queue in self._link_queues.values():
            link_queue.put_nowait(_CLOSE)
        for task in self._link_tasks.values():
            try:
                await asyncio.wait_for(task, timeout=5.0)
            except Exception:
                task.cancel()
        for server in self._servers.values():
            await server.close()

    # ---------------------------------------------------------------- sending
    def send(self, kind: str, sender: Hashable, receiver: Hashable, payload: object) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")
        self.stats.messages_sent += 1
        if not self.is_up(receiver):
            self.stats.messages_dropped += 1
            return
        frame = message_frame(
            kind,
            sender,
            receiver,
            hops=self._next_hops(kind),
            sent_at=self.now,
            payload=encode_payload(kind, payload),
        )
        data = encode_frame(frame)
        self.ensure_server(receiver)
        assert self._loop is not None
        with self._cond:
            self._frames_sent += 1
        self._loop.call_soon_threadsafe(self._enqueue_link, (sender, receiver), data)

    def _enqueue_link(self, link: Tuple[Hashable, Hashable], data: bytes) -> None:
        """Event-loop thread: queue a frame on its link, starting the writer."""
        if link in self._dead_links:
            self._count_lost(1)
            return
        link_queue = self._link_queues.get(link)
        if link_queue is None:
            link_queue = asyncio.Queue()
            self._link_queues[link] = link_queue
            assert self._loop is not None
            self._link_tasks[link] = self._loop.create_task(self._run_link(link, link_queue))
        link_queue.put_nowait(data)

    async def _run_link(self, link: Tuple[Hashable, Hashable], link_queue: asyncio.Queue) -> None:
        """One directed overlay link: connect, handshake, stream frames FIFO."""
        sender, receiver = link
        writer = None
        try:
            host, port = self._addresses[receiver]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(hello_frame(ROLE_LINK, sender)))
            await writer.drain()
            decoder = FrameDecoder()
            frames: list = []
            while not frames:
                data = await reader.read(4096)
                if not data:
                    raise ProtocolError("link connection closed during handshake")
                frames = decoder.feed(data)
            check_hello(frames[0])
            while True:
                data = await link_queue.get()
                if data is _CLOSE:
                    break
                writer.write(data)
                await writer.drain()
        except Exception:
            self._fail_link(link, link_queue)
        finally:
            if writer is not None:
                try:
                    writer.close()
                except Exception:
                    pass

    def _fail_link(self, link: Tuple[Hashable, Hashable], link_queue: asyncio.Queue) -> None:
        """A link died: everything queued (or queued later) counts as lost."""
        self._dead_links.add(link)
        lost = 0
        while not link_queue.empty():
            if link_queue.get_nowait() is not _CLOSE:
                lost += 1
        self._count_lost(lost)

    def _count_lost(self, count: int) -> None:
        if count <= 0:
            return
        with self._cond:
            self._frames_lost += count
            self.stats.messages_dropped += count
            self._cond.notify_all()

    # --------------------------------------------------------------- receiving
    def _on_link_message(self, broker_id: Hashable, frame: Dict[str, object]) -> None:
        """Event-loop thread: one decoded message frame reached ``broker_id``."""
        try:
            kind = str(frame["kind"])
            payload = decode_payload(kind, frame["payload"], self.network.schema)
            message = Message(
                kind,
                frame["sender"],
                broker_id,
                payload,
                hops=int(frame["hops"]),  # type: ignore[arg-type]
                sent_at=float(frame["sent_at"]),  # type: ignore[arg-type]
            )
        except (ProtocolError, KeyError, TypeError, ValueError):
            with self._cond:
                self.protocol_errors += 1
                self._frames_lost += 1
                self._cond.notify_all()
            return
        with self._cond:
            self._arrivals.append(message)
            self._frames_landed += 1
            self._cond.notify_all()

    def _on_command(
        self,
        broker_id: Hashable,
        frame: Dict[str, object],
        reply: Callable[[Dict[str, object]], None],
    ) -> None:
        """Event-loop thread: park a client command for the control thread."""
        self.commands.put((broker_id, frame, reply))

    # ----------------------------------------------------------------- flushing
    def flush(self) -> int:
        """Dispatch arrivals until the network is quiescent; return the count.

        Quiescent means: every frame handed to the loop has landed at its
        server (or been counted lost), and the arrival queue is drained —
        including frames triggered by the dispatches this flush performed.
        """
        if self._loop is None:
            return 0
        dispatched = 0
        deadline = time.monotonic() + FLUSH_TIMEOUT
        while True:
            message: Optional[Message] = None
            with self._cond:
                while True:
                    if self._arrivals:
                        message = self._arrivals.popleft()
                        break
                    if self._frames_landed + self._frames_lost >= self._frames_sent:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(timeout=min(0.25, remaining)):
                        if time.monotonic() >= deadline:
                            raise RuntimeError(
                                "NetTransport.flush timed out waiting for "
                                f"{self._frames_sent - self._frames_landed - self._frames_lost} "
                                "in-flight frame(s)"
                            )
            if message is None:
                break
            dispatched += 1
            if self.is_up(message.receiver):
                self._deliver(
                    message.kind,
                    message.sender,
                    message.receiver,
                    message.payload,
                    message.hops,
                    message.sent_at,
                )
            else:
                # Crashed after the frame hit the socket: the arrival is lost
                # exactly like the simulated transport's inbox wipe.
                self.stats.messages_dropped += 1
        return dispatched


# ---------------------------------------------------------------- deployment
def _execute_command(
    network, broker_id: Hashable, frame: Dict[str, object]
) -> Tuple[Dict[str, object], bool]:
    """Run one client command against the network; return (reply, shutdown?)."""
    seq = frame.get("seq")
    kind = frame.get("type")
    schema = network.schema
    if kind == "ping":
        return ok_frame(seq, now=network.transport.now), False
    if kind == "metrics":
        return ok_frame(seq, body=network.scrape()), False
    if kind == "shutdown":
        return ok_frame(seq), True
    if kind == "subscribe":
        subscription = decode_subscription(frame["subscription"], schema)
        network.subscribe(broker_id, frame["client_id"], subscription)
        network.flush()
        return ok_frame(seq, sub_id=subscription.sub_id), False
    if kind == "unsubscribe":
        found = network.unsubscribe(frame["client_id"], frame["sub_id"])
        network.flush()
        return ok_frame(seq, found=bool(found)), False
    if kind == "publish":
        event = decode_event(frame["event"], schema)
        delivered = network.publish(broker_id, event)
        return ok_frame(seq, delivered=sorted(delivered, key=str)), False
    if kind == "batch":
        op = frame.get("op")
        items = frame.get("items") or []
        if op == "subscribe":
            pairs = [
                (client_id, decode_subscription(obj, schema)) for client_id, obj in items
            ]
            network.subscribe_batch(broker_id, pairs)
            return ok_frame(seq, count=len(pairs)), False
        if op == "unsubscribe":
            flags = network.unsubscribe_batch([tuple(pair) for pair in items])
            return ok_frame(seq, found=[bool(flag) for flag in flags]), False
        if op == "publish":
            events = [decode_event(obj, schema) for obj in items]
            delivered = network.publish_batch(broker_id, events)
            return ok_frame(seq, delivered=[sorted(d, key=str) for d in delivered]), False
        raise ProtocolError(f"unknown batch op {op!r}")
    raise ProtocolError(f"unknown command type {kind!r}")


def serve_network(
    network,
    *,
    on_ready: Optional[Callable[[Dict[Hashable, Tuple[str, int]]], None]] = None,
) -> None:
    """Serve a :class:`~repro.pubsub.network.BrokerNetwork` over TCP until shutdown.

    The network must be bound to a :class:`NetTransport`.  Every broker's
    server is brought up, ``on_ready`` is called with the address map, and
    the calling thread becomes the single place all broker state mutates:
    it pops client commands off the transport's queue (waking every 0.1 s
    while it is empty), executes them against the network (each command
    drains the transport before its reply), and answers.  A ``shutdown``
    command drains in-flight traffic, closes every server and returns.
    """
    transport = network.transport
    if not isinstance(transport, NetTransport):
        raise ValueError(
            f"serve_network needs a NetTransport-backed network, got "
            f"{type(transport).__name__}"
        )
    addresses = transport.start_serving()
    if on_ready is not None:
        on_ready(addresses)
    try:
        while True:
            try:
                broker_id, frame, reply = transport.commands.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                response, stop = _execute_command(network, broker_id, frame)
            except (ProtocolError, KeyError, TypeError, ValueError) as exc:
                reply(error_frame(str(exc), seq=frame.get("seq")))
                continue
            reply(response)
            if stop:
                break
        network.flush()
    finally:
        transport.close()
