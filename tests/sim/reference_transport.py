"""A frozen copy of the simulated transport's per-message path, as an oracle.

``ReferenceKernel`` and ``ReferenceSimTransport`` are the event kernel and
``SimTransport`` as they stood before the transport kept one record per
inbox and per link: a ``Message`` dataclass per message, every push through
``schedule_at`` / ``schedule``, the dicts ``_inboxes``, ``_draining``,
``_drain_generation``, ``_retry_generation``, ``_link_clock`` and
``_link_blocked``, and generation numbers as the crash fence.  The
differential test (``test_transport_differential.py``) drives it beside
today's transport; the two must run the same kernel schedule.  Do not
"improve" this file: it is the schedule being pinned.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from typing import Deque, Dict, Hashable, Optional, Tuple

from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.transport import Message, Transport


class ReferenceKernel:
    def __init__(self, seed: Optional[int] = 0) -> None:
        self._rng = random.Random(seed)
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.executed = 0

    def schedule_at(self, time, action, *args) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time} in the past (now={self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._rng.random(), self._seq, action, args))

    def schedule(self, delay, action, *args) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._rng.random(), self._seq, action, args)
        )

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run(self, until=None, max_steps=None) -> int:
        heap = self._heap
        pop = heapq.heappop
        steps = 0
        while heap:
            if until is not None and heap[0][0] > until:
                break
            if max_steps is not None and steps >= max_steps:
                break
            time, _tie, _seq, action, args = pop(heap)
            self.now = time
            self.executed += 1
            action(*args)
            steps += 1
        if until is not None and self.now < until:
            self.now = until
        return steps


class ReferenceSimTransport(Transport):
    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        *,
        inbox_capacity: int = 64,
        service_time: float = 0.01,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__()
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.inbox_capacity = inbox_capacity
        self.service_time = service_time
        self.retry_delay = max(4 * service_time, 0.05)
        self.kernel = ReferenceKernel(seed=seed)
        self._rng = random.Random(seed)
        self._inboxes: Dict[Hashable, Deque[Message]] = {}
        self._draining: set = set()
        self._drain_generation: Dict[Hashable, int] = {}
        self._retry_generation: Dict[Tuple[Hashable, Hashable], int] = {}
        self._link_clock: Dict[Tuple[Hashable, Hashable], float] = {}
        self._link_blocked: Dict[Tuple[Hashable, Hashable], Deque[Message]] = {}

    @property
    def now(self) -> float:
        return self.kernel.now

    def _next_hops(self, kind: str) -> int:
        return self._hops + 1 if kind == "event" else 1

    def _deliver(self, kind, sender, receiver, payload, hops, sent_at) -> None:
        stats = self.stats
        stats.messages_delivered += 1
        if kind == "event":
            latency = self.now - sent_at
            stats.hop_counts.append(hops)
            stats.hop_latencies.append(latency)
            observe = self._observe_arrival
            if observe is not None:
                observe(sender, receiver, payload, hops, sent_at, latency)
        outer = self._hops
        self._hops = hops
        try:
            self.network._dispatch(kind, sender, receiver, payload)
        finally:
            self._hops = outer

    def send(self, kind, sender, receiver, payload) -> None:
        self.stats.messages_sent += 1
        message = Message(
            kind, sender, receiver, payload, hops=self._next_hops(kind), sent_at=self.kernel.now
        )
        delay = self.latency.sample(sender, receiver, self._rng)
        link = (sender, receiver)
        arrival = self.kernel.now + delay
        floor = self._link_clock.get(link)
        if floor is not None and arrival <= floor:
            arrival = math.nextafter(floor, math.inf)
        self._link_clock[link] = arrival
        self.kernel.schedule_at(arrival, self._arrive, message)

    def _arrive(self, message: Message) -> None:
        if not self.is_up(message.receiver):
            self.stats.messages_dropped += 1
            return
        link = (message.sender, message.receiver)
        blocked = self._link_blocked.get(link)
        if blocked:
            blocked.append(message)
            return
        if not self._try_enqueue(message):
            self._link_blocked[link] = deque([message])
            self.stats.backpressure_retries += 1
            self._schedule_retry(link)

    def _schedule_retry(self, link) -> None:
        generation = self._retry_generation.get(link, 0)
        self.kernel.schedule(self.retry_delay, self._retry_link, link, generation)

    def _retry_link(self, link, generation: int) -> None:
        if generation != self._retry_generation.get(link, 0):
            return
        blocked = self._link_blocked.get(link)
        if not blocked:
            self._link_blocked.pop(link, None)
            return
        receiver = link[1]
        if not self.is_up(receiver):
            self.stats.messages_dropped += len(blocked)
            self._link_blocked.pop(link, None)
            return
        while blocked:
            if not self._try_enqueue(blocked[0]):
                self.stats.backpressure_retries += 1
                self._schedule_retry(link)
                return
            blocked.popleft()
        self._link_blocked.pop(link, None)

    def _try_enqueue(self, message: Message) -> bool:
        inbox = self._inboxes.setdefault(message.receiver, deque())
        if len(inbox) >= self.inbox_capacity:
            return False
        inbox.append(message)
        depth = len(inbox)
        high_water = self.stats.queue_depth_high_water
        if depth > high_water.get(message.receiver, 0):
            high_water[message.receiver] = depth
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if message.receiver not in self._draining:
            self._draining.add(message.receiver)
            self._schedule_process(message.receiver)
        return True

    def _schedule_process(self, broker_id) -> None:
        generation = self._drain_generation.get(broker_id, 0)
        self.kernel.schedule(self.service_time, self._process, broker_id, generation)

    def _process(self, broker_id, generation: int) -> None:
        if generation != self._drain_generation.get(broker_id, 0):
            return
        inbox = self._inboxes.get(broker_id)
        if not inbox or not self.is_up(broker_id):
            self._draining.discard(broker_id)
            return
        message = inbox.popleft()
        self._deliver(
            message.kind,
            message.sender,
            message.receiver,
            message.payload,
            message.hops,
            message.sent_at,
        )
        if inbox:
            self._schedule_process(broker_id)
        else:
            self._draining.discard(broker_id)

    def flush(self) -> int:
        return self.kernel.run()

    def mark_down(self, broker_id) -> None:
        super().mark_down(broker_id)
        inbox = self._inboxes.pop(broker_id, None)
        if inbox:
            self.stats.messages_dropped += len(inbox)
        for link in list(self._link_blocked):
            if link[1] == broker_id:
                self.stats.messages_dropped += len(self._link_blocked[link])
                del self._link_blocked[link]
                self._retry_generation[link] = self._retry_generation.get(link, 0) + 1
        for link in list(self._link_clock):
            if link[1] == broker_id:
                del self._link_clock[link]
        self._draining.discard(broker_id)
        self._drain_generation[broker_id] = self._drain_generation.get(broker_id, 0) + 1
