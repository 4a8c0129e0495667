"""Thin client objects: publishers and subscribers attached to brokers.

The broker network can be driven directly (``network.subscribe`` /
``network.publish``), but examples and integration tests read more naturally
with explicit client objects: a :class:`Subscriber` remembers what it asked
for and what it received; a :class:`Publisher` stamps events with its own id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, List, Mapping, Optional, Tuple

from .network import BrokerNetwork
from .subscription import Event, Subscription

__all__ = ["Subscriber", "Publisher"]

_client_counter = itertools.count()


@dataclass
class Subscriber:
    """A client that registers subscriptions at one broker and collects deliveries."""

    network: BrokerNetwork
    broker_id: Hashable
    client_id: Hashable = field(default_factory=lambda: f"subscriber-{next(_client_counter)}")
    subscriptions: List[Subscription] = field(default_factory=list)

    def subscribe(self, constraints: Mapping[str, Tuple[float, float]]) -> Subscription:
        """Register a new subscription built from ``constraints`` and return it."""
        subscription = Subscription(self.network.schema, constraints)
        self.subscriptions.append(subscription)
        self.network.subscribe(self.broker_id, self.client_id, subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Withdraw a previously registered subscription; return True when it existed."""
        removed = self.network.unsubscribe(self.client_id, subscription.sub_id)
        if removed:
            self.subscriptions = [s for s in self.subscriptions if s.sub_id != subscription.sub_id]
        return removed

    def received_events(self) -> List[Hashable]:
        """Return the ids of events delivered to this client among the retained deliveries.

        In delivery order; the network's :class:`~repro.pubsub.network.DeliveryLog`
        keeps only the most recent :data:`~repro.sim.transport.RETENTION`
        deliveries, so an older one is not listed.
        """
        return [
            record.event_id
            for record in self.network.deliveries
            if record.client_id == self.client_id
        ]


@dataclass
class Publisher:
    """A client that publishes events at one broker."""

    network: BrokerNetwork
    broker_id: Hashable
    client_id: Hashable = field(default_factory=lambda: f"publisher-{next(_client_counter)}")
    published: List[Event] = field(default_factory=list)

    def publish(self, values: Mapping[str, float], event_id: Optional[Hashable] = None) -> Event:
        """Publish an event with the given attribute values; return the event."""
        if event_id is None:
            event = Event(self.network.schema, values)
        else:
            event = Event(self.network.schema, values, event_id=event_id)
        self.published.append(event)
        self.network.publish(self.broker_id, event)
        return event
