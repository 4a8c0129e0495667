"""Content-based publish/subscribe substrate: schema, subscriptions, brokers, network.

A client is an id: it subscribes and publishes through
:class:`BrokerNetwork` (``subscribe`` / ``publish``) with a
:class:`Subscription` or :class:`Event` built from the schema.
"""

from ..sim.transport import TransportStats
from .broker import LOCAL_INTERFACE, Broker, BrokerStats
from .network import (
    BrokerNetwork,
    DeliveryLog,
    DeliveryRecord,
    chain_topology,
    star_topology,
    tree_topology,
)
from .match_index import MatchIndex, MatchIndexStats
from .routing_table import COVERING_KINDS, InterfaceTable, RoutingTable
from .schema import Attribute, AttributeSchema
from .subscription import Event, Subscription
from .subscription_store import ProfileCache, SubscriptionProfile, SubscriptionStore

__all__ = [
    "LOCAL_INTERFACE",
    "Broker",
    "BrokerNetwork",
    "DeliveryLog",
    "DeliveryRecord",
    "chain_topology",
    "star_topology",
    "tree_topology",
    "COVERING_KINDS",
    "MatchIndex",
    "MatchIndexStats",
    "InterfaceTable",
    "RoutingTable",
    "Attribute",
    "AttributeSchema",
    "BrokerStats",
    "TransportStats",
    "Event",
    "Subscription",
    "ProfileCache",
    "SubscriptionProfile",
    "SubscriptionStore",
]
