"""Content-based publish/subscribe substrate: schema, subscriptions, brokers, network."""

from ..sim.transport import TransportStats
from .broker import LOCAL_INTERFACE, Broker, BrokerStats
from .client import Publisher, Subscriber
from .network import (
    BrokerNetwork,
    DeliveryLog,
    DeliveryRecord,
    PartitionAudit,
    chain_topology,
    star_topology,
    tree_topology,
)
from .match_index import MatchIndex, MatchIndexStats
from .sharded_index import ShardedMatchIndex
from .routing_table import (
    COVERING_KINDS,
    ApproximateCoveringStrategy,
    CoveringStrategy,
    ExactCoveringStrategy,
    InterfaceTable,
    NoCoveringStrategy,
    RoutingTable,
    make_covering_strategy,
)
from .schema import Attribute, AttributeSchema
from .subscription import Event, Subscription, make_event, make_subscription
from .subscription_store import ProfileCache, SubscriptionProfile, SubscriptionStore

__all__ = [
    "LOCAL_INTERFACE",
    "Broker",
    "Publisher",
    "Subscriber",
    "BrokerNetwork",
    "DeliveryLog",
    "DeliveryRecord",
    "PartitionAudit",
    "chain_topology",
    "star_topology",
    "tree_topology",
    "COVERING_KINDS",
    "MatchIndex",
    "MatchIndexStats",
    "ShardedMatchIndex",
    "ApproximateCoveringStrategy",
    "CoveringStrategy",
    "ExactCoveringStrategy",
    "InterfaceTable",
    "NoCoveringStrategy",
    "RoutingTable",
    "make_covering_strategy",
    "Attribute",
    "AttributeSchema",
    "BrokerStats",
    "TransportStats",
    "Event",
    "Subscription",
    "make_event",
    "make_subscription",
    "ProfileCache",
    "SubscriptionProfile",
    "SubscriptionStore",
]
