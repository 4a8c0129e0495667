"""Discrete-event simulation substrate: kernel, latency models and transports.

This package is the asynchronous seam under the broker overlay: the
:class:`~repro.pubsub.network.BrokerNetwork` routes every inter-broker message
through a :class:`Transport`.  :class:`SyncTransport` preserves the historical
synchronous inline delivery; :class:`SimTransport` runs messages through a
deterministic :class:`EventKernel` with per-link latency, bounded per-broker
inboxes (backpressure, not loss) and broker churn (crash / recover / join).
A transport's latency model is one of the four classes, built directly.
"""

from .kernel import EventKernel
from .latency import (
    DistanceLatency,
    FixedLatency,
    LatencyModel,
    RegionLatency,
    UniformJitterLatency,
    random_positions,
)
from .transport import (
    MESSAGE_KINDS,
    Message,
    SimTransport,
    SyncTransport,
    Transport,
    TransportStats,
    percentile,
)

__all__ = [
    "EventKernel",
    "LatencyModel",
    "FixedLatency",
    "UniformJitterLatency",
    "DistanceLatency",
    "RegionLatency",
    "random_positions",
    "MESSAGE_KINDS",
    "Message",
    "Transport",
    "SyncTransport",
    "SimTransport",
    "TransportStats",
    "percentile",
]
