"""Per-link latency models for the simulated broker transport.

A latency model answers one question: how long does a message take to travel
the overlay link from ``sender`` to ``receiver``?  Three models are provided:

* :class:`FixedLatency` — every link takes the same constant time (the
  classic "unit delay" overlay model; useful for hop-count reasoning).
* :class:`UniformJitterLatency` — a base delay plus uniform jitter drawn from
  the transport's seeded RNG (models scheduling/queueing noise).
* :class:`DistanceLatency` — delay proportional to the Euclidean distance
  between broker coordinates (models geographically spread deployments; the
  helper :func:`random_positions` scatters brokers deterministically).
* :class:`RegionLatency` — two-tier WAN-vs-LAN delays driven by a broker →
  region map: links inside one region pay the LAN delay, links crossing
  regions pay the WAN delay.  This is the model the internet-scale
  cluster-of-clusters topologies (:mod:`repro.workloads.topologies`) wire up
  from their region metadata.

All randomness flows through the ``rng`` passed to :meth:`sample`, so a seeded
transport produces identical delays run over run.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, Mapping, Optional, Protocol, Sequence, Tuple

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformJitterLatency",
    "DistanceLatency",
    "RegionLatency",
    "random_positions",
]


class LatencyModel(Protocol):
    """Minimal contract: per-message link delay."""

    def sample(self, sender: Hashable, receiver: Hashable, rng: random.Random) -> float:
        """Return the delay for one message on the ``sender -> receiver`` link."""


class FixedLatency:
    """Constant delay on every link."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, sender: Hashable, receiver: Hashable, rng: random.Random) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLatency({self.delay})"


class UniformJitterLatency:
    """Base delay plus uniform jitter in ``[0, jitter]``."""

    def __init__(self, base: float = 1.0, jitter: float = 1.0) -> None:
        if base < 0 or jitter < 0:
            raise ValueError(f"base and jitter must be non-negative, got {base}, {jitter}")
        self.base = base
        self.jitter = jitter

    def sample(self, sender: Hashable, receiver: Hashable, rng: random.Random) -> float:
        return self.base + rng.uniform(0.0, self.jitter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformJitterLatency(base={self.base}, jitter={self.jitter})"


class DistanceLatency:
    """Delay proportional to the distance between broker positions.

    ``positions`` maps each broker id to a coordinate tuple; a link's delay is
    ``base + scale * euclidean(sender, receiver)``.  Brokers missing from the
    map fall back to ``base`` alone (treated as co-located).
    """

    #: The delay of a link between co-located brokers.
    base = 0.1

    def __init__(self, positions: Mapping[Hashable, Sequence[float]], scale: float = 1.0) -> None:
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.positions: Dict[Hashable, Tuple[float, ...]] = {
            broker: tuple(float(c) for c in coords) for broker, coords in positions.items()
        }
        self.scale = scale

    def sample(self, sender: Hashable, receiver: Hashable, rng: random.Random) -> float:
        a = self.positions.get(sender)
        b = self.positions.get(receiver)
        if a is None or b is None:
            return self.base
        distance = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        return self.base + self.scale * distance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistanceLatency({len(self.positions)} positions, "
            f"base={self.base}, scale={self.scale})"
        )


class RegionLatency:
    """Two-tier WAN-vs-LAN link delays driven by region membership.

    ``regions`` maps each broker id to a region label.  A link whose endpoints
    share a region costs ``lan`` simulated seconds; a link crossing regions
    costs ``wan``.  Brokers missing from the map are treated as their own
    singleton region — every link touching them is a WAN link.
    """

    def __init__(
        self,
        regions: Mapping[Hashable, Hashable],
        lan: float = 0.05,
        wan: float = 0.5,
    ) -> None:
        if lan < 0 or wan < 0:
            raise ValueError(f"lan and wan must be non-negative, got {lan}, {wan}")
        self.regions: Dict[Hashable, Hashable] = dict(regions)
        self.lan = lan
        self.wan = wan

    def sample(self, sender: Hashable, receiver: Hashable, rng: random.Random) -> float:
        regions = self.regions
        try:
            same = regions[sender] == regions[receiver]
        except KeyError:
            # An unmapped broker is its own region: no default tuples are
            # built for the (usual) mapped pair.
            same = regions.get(sender, ("solo", sender)) == regions.get(
                receiver, ("solo", receiver)
            )
        return self.lan if same else self.wan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegionLatency({len(self.regions)} brokers, lan={self.lan}, wan={self.wan})"
        )


def random_positions(
    broker_ids: Sequence[Hashable], seed: Optional[int] = 0
) -> Dict[Hashable, Tuple[float, float]]:
    """Scatter brokers uniformly over a 10 × 10 square (seeded)."""
    rng = random.Random(seed)
    return {broker: (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for broker in broker_ids}
