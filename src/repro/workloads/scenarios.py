"""Application-flavoured workload scenarios built on the generic generators.

The paper's introduction motivates content-based publish/subscribe with a
stock-quote example (``[stock = IBM, volume > 500, current < 95]``); the
evaluation-style experiments of the reproduction need realistic-looking
multi-attribute schemas.  This module packages three such scenarios:

* :func:`stock_market_scenario` — price / volume / change subscriptions where
  traders watch overlapping price bands (dense covering relationships).
* :func:`sensor_network_scenario` — temperature / humidity / battery alerts
  from a monitoring deployment (moderate covering; skewed interest in alarms).
* :func:`auction_scenario` — bid / quantity filters with highly skewed
  interest in low prices (Zipf-distributed centres, high aspect ratios).

Each scenario returns the schema, a list of application-level subscription
constraint dictionaries and a list of event value dictionaries, so examples
and benchmarks can feed them straight into :class:`repro.pubsub.BrokerNetwork`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..pubsub.schema import Attribute, AttributeSchema

__all__ = [
    "Scenario",
    "stock_market_scenario",
    "sensor_network_scenario",
    "auction_scenario",
]


@dataclass
class Scenario:
    """A ready-to-run pub/sub workload."""

    name: str
    schema: AttributeSchema
    subscriptions: List[Dict[str, Tuple[float, float]]]
    events: List[Dict[str, float]]


def stock_market_scenario(
    num_subscriptions: int = 200,
    num_events: int = 100,
    order: int = 10,
    seed: Optional[int] = 7,
) -> Scenario:
    """Traders watching price bands, volume floors and daily-change windows.

    Subscriptions are drawn around a handful of "popular" price bands so that
    broader watchers frequently cover narrower ones — the regime in which
    covering saves the most routing state.
    """
    rng = random.Random(seed)
    schema = AttributeSchema(
        [
            Attribute("price", 0.0, 500.0),
            Attribute("volume", 0.0, 1_000_000.0),
            Attribute("change_pct", -20.0, 20.0),
        ],
        order=order,
    )
    bands = [(20, 60), (60, 120), (120, 200), (200, 350), (350, 500)]
    subscriptions: List[Dict[str, Tuple[float, float]]] = []
    for _ in range(num_subscriptions):
        band_lo, band_hi = rng.choice(bands)
        width = rng.uniform(0.2, 1.0) * (band_hi - band_lo)
        lo = rng.uniform(band_lo, band_hi - width)
        constraints: Dict[str, Tuple[float, float]] = {"price": (lo, lo + width)}
        if rng.random() < 0.7:
            constraints["volume"] = (rng.choice([100, 500, 1_000, 10_000]), 1_000_000.0)
        if rng.random() < 0.4:
            swing = rng.choice([1.0, 2.0, 5.0, 10.0])
            constraints["change_pct"] = (-swing, swing)
        subscriptions.append(constraints)
    events: List[Dict[str, float]] = []
    for _ in range(num_events):
        events.append(
            {
                "price": rng.uniform(0.0, 500.0),
                "volume": rng.uniform(0.0, 1_000_000.0) ** 1.0,
                "change_pct": rng.gauss(0.0, 3.0),
            }
        )
    return Scenario("stock-market", schema, subscriptions, events)


def sensor_network_scenario(
    num_subscriptions: int = 200,
    num_events: int = 100,
    order: int = 10,
    seed: Optional[int] = 11,
) -> Scenario:
    """Environmental monitoring: alerts on temperature, humidity and battery level."""
    rng = random.Random(seed)
    schema = AttributeSchema(
        [
            Attribute("temperature", -40.0, 60.0),
            Attribute("humidity", 0.0, 100.0),
            Attribute("battery", 0.0, 100.0),
        ],
        order=order,
    )
    subscriptions: List[Dict[str, Tuple[float, float]]] = []
    for _ in range(num_subscriptions):
        kind = rng.random()
        constraints: Dict[str, Tuple[float, float]] = {}
        if kind < 0.45:  # heat alarms of varying strictness
            threshold = rng.choice([25.0, 30.0, 35.0, 40.0, 45.0])
            constraints["temperature"] = (threshold, 60.0)
        elif kind < 0.75:  # comfort bands
            centre = rng.uniform(15.0, 28.0)
            half = rng.uniform(1.0, 8.0)
            constraints["temperature"] = (centre - half, centre + half)
            constraints["humidity"] = (rng.uniform(20.0, 40.0), rng.uniform(55.0, 90.0))
        else:  # low-battery watches
            constraints["battery"] = (0.0, rng.choice([5.0, 10.0, 20.0, 30.0]))
        subscriptions.append(constraints)
    events: List[Dict[str, float]] = []
    for _ in range(num_events):
        events.append(
            {
                "temperature": rng.gauss(22.0, 10.0),
                "humidity": min(100.0, max(0.0, rng.gauss(55.0, 20.0))),
                "battery": rng.uniform(0.0, 100.0),
            }
        )
    return Scenario("sensor-network", schema, subscriptions, events)


def auction_scenario(
    num_subscriptions: int = 200,
    num_events: int = 100,
    order: int = 10,
    seed: Optional[int] = 13,
) -> Scenario:
    """Auction / marketplace filters: price ceilings with quantity floors.

    Interest is heavily skewed towards cheap items, producing Zipf-like
    centre distributions and subscriptions with very different widths on the
    two attributes (high aspect ratio in the transformed space).
    """
    rng = random.Random(seed)
    schema = AttributeSchema(
        [
            Attribute("price", 0.0, 1000.0),
            Attribute("quantity", 0.0, 10_000.0),
        ],
        order=order,
    )
    subscriptions: List[Dict[str, Tuple[float, float]]] = []
    for _ in range(num_subscriptions):
        ceiling = 1000.0 * (rng.paretovariate(2.0) - 1.0) / 10.0
        ceiling = min(1000.0, max(5.0, ceiling * 100.0))
        constraints: Dict[str, Tuple[float, float]] = {"price": (0.0, ceiling)}
        if rng.random() < 0.6:
            constraints["quantity"] = (rng.choice([1.0, 10.0, 100.0]), 10_000.0)
        subscriptions.append(constraints)
    events: List[Dict[str, float]] = []
    for _ in range(num_events):
        events.append(
            {
                "price": min(1000.0, rng.expovariate(1 / 150.0)),
                "quantity": min(10_000.0, rng.expovariate(1 / 500.0)),
            }
        )
    return Scenario("auction", schema, subscriptions, events)
