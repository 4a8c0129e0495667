"""Synthetic subscription and event workload generators.

The paper's quantitative claims are about the geometry of the query regions
(dimensionality, side lengths, aspect ratio) and about how densely covering
relationships occur among the subscriptions a router sees.  The generators
here control exactly those knobs:

* :class:`SubscriptionWorkload` — draws subscriptions as random range
  conjunctions with uniform centres; the widths can be drawn to produce low
  or high aspect ratios.
* :func:`covering_chain` — a workload with guaranteed nested subscriptions so
  that recall experiments have a known ground truth regardless of randomness.
* :class:`EventWorkload` — draws events uniformly over the grid so that
  delivery audits exercise matching paths.
* :func:`mixed_width_workload` — narrow subscriptions with a share of wide
  ones, shuffled; :func:`spec_subscription` places a spec on a schema such as
  :func:`xy_schema`.

All generators take an explicit ``seed`` and are deterministic given it; the
benchmark harness records the seed with every result row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..geometry.transform import Range
from ..pubsub.schema import Attribute, AttributeSchema
from ..pubsub.subscription import Subscription

__all__ = [
    "SubscriptionSpec",
    "SubscriptionWorkload",
    "EventWorkload",
    "covering_chain",
    "random_extremal_lengths",
    "mixed_width_workload",
    "xy_schema",
    "spec_subscription",
]


@dataclass(frozen=True)
class SubscriptionSpec:
    """One generated subscription: integer ranges on the quantised grid."""

    sub_id: str
    ranges: Tuple[Range, ...]


@dataclass
class SubscriptionWorkload:
    """Random range-subscription generator on the quantised grid.

    Parameters
    ----------
    attributes:
        Number of attributes β per subscription.
    attribute_order:
        Bits per attribute (values in ``[0, 2^k − 1]``).
    width_fraction:
        Mean subscription width as a fraction of the attribute domain.
    width_jitter:
        Multiplicative jitter applied to each width (0 = all widths equal).
    aspect_skew:
        When > 0, one attribute per subscription gets a width scaled down by
        ``2^aspect_skew``, producing query rectangles with that aspect ratio.
    """

    attributes: int
    attribute_order: int
    width_fraction: float = 0.1
    width_jitter: float = 0.5
    aspect_skew: int = 0
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.attributes <= 0:
            raise ValueError(f"attributes must be positive, got {self.attributes}")
        if self.attribute_order <= 0:
            raise ValueError(f"attribute_order must be positive, got {self.attribute_order}")
        if not 0 < self.width_fraction <= 1:
            raise ValueError(f"width_fraction must lie in (0, 1], got {self.width_fraction}")
        self._rng = random.Random(self.seed)
        # The generator once drew eight cluster centres here for a clustered
        # distribution; the draws stay so that every seeded workload (and
        # every table and digest built from one) draws exactly as before.
        for _ in range(8 * self.attributes):
            self._rng.randint(0, self.max_cell)

    @property
    def max_cell(self) -> int:
        return (1 << self.attribute_order) - 1

    # -------------------------------------------------------------- generation
    def _centre(self) -> Tuple[int, ...]:
        return tuple(self._rng.randint(0, self.max_cell) for _ in range(self.attributes))

    def _width(self, attribute_index: int, shrink_attribute: int) -> int:
        max_cells = self.max_cell + 1
        base = self.width_fraction * max_cells
        jitter = 1.0 + self.width_jitter * (self._rng.random() * 2.0 - 1.0)
        width = max(1, int(base * jitter))
        if self.aspect_skew > 0 and attribute_index == shrink_attribute:
            width = max(1, width >> self.aspect_skew)
        return min(width, max_cells)

    def generate_one(self, sub_id: str) -> SubscriptionSpec:
        """Generate a single subscription."""
        centre = self._centre()
        shrink_attribute = self._rng.randrange(self.attributes) if self.aspect_skew > 0 else -1
        ranges: List[Range] = []
        for i, c in enumerate(centre):
            width = self._width(i, shrink_attribute)
            lo = max(0, c - width // 2)
            hi = min(self.max_cell, lo + width - 1)
            lo = max(0, hi - width + 1)
            ranges.append((lo, hi))
        return SubscriptionSpec(sub_id=sub_id, ranges=tuple(ranges))

    def generate(self, count: int, prefix: str = "sub") -> List[SubscriptionSpec]:
        """Generate ``count`` subscriptions with ids ``{prefix}-0 .. {prefix}-{count-1}``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.generate_one(f"{prefix}-{i}") for i in range(count)]


@dataclass
class EventWorkload:
    """Random event generator on the quantised grid (points, one cell per attribute)."""

    attributes: int
    attribute_order: int
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    @property
    def max_cell(self) -> int:
        return (1 << self.attribute_order) - 1

    def generate_one(self) -> Tuple[int, ...]:
        """Generate one event as a tuple of attribute cells."""
        return tuple(self._rng.randint(0, self.max_cell) for _ in range(self.attributes))

    def generate(self, count: int) -> List[Tuple[int, ...]]:
        """Generate ``count`` events."""
        return [self.generate_one() for _ in range(count)]


def covering_chain(
    attributes: int,
    attribute_order: int,
    depth: int,
    seed: Optional[int] = None,
) -> List[SubscriptionSpec]:
    """Generate a chain ``s_0 ⊇ s_1 ⊇ ... ⊇ s_{depth−1}`` of nested subscriptions.

    Each subscription is obtained from its predecessor by shrinking every
    range to 80 % of its width at a seeded offset; the chain gives recall experiments
    a workload where every non-root subscription is covered by construction.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    rng = random.Random(seed)
    max_cell = (1 << attribute_order) - 1
    ranges: List[Range] = []
    for _ in range(attributes):
        lo = rng.randint(0, max_cell // 4)
        hi = rng.randint(3 * max_cell // 4, max_cell)
        ranges.append((lo, hi))
    chain: List[SubscriptionSpec] = []
    current = list(ranges)
    for level in range(depth):
        chain.append(SubscriptionSpec(sub_id=f"chain-{level}", ranges=tuple(current)))
        nxt: List[Range] = []
        for lo, hi in current:
            width = hi - lo + 1
            new_width = max(1, int(width * 0.8))
            slack = width - new_width
            offset = rng.randint(0, slack) if slack > 0 else 0
            nxt.append((lo + offset, lo + offset + new_width - 1))
        current = nxt
    return chain


def random_extremal_lengths(
    dims: int,
    order: int,
    alpha: int = 0,
    seed: Optional[int] = None,
) -> Tuple[int, ...]:
    """Draw a random extremal-rectangle side-length vector with aspect ratio ≈ ``alpha``.

    All sides share the bit length ``b`` drawn uniformly from
    ``[1 + alpha, order]``, except one side whose bit length is
    ``b − alpha`` — giving the requested aspect ratio exactly.
    """
    if dims <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if 1 + alpha > order:
        raise ValueError(f"cannot build aspect ratio {alpha} in a 2^{order} universe")
    rng = random.Random(seed)
    long_bits = rng.randint(1 + alpha, order)
    short_bits = long_bits - alpha
    short_dim = rng.randrange(dims)
    lengths = []
    for dim in range(dims):
        bits = short_bits if dim == short_dim else long_bits
        low = 1 << (bits - 1)
        high = (1 << bits) - 1
        lengths.append(rng.randint(low, high))
    return tuple(lengths)


def mixed_width_workload(
    attributes: int,
    order: int,
    count: int,
    narrow_fraction: float,
    narrow_width: float,
    wide_width: float,
    seed: int,
    prefix: str,
) -> List[SubscriptionSpec]:
    """Generate a workload mixing narrow subscriptions with a share of wide ones.

    Real routers see both: many specific subscriptions plus a few broad
    "catch-most" ones, and the broad ones are what covering exploits.  The
    returned list is shuffled so that broad and narrow subscriptions arrive
    interleaved — arrival order matters for covering-based suppression.
    """
    narrow = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=narrow_width, seed=seed
    )
    wide = SubscriptionWorkload(
        attributes=attributes,
        attribute_order=order,
        width_fraction=wide_width,
        width_jitter=0.3,
        seed=seed + 1,
    )
    num_narrow = int(count * narrow_fraction)
    specs = narrow.generate(num_narrow, prefix=f"{prefix}-narrow")
    specs += wide.generate(count - num_narrow, prefix=f"{prefix}-wide")
    random.Random(seed + 2).shuffle(specs)
    return specs


def xy_schema(order: int) -> AttributeSchema:
    """Two attributes, ``x`` and ``y``, on ``[0, 1000]`` at ``order`` bits each."""
    return AttributeSchema([Attribute("x", 0.0, 1000.0), Attribute("y", 0.0, 1000.0)], order=order)


def spec_subscription(schema: AttributeSchema, spec: SubscriptionSpec) -> Subscription:
    """Materialise one workload spec as a Subscription on ``schema``."""
    constraints = {
        name: (schema.dequantize_value(name, lo), schema.dequantize_value(name, hi))
        for name, (lo, hi) in zip(schema.names, spec.ranges)
    }
    return Subscription(schema, constraints, sub_id=spec.sub_id)
