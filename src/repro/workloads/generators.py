"""Synthetic subscription and event workload generators.

The paper's quantitative claims are about the geometry of the query regions
(dimensionality, side lengths, aspect ratio) and about how densely covering
relationships occur among the subscriptions a router sees.  The generators
here control exactly those knobs:

* :class:`SubscriptionWorkload` — draws subscriptions as random range
  conjunctions; the centre distribution can be uniform, Zipf-skewed (hot
  attribute values), or clustered around a set of hotspots, and the widths can
  be drawn to produce low or high aspect ratios.
* :func:`covering_chain` — a workload with guaranteed nested subscriptions so
  that recall experiments have a known ground truth regardless of randomness.
* :class:`EventWorkload` — draws events uniformly or near the subscription
  hotspots so that delivery audits exercise matching paths.

All generators take an explicit ``seed`` and are deterministic given it; the
benchmark harness records the seed with every result row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..geometry.transform import Range

__all__ = [
    "SubscriptionSpec",
    "SubscriptionWorkload",
    "EventWorkload",
    "covering_chain",
    "random_extremal_lengths",
]


@dataclass(frozen=True)
class SubscriptionSpec:
    """One generated subscription: integer ranges on the quantised grid."""

    sub_id: str
    ranges: Tuple[Range, ...]


def _zipf_index(rng: random.Random, n: int, skew: float) -> int:
    """Draw an index in ``[0, n)`` from a Zipf-like distribution with exponent ``skew``."""
    if skew <= 0:
        return rng.randrange(n)
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    total = sum(weights)
    threshold = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if acc >= threshold:
            return i
    return n - 1


@dataclass
class SubscriptionWorkload:
    """Random range-subscription generator on the quantised grid.

    Parameters
    ----------
    attributes:
        Number of attributes β per subscription.
    attribute_order:
        Bits per attribute (values in ``[0, 2^k − 1]``).
    distribution:
        ``"uniform"`` — centres uniform over the grid;
        ``"zipf"`` — centres concentrated on low cell indices (hot values);
        ``"clustered"`` — centres drawn around ``num_clusters`` hotspots.
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
    distribution: str = "uniform"
    width_fraction: float = 0.1
    width_jitter: float = 0.5
    aspect_skew: int = 0
    zipf_exponent: float = 1.1
    num_clusters: int = 8
    cluster_spread: float = 0.05
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.attributes <= 0:
            raise ValueError(f"attributes must be positive, got {self.attributes}")
        if self.attribute_order <= 0:
            raise ValueError(f"attribute_order must be positive, got {self.attribute_order}")
        if not 0 < self.width_fraction <= 1:
            raise ValueError(f"width_fraction must lie in (0, 1], got {self.width_fraction}")
        if self.distribution not in ("uniform", "zipf", "clustered"):
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                "expected 'uniform', 'zipf' or 'clustered'"
            )
        self._rng = random.Random(self.seed)
        max_cell = self.max_cell
        self._cluster_centres = [
            tuple(self._rng.randint(0, max_cell) for _ in range(self.attributes))
            for _ in range(self.num_clusters)
        ]

    @property
    def max_cell(self) -> int:
        return (1 << self.attribute_order) - 1

    # -------------------------------------------------------------- generation
    def _centre(self) -> Tuple[int, ...]:
        max_cell = self.max_cell
        if self.distribution == "uniform":
            return tuple(self._rng.randint(0, max_cell) for _ in range(self.attributes))
        if self.distribution == "zipf":
            buckets = 64
            return tuple(
                min(
                    max_cell,
                    _zipf_index(self._rng, buckets, self.zipf_exponent)
                    * (max_cell + 1)
                    // buckets
                    + self._rng.randint(0, (max_cell + 1) // buckets),
                )
                for _ in range(self.attributes)
            )
        centre = self._rng.choice(self._cluster_centres)
        spread = max(1, int(self.cluster_spread * (max_cell + 1)))
        return tuple(
            min(max_cell, max(0, c + self._rng.randint(-spread, spread))) for c in centre
        )

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
    distribution: str = "uniform"
    zipf_exponent: float = 1.1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(
                f"unknown distribution {self.distribution!r}; expected 'uniform' or 'zipf'"
            )
        self._rng = random.Random(self.seed)

    @property
    def max_cell(self) -> int:
        return (1 << self.attribute_order) - 1

    def generate_one(self) -> Tuple[int, ...]:
        """Generate one event as a tuple of attribute cells."""
        if self.distribution == "uniform":
            return tuple(self._rng.randint(0, self.max_cell) for _ in range(self.attributes))
        buckets = 64
        return tuple(
            min(
                self.max_cell,
                _zipf_index(self._rng, buckets, self.zipf_exponent)
                * (self.max_cell + 1)
                // buckets
                + self._rng.randint(0, (self.max_cell + 1) // buckets),
            )
            for _ in range(self.attributes)
        )

    def generate(self, count: int) -> List[Tuple[int, ...]]:
        """Generate ``count`` events."""
        return [self.generate_one() for _ in range(count)]


def covering_chain(
    attributes: int,
    attribute_order: int,
    depth: int,
    shrink: float = 0.8,
    seed: Optional[int] = None,
) -> List[SubscriptionSpec]:
    """Generate a chain ``s_0 ⊇ s_1 ⊇ ... ⊇ s_{depth−1}`` of nested subscriptions.

    Each subscription is obtained from its predecessor by shrinking every
    range towards its centre by ``shrink``; the chain gives recall experiments
    a workload where every non-root subscription is covered by construction.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if not 0 < shrink < 1:
        raise ValueError(f"shrink must lie strictly between 0 and 1, got {shrink}")
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
            new_width = max(1, int(width * shrink))
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
