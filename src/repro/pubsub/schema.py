"""Attribute schemas: mapping application-level attribute values onto the SFC grid.

The covering index works on a discrete universe where every attribute value is
an integer in ``[0, 2^k − 1]``.  Real publish/subscribe applications speak in
domain units — a stock price in dollars, a trade volume in shares, a sensor
reading in degrees.  :class:`AttributeSchema` owns that mapping:

* each :class:`Attribute` declares a ``(low, high)`` domain of floats (or
  ints) that is quantised uniformly onto the ``2^k`` grid;
* quantisation of a *value* rounds to the nearest cell;
* quantisation of a *range constraint* is conservative — the low endpoint is
  rounded down and the high endpoint up — so a quantised subscription never
  matches fewer messages than the original.  Covering detected on quantised
  subscriptions therefore may be slightly pessimistic but never unsound for
  event delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

__all__ = ["Attribute", "AttributeSchema"]


@dataclass(frozen=True)
class Attribute:
    """One numeric attribute of the message schema.

    Parameters
    ----------
    name:
        Attribute name as used in events and subscriptions.
    low / high:
        Inclusive domain bounds in application units.
    """

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.low >= self.high:
            raise ValueError(
                f"attribute {self.name!r}: domain low {self.low} must be below high {self.high}"
            )

    @property
    def span(self) -> float:
        return self.high - self.low


class AttributeSchema:
    """An ordered collection of attributes plus the quantisation resolution.

    Parameters
    ----------
    attributes:
        The attributes, in the order used by the covering transform.
    order:
        Bits per attribute; each attribute domain is quantised into ``2^order``
        cells.
    """

    def __init__(self, attributes: Sequence[Attribute], order: int = 10) -> None:
        if not attributes:
            raise ValueError("a schema needs at least one attribute")
        if order <= 0:
            raise ValueError(f"order must be positive, got {order}")
        names = [attr.name for attr in attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self.order = order
        self._index: Dict[str, int] = {attr.name: i for i, attr in enumerate(self.attributes)}

    # ----------------------------------------------------------------- basics
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def max_cell(self) -> int:
        """Largest quantised value (``2^order − 1``)."""
        return (1 << self.order) - 1

    def compatible_with(self, other: "AttributeSchema") -> bool:
        """True when ``other`` quantises onto this grid: the same attributes
        (names and domains) in the same order, at the same order.

        Quantised values, ranges and their packed forms from two compatible
        schemas compare field for field; from any other pair they do not.
        """
        return other is self or (
            self.attributes == other.attributes and self.order == other.order
        )

    def attribute(self, name: str) -> Attribute:
        """Return the attribute named ``name`` (raises ``KeyError`` when unknown)."""
        return self.attributes[self._index[name]]

    # ------------------------------------------------------------ quantisation
    def quantize_value(self, name: str, value: float) -> int:
        """Quantise a single attribute value to its grid cell (clamped to the domain)."""
        attr = self.attribute(name)
        clamped = min(max(value, attr.low), attr.high)
        fraction = (clamped - attr.low) / attr.span
        cell = round(fraction * self.max_cell)
        return int(min(max(cell, 0), self.max_cell))

    def dequantize_value(self, name: str, cell: int) -> float:
        """Return the domain value at the centre of grid cell ``cell``."""
        attr = self.attribute(name)
        if not 0 <= cell <= self.max_cell:
            raise ValueError(f"cell {cell} is outside [0, {self.max_cell}]")
        return attr.low + (cell / self.max_cell) * attr.span

    def quantize_event(self, values: Mapping[str, float]) -> Tuple[int, ...]:
        """Quantise a full event (one value per schema attribute) to grid cells."""
        missing = [name for name in self.names if name not in values]
        if missing:
            raise ValueError(f"event is missing attributes {missing}")
        return tuple(self.quantize_value(name, values[name]) for name in self.names)

    def quantize_range(self, name: str, low: float, high: float) -> Tuple[int, int]:
        """Conservatively quantise a range constraint: round outwards.

        The returned integer range contains every cell whose centre could be
        matched by the original constraint, so quantisation can only widen a
        subscription, never narrow it.
        """
        if low > high:
            raise ValueError(f"range low {low} exceeds high {high} for attribute {name!r}")
        attr = self.attribute(name)
        lo_clamped = min(max(low, attr.low), attr.high)
        hi_clamped = min(max(high, attr.low), attr.high)
        lo_fraction = (lo_clamped - attr.low) / attr.span
        hi_fraction = (hi_clamped - attr.low) / attr.span
        lo_cell = int(math.floor(lo_fraction * self.max_cell))
        hi_cell = int(math.ceil(hi_fraction * self.max_cell))
        lo_cell = min(max(lo_cell, 0), self.max_cell)
        hi_cell = min(max(hi_cell, 0), self.max_cell)
        return (lo_cell, hi_cell)

    def quantize_constraints(
        self, constraints: Mapping[str, Tuple[float, float]]
    ) -> Tuple[Tuple[int, int], ...]:
        """Quantise a subscription's constraints; unconstrained attributes become full-range.

        A subscription need not constrain every attribute — missing attributes
        are treated as "any value", i.e. the full quantised range, which is
        how conjunctive range subscriptions compose.
        """
        unknown = [name for name in constraints if name not in self._index]
        if unknown:
            raise ValueError(f"constraints reference unknown attributes {unknown}")
        ranges: list[Tuple[int, int]] = []
        for name in self.names:
            if name in constraints:
                low, high = constraints[name]
                ranges.append(self.quantize_range(name, low, high))
            else:
                ranges.append((0, self.max_cell))
        return tuple(ranges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttributeSchema(attributes={self.names}, order={self.order})"
