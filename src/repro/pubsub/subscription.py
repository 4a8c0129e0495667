"""Subscriptions and events for the content-based publish/subscribe substrate.

A :class:`Subscription` is a conjunction of per-attribute range constraints
over an :class:`AttributeSchema` (the paper's subscription model); an
:class:`Event` assigns one value to every attribute.  Both carry their
quantised form so that matching, covering and indexing all operate on the same
integer grid the SFC index uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..geometry.transform import ranges_cover
from .schema import AttributeSchema

__all__ = ["Subscription", "Event"]

_subscription_counter = itertools.count()
_event_counter = itertools.count()


@dataclass(frozen=True)
class Event:
    """A published message: one value per schema attribute.

    Attributes
    ----------
    schema:
        The attribute schema the event conforms to.
    values:
        Mapping of attribute name to application-level value.
    event_id:
        Unique identifier (auto-assigned when omitted).
    cells:
        Quantised values, one cell per schema attribute (derived).

    An event also remembers its space-filling-curve key once a routing table
    has computed it (:meth:`curve_key` / :meth:`remember_curve_key`), so the
    brokers an in-process transport hands the same object to key it once
    between them.  The memo is a cache, not state: it is not a field, so
    ``==``, ``hash`` and ``repr`` ignore it, pickling and copying drop it, and
    the wire codec never sees it (a decoded event starts without one).
    """

    schema: AttributeSchema
    values: Mapping[str, float]
    event_id: Hashable = field(default_factory=lambda: f"event-{next(_event_counter)}")
    cells: Tuple[int, ...] = field(init=False)

    # ``(curve tag, key)`` of the last keying; unannotated, so not a field.
    _key_memo = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        object.__setattr__(self, "cells", self.schema.quantize_event(self.values))

    def value(self, name: str) -> float:
        """Return the event's value for attribute ``name``."""
        return self.values[name]

    def curve_key(self, tag: Hashable) -> Optional[int]:
        """The key remembered under ``tag``, or ``None``.

        ``tag`` names everything the key depends on besides the cells (curve
        kind, dimensions, order), so a table keyed by another curve can never
        read a foreign key.
        """
        memo = self._key_memo
        if memo is not None and memo[0] == tag:
            return memo[1]
        return None

    def remember_curve_key(self, tag: Hashable, key: int) -> None:
        """Remember ``key`` as this event's key under ``tag`` (replacing any other)."""
        object.__setattr__(self, "_key_memo", (tag, key))

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_key_memo", None)
        return state

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self.values.items())
        return f"Event({self.event_id}: {body})"


@dataclass(frozen=True)
class Subscription:
    """A conjunction of range constraints over the schema's attributes.

    Attributes
    ----------
    schema:
        The attribute schema the subscription refers to.
    constraints:
        Mapping of attribute name to an inclusive ``(low, high)`` range in
        application units.  Attributes not mentioned are unconstrained.
    sub_id:
        Unique identifier (auto-assigned when omitted).
    ranges:
        Quantised ranges, one per schema attribute, full-range for
        unconstrained attributes (derived).
    """

    schema: AttributeSchema
    constraints: Mapping[str, Tuple[float, float]]
    sub_id: Hashable = field(default_factory=lambda: f"sub-{next(_subscription_counter)}")
    ranges: Tuple[Tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", dict(self.constraints))
        object.__setattr__(self, "ranges", self.schema.quantize_constraints(self.constraints))

    # --------------------------------------------------------------- matching
    def matches(self, event: Event) -> bool:
        """Return True when the event satisfies every constraint (on the quantised grid)."""
        if event.schema is not self.schema and event.schema.names != self.schema.names:
            raise ValueError("event and subscription use different schemas")
        # An early-exit loop, not all() over a generator: this is the linear
        # matcher's and the delivery audit's per-subscription test.
        for (lo, hi), cell in zip(self.ranges, event.cells):
            if not lo <= cell <= hi:
                return False
        return True

    def covers(self, other: "Subscription") -> bool:
        """Ground-truth covering test: does this subscription match every event ``other`` matches?

        Computed on the quantised grid (the same representation the index
        sees), by per-attribute range containment.
        """
        if other.schema is not self.schema and other.schema.names != self.schema.names:
            raise ValueError("subscriptions use different schemas")
        return ranges_cover(self.ranges, other.ranges)

    @property
    def selectivity(self) -> float:
        """Fraction of the quantised attribute space this subscription matches."""
        total = 1.0
        cells_per_attr = self.schema.max_cell + 1
        for lo, hi in self.ranges:
            total *= (hi - lo + 1) / cells_per_attr
        return total

    def widened(self, factor: float) -> "Subscription":
        """Return a copy whose every constrained range is widened by ``factor`` (≥ 1).

        Useful for generating workloads with controlled covering density: a
        widened copy of a subscription always covers the original.
        """
        if factor < 1.0:
            raise ValueError(f"widening factor must be at least 1, got {factor}")
        new_constraints = {}
        for name, (low, high) in self.constraints.items():
            attr = self.schema.attribute(name)
            centre = (low + high) / 2.0
            half = (high - low) / 2.0 * factor
            new_constraints[name] = (
                max(attr.low, centre - half),
                min(attr.high, centre + half),
            )
        return Subscription(self.schema, new_constraints)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}∈[{lo},{hi}]" for k, (lo, hi) in self.constraints.items())
        return f"Subscription({self.sub_id}: {body or 'match-all'})"


def make_event(schema: AttributeSchema, event_id: Optional[Hashable] = None, **values: float) -> Event:
    """Convenience constructor: ``make_event(schema, stock=88.0, volume=1000)``."""
    if event_id is None:
        return Event(schema, values)
    return Event(schema, values, event_id=event_id)


def make_subscription(
    schema: AttributeSchema, sub_id: Optional[Hashable] = None, **constraints: Tuple[float, float]
) -> Subscription:
    """Convenience constructor: ``make_subscription(schema, price=(0, 95), volume=(500, 1e6))``."""
    if sub_id is None:
        return Subscription(schema, constraints)
    return Subscription(schema, constraints, sub_id=sub_id)
