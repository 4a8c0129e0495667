"""Subscriptions and events for the content-based publish/subscribe substrate.

A :class:`Subscription` is a conjunction of per-attribute range constraints
over an :class:`AttributeSchema` (the paper's subscription model); an
:class:`Event` assigns one value to every attribute.  Both carry their
quantised form so that matching, covering and indexing all operate on the same
integer grid the SFC index uses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Tuple

from ..geometry.transform import ranges_cover
from ..geometry.universe import PackedBox, Universe, pack_box, pack_point
from ..sfc.zorder import ZOrderCurve
from .schema import AttributeSchema

__all__ = ["Subscription", "Event"]

_subscription_counter = itertools.count()
_event_counter = itertools.count()


@functools.lru_cache(maxsize=None)
def _z_curve(dims: int, order: int) -> ZOrderCurve:
    """The Z curve of one ``(dims, order)`` grid, shared by every event on it.

    Keying through :meth:`ZOrderCurve.key` rather than ``interleave_bits``
    keeps every event keying inside the e2e trace's ``sfc.key`` span.
    """
    return ZOrderCurve(Universe(dims=dims, order=order))


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
    point:
        ``cells`` packed into one integer
        (:func:`~repro.geometry.universe.pack_point`), the operand of the
        match tables' rectangle test (derived; not compared, not shown, not
        encoded: a decoded event derives it again).
    key:
        The Z-order key of ``cells`` (derived on first read, then kept).

    :attr:`key` is read only by an indexed table's probe, so an event that
    meets only scanning tables is never keyed, and the brokers an in-process
    transport hands the same object to key it once between them.  It is a
    cache, not state: it is not a field, so ``==``, ``hash`` and ``repr``
    ignore it, pickling and copying drop it, and the wire codec never sees
    it (a decoded event keys itself again).
    """

    schema: AttributeSchema
    values: Mapping[str, float]
    event_id: Hashable = field(default_factory=lambda: f"event-{next(_event_counter)}")
    cells: Tuple[int, ...] = field(init=False)
    point: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        cells = self.schema.quantize_event(self.values)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "point", pack_point(cells, self.schema.order))

    def value(self, name: str) -> float:
        """Return the event's value for attribute ``name``."""
        return self.values[name]

    @functools.cached_property
    def key(self) -> int:
        """The Z-order key of :attr:`cells` on the schema's grid."""
        schema = self.schema
        return _z_curve(schema.num_attributes, schema.order).key(self.cells)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("key", None)
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
    box:
        ``ranges`` packed (:func:`~repro.geometry.universe.pack_box`), the
        operand of the match tables' rectangle test and of the covering scan
        (derived; not compared, not shown, not encoded).
    """

    schema: AttributeSchema
    constraints: Mapping[str, Tuple[float, float]]
    sub_id: Hashable = field(default_factory=lambda: f"sub-{next(_subscription_counter)}")
    ranges: Tuple[Tuple[int, int], ...] = field(init=False)
    box: PackedBox = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", dict(self.constraints))
        ranges = self.schema.quantize_constraints(self.constraints)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "box", pack_box(ranges, self.schema.order))

    # --------------------------------------------------------------- matching
    def matches(self, event: Event) -> bool:
        """Return True when the event satisfies every constraint (on the quantised grid)."""
        if not self.schema.compatible_with(event.schema):
            raise ValueError("event and subscription use different schemas")
        # An early-exit loop, not all() over a generator: this is the linear
        # matcher's and the delivery audit's per-subscription test.  It stays
        # per attribute, independent of the packed test the match tables
        # make, so the audit checks that test rather than repeating it.
        for (lo, hi), cell in zip(self.ranges, event.cells):
            if not lo <= cell <= hi:
                return False
        return True

    def covers(self, other: "Subscription") -> bool:
        """Ground-truth covering test: does this subscription match every event ``other`` matches?

        Computed on the quantised grid (the same representation the index
        sees), by per-attribute range containment.
        """
        if not self.schema.compatible_with(other.schema):
            raise ValueError("subscriptions use different schemas")
        return ranges_cover(self.ranges, other.ranges)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}∈[{lo},{hi}]" for k, (lo, hi) in self.constraints.items())
        return f"Subscription({self.sub_id}: {body or 'match-all'})"

