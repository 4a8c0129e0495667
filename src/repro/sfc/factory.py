"""Curve registry: build any supported space filling curve by name.

The routing stack keys on the Z curve alone; the registry serves what still
compares curves (Fig. 1, E-CURVE's run counts, the curve tests).  Each curve
class carries its registry key back as its ``kind`` attribute, so tables and
error messages speak the same vocabulary as the names here.
"""

from __future__ import annotations

from typing import Dict, Type

from ..geometry.universe import Universe
from .base import SpaceFillingCurve
from .gray import GrayCodeCurve
from .hilbert import HilbertCurve
from .zorder import ZOrderCurve

__all__ = ["CURVE_KINDS", "make_curve"]

#: Canonical curve kinds :func:`make_curve` accepts.
CURVE_KINDS = ("zorder", "hilbert", "gray")

_REGISTRY: Dict[str, Type[SpaceFillingCurve]] = {
    "zorder": ZOrderCurve,
    "hilbert": HilbertCurve,
    "gray": GrayCodeCurve,
}

assert all(cls.kind == kind for kind, cls in _REGISTRY.items()), (
    "curve registry keys must match the classes' kind attributes"
)


def make_curve(kind: str, universe: Universe) -> SpaceFillingCurve:
    """Build the curve named ``kind`` over ``universe``.

    >>> make_curve("hilbert", Universe(dims=2, order=4)).name
    'hilbert'
    """
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}"
        ) from None
    return cls(universe)
