"""One frozen configuration object for the match indexes of the stack.

A broker's interface tables key their subscriptions on the Z curve and
decompose them on a precision grid; that grid is the one knob
:class:`IndexConfig` carries.  The paper's covering parameters (ε and the
cube budget) belong to a covering query, and are parameters of
:class:`~repro.core.covering.ApproximateCoveringDetector`; the run budget is
the class constant :attr:`~repro.pubsub.match_index.MatchIndex.RUN_BUDGET`.

``config=IndexConfig(...)`` is the only channel through which a knob reaches
a constructor of the routing stack; :class:`IndexConfig` is one validated,
hashable value any layer can describe, compare or cache-key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "PRECISION_BIT_BUDGET",
    "IndexConfig",
]

#: Finest per-dimension snap grid a derived precision may reach.
DEFAULT_PRECISION_BITS = 6

#: Total precision bits shared across dimensions: a match index over ``d``
#: dimensions grows its grid up to ``min(DEFAULT_PRECISION_BITS,
#: PRECISION_BIT_BUDGET // d)`` bits per dimension.
PRECISION_BIT_BUDGET = 2 * DEFAULT_PRECISION_BITS


@dataclass(frozen=True)
class IndexConfig:
    """Validated, immutable description of one match-index configuration.

    ``precision_bits=None`` means "derive from the budget":
    :meth:`effective_precision_bits` resolves it per universe to the finest
    grid a match index may grow to.  Being frozen and hashable, an
    ``IndexConfig`` can serve as a dictionary key directly.
    """

    precision_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.precision_bits is not None and self.precision_bits < 1:
            raise ValueError(
                f"precision_bits must be >= 1 (or None to derive from the "
                f"budget), got {self.precision_bits}"
            )

    # ------------------------------------------------------------- derived
    def effective_precision_bits(self, dims: int) -> int:
        """Precision bits per dimension for a ``dims``-dimensional universe.

        Explicit ``precision_bits`` wins, and pins a match index's grid.
        Otherwise this is the ceiling of a grid that grows with the index's
        table (:class:`~repro.pubsub.match_index.MatchIndex` starts at one bit
        per dimension and steps up as subscriptions arrive): the shared
        :data:`PRECISION_BIT_BUDGET` divided across dimensions.  When that
        division yields zero bits (a high-dimensional universe), deriving a
        precision silently would snap every subscription to the whole
        universe, so this raises instead of clamping.
        """
        if self.precision_bits is not None:
            return self.precision_bits
        derived = PRECISION_BIT_BUDGET // dims
        if derived < 1:
            raise ValueError(
                f"precision bit budget {PRECISION_BIT_BUDGET} yields 0 "
                f"bits per dimension over a {dims}-dimensional universe; pass "
                f"an explicit precision_bits >= 1"
            )
        return min(DEFAULT_PRECISION_BITS, derived)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"IndexConfig({fields})"
