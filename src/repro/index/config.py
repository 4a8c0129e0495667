"""One frozen configuration object for the whole approximate-matching stack.

The paper's matching machinery trades false positives for probe speed through
a handful of knobs: which space-filling curve keys the space, how many
precision bits the decomposition snaps to, how many key runs a subscription
may occupy, how many ε-cubes a dominance plan may spend and the approximation
slack ε.
Historically those knobs travelled as loose keyword arguments and duplicated
module constants; :class:`IndexConfig` gathers them into one validated,
hashable value so any layer can describe, compare or cache-key a
configuration.

``config=IndexConfig(...)`` is the only channel through which a knob reaches
a constructor of the stack, and only this module defines the knob names and
defaults; importers take them from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..sfc.factory import DEFAULT_CURVE, curve_class

__all__ = [
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_RUN_BUDGET",
    "PRECISION_BIT_BUDGET",
    "IndexConfig",
]

#: Cap on key runs stored per subscription (Sec. 3.2 coarsening).
DEFAULT_RUN_BUDGET = 64

#: Finest per-dimension snap grid a derived precision may reach.
DEFAULT_PRECISION_BITS = 6

#: Total precision bits shared across dimensions: a match index over ``d``
#: dimensions grows its grid up to ``min(DEFAULT_PRECISION_BITS,
#: PRECISION_BIT_BUDGET // d)`` bits per dimension.
PRECISION_BIT_BUDGET = 2 * DEFAULT_PRECISION_BITS

#: ε-cube budget of every covering detector and profiler built without an
#: explicit one; the paper-figure drivers state their larger offline budgets.
DEFAULT_CUBE_BUDGET = 2_000

#: Approximation slack ε of the covering detector (Sec. 4).
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class IndexConfig:
    """Validated, immutable description of one index configuration.

    ``precision_bits=None`` means "derive from the budget":
    :meth:`effective_precision_bits` resolves it per universe to the finest
    grid a match index may grow to. All other fields are concrete. Being
    frozen and hashable, an ``IndexConfig`` can key run caches and serve as a
    dictionary key directly.

    ``epsilon`` and ``cube_budget`` are read by the paper's covering detector
    only (:mod:`repro.core.covering`, the paper-figure drivers); a broker
    decides covering by an exact scan and reads neither.
    """

    curve: str = DEFAULT_CURVE
    precision_bits: Optional[int] = None
    run_budget: int = DEFAULT_RUN_BUDGET
    cube_budget: int = DEFAULT_CUBE_BUDGET
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        curve_class(self.curve)  # raises the canonical "unknown curve kind" error
        if self.run_budget < 1:
            raise ValueError(f"run_budget must be >= 1, got {self.run_budget}")
        if self.precision_bits is not None and self.precision_bits < 1:
            raise ValueError(
                f"precision_bits must be >= 1 (or None to derive from the "
                f"budget), got {self.precision_bits}"
            )
        if self.cube_budget < 1:
            raise ValueError(f"cube_budget must be >= 1, got {self.cube_budget}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")

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

    # -------------------------------------------------------------- keying
    def covering_key(self) -> Tuple[Any, ...]:
        """The subset of knobs that shape dominance plans / covering profiles.

        Two configs with equal covering keys produce interchangeable
        :class:`~repro.core.approx_dominance.DominancePlan` objects; the run
        budget and the precision bits only affect how runs are *stored*.
        """
        return ("covering", self.curve, self.epsilon, self.cube_budget)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"IndexConfig({fields})"

