"""One frozen configuration object for the whole approximate-matching stack.

The paper's matching machinery trades false positives for probe speed through
a handful of knobs: which space-filling curve keys the space, how many
precision bits the decomposition snaps to, how many key runs a subscription
may occupy, how many ε-cubes a dominance plan may spend, which ordered-map
backend stores the runs, and how many shards a composite index spreads over.
Historically those knobs travelled as loose keyword arguments and duplicated
module constants; :class:`IndexConfig` gathers them into one validated,
hashable value so any layer can describe, compare or cache-key a
configuration, and an offline search (:func:`repro.tuning.recommend_config`)
can walk from one to its neighbours.

``config=IndexConfig(...)`` is the only channel through which a knob reaches
a constructor of the stack, and only this module defines the knob names and
defaults; importers take them from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..sfc.factory import CURVE_KINDS, DEFAULT_CURVE, curve_class

__all__ = [
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "DEFAULT_MATCH_BACKEND",
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_RUN_BUDGET",
    "DEFAULT_SHARDS",
    "INDEX_BACKEND_NAMES",
    "MATCH_BACKEND_NAMES",
    "PRECISION_BIT_BUDGET",
    "IndexConfig",
]

#: Ordered-map backends a :class:`~repro.pubsub.match_index.MatchIndex` can
#: store its key runs in.
MATCH_BACKEND_NAMES = ("flat", "avl", "skiplist", "sortedlist")

#: Everything :data:`MATCH_BACKEND_NAMES` accepts plus the composite
#: shard-parallel index (routing-table level only).
INDEX_BACKEND_NAMES = MATCH_BACKEND_NAMES + ("sharded",)

#: Default ordered-map backend — the cache-friendly flattened array.
DEFAULT_MATCH_BACKEND = "flat"

#: Cap on key runs stored per subscription (Sec. 3.2 coarsening).
DEFAULT_RUN_BUDGET = 64

#: Per-dimension snap grid for the precision-bounded decomposition.
DEFAULT_PRECISION_BITS = 6

#: Total precision bits shared across dimensions: an index over ``d``
#: dimensions defaults to ``min(DEFAULT_PRECISION_BITS,
#: PRECISION_BIT_BUDGET // d)`` bits per dimension.
PRECISION_BIT_BUDGET = 2 * DEFAULT_PRECISION_BITS

#: ε-cube budget for routing-table covering detectors (the profiler's
#: offline default is far larger; see :class:`~repro.core.covering.CoveringProfiler`).
DEFAULT_CUBE_BUDGET = 2_000

#: Approximation slack ε of the covering detector (Sec. 4).
DEFAULT_EPSILON = 0.05

#: Shard count of the composite ``"sharded"`` backend.
DEFAULT_SHARDS = 4


@dataclass(frozen=True)
class IndexConfig:
    """Validated, immutable description of one index configuration.

    ``precision_bits=None`` means "derive from the budget":
    :meth:`effective_precision_bits` resolves it per universe. All other
    fields are concrete. Being frozen and hashable, an ``IndexConfig`` can
    namespace profile caches and serve as a dictionary key directly.
    """

    curve: str = DEFAULT_CURVE
    precision_bits: Optional[int] = None
    precision_bit_budget: int = PRECISION_BIT_BUDGET
    run_budget: int = DEFAULT_RUN_BUDGET
    cube_budget: int = DEFAULT_CUBE_BUDGET
    epsilon: float = DEFAULT_EPSILON
    backend: str = DEFAULT_MATCH_BACKEND
    shards: int = DEFAULT_SHARDS

    def __post_init__(self) -> None:
        curve_class(self.curve)  # raises the canonical "unknown curve kind" error
        if self.backend not in INDEX_BACKEND_NAMES:
            raise ValueError(
                f"unknown index backend {self.backend!r}; "
                f"expected one of {INDEX_BACKEND_NAMES}"
            )
        if self.run_budget < 1:
            raise ValueError(f"run_budget must be >= 1, got {self.run_budget}")
        if self.precision_bits is not None and self.precision_bits < 1:
            raise ValueError(
                f"precision_bits must be >= 1 (or None to derive from the "
                f"budget), got {self.precision_bits}"
            )
        if self.precision_bit_budget < 1:
            raise ValueError(
                f"precision_bit_budget must be >= 1, got {self.precision_bit_budget}"
            )
        if self.cube_budget < 1:
            raise ValueError(f"cube_budget must be >= 1, got {self.cube_budget}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    # ------------------------------------------------------------- derived
    def effective_precision_bits(self, dims: int) -> int:
        """Precision bits per dimension for a ``dims``-dimensional universe.

        Explicit ``precision_bits`` wins. Otherwise the shared
        ``precision_bit_budget`` is divided across dimensions; when that
        division yields zero bits (a high-dimensional universe), deriving a
        precision silently would snap every subscription to the whole
        universe, so this raises instead of clamping.
        """
        if self.precision_bits is not None:
            return self.precision_bits
        derived = self.precision_bit_budget // dims
        if derived < 1:
            raise ValueError(
                f"precision bit budget {self.precision_bit_budget} yields 0 "
                f"bits per dimension over a {dims}-dimensional universe; pass "
                f"an explicit precision_bits >= 1 (or raise the budget)"
            )
        return min(DEFAULT_PRECISION_BITS, derived)

    # -------------------------------------------------------------- keying
    def covering_key(self) -> Tuple[Any, ...]:
        """The subset of knobs that shape dominance plans / covering profiles.

        Two configs with equal covering keys produce interchangeable
        :class:`~repro.core.approx_dominance.DominancePlan` objects; backend,
        run budget and shard count only affect how runs are *stored*.
        """
        return ("covering", self.curve, self.epsilon, self.cube_budget)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-friendly) for benchmarks and exposition."""
        return dataclasses.asdict(self)

    def replace(self, **changes: Any) -> "IndexConfig":
        """Frozen-dataclass update: a new config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"IndexConfig({fields})"

