"""The paper's core contribution: ε-approximate point dominance and subscription covering."""

from .approx_dominance import (
    ApproximateDominanceIndex,
    DominanceQueryResult,
    TerminationReason,
)
from .bounds import (
    adversarial_lengths,
    adversarial_rectangle,
    lemma32_min_volume_fraction,
    lemma37_cube_bound,
    theorem31_run_bound,
    theorem41_lower_bound,
)
from .covering import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_EPSILON,
    ApproximateCoveringDetector,
    CoveringResult,
)
from .decomposition import (
    LevelClass,
    count_cubes_extremal,
    cubes_in_class,
    cumulative_volume_at_level,
    decompose_rectangle,
    greedy_decomposition,
    level_census,
    truncation_bits,
)

__all__ = [
    "ApproximateDominanceIndex",
    "DominanceQueryResult",
    "TerminationReason",
    "adversarial_lengths",
    "adversarial_rectangle",
    "lemma32_min_volume_fraction",
    "lemma37_cube_bound",
    "theorem31_run_bound",
    "theorem41_lower_bound",
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "ApproximateCoveringDetector",
    "CoveringResult",
    "LevelClass",
    "count_cubes_extremal",
    "cubes_in_class",
    "cumulative_volume_at_level",
    "decompose_rectangle",
    "greedy_decomposition",
    "level_census",
    "truncation_bits",
]
