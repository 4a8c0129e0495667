"""Greedy standard-cube decomposition, the product's part of the paper's core.

The paper's ε-approximate point dominance (:mod:`.approx_dominance`), its
covering detector (:mod:`.covering`) and its bounds (:mod:`.bounds`) run
only in the experiments; import their names from those modules.
"""

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
    "LevelClass",
    "count_cubes_extremal",
    "cubes_in_class",
    "cumulative_volume_at_level",
    "decompose_rectangle",
    "greedy_decomposition",
    "level_census",
    "truncation_bits",
]
