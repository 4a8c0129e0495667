"""The core primitives, each timed on its own with ``timeit``.

Z and Hilbert key encoding, SFC-array insertion and key-range probing, the
greedy decomposition, the level census and one covering query batch, so that
a regression in a primitive shows apart from the experiments built on it.
Each row is the best of ``repeat`` runs of ``number`` calls, in µs per call
(a call encodes 1,000 points, inserts 1,000 points, probes 500 key ranges,
or runs 50 covering queries).  From the repository root::

    python3 experiments/micro_ops.py           # best of 5 × 20 calls each, ~10 s
    python3 experiments/micro_ops.py --smoke   # each body called once

It prints the table and writes nothing.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import timeit
from typing import Callable, Dict, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ResultTable  # noqa: E402
from repro.core.covering import ApproximateCoveringDetector  # noqa: E402
from repro.core.decomposition import greedy_decomposition, level_census  # noqa: E402
from repro.geometry.rect import ExtremalRectangle  # noqa: E402
from repro.geometry.universe import Universe  # noqa: E402
from repro.index.sfc_array import SFCArray  # noqa: E402
from repro.sfc.hilbert import HilbertCurve  # noqa: E402
from repro.sfc.zorder import ZOrderCurve  # noqa: E402

#: ``(number, repeat)``.
FULL = (20, 5)
SMOKE = (1, 1)


def _points(seed: int, count: int):
    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(count)]


def primitives() -> Dict[str, Callable[[], object]]:
    """Name -> one timed call, its inputs built once here."""
    universe_2d, universe_4d = Universe(dims=2, order=16), Universe(dims=4, order=10)
    z_curve, h_curve = ZOrderCurve(universe_4d), HilbertCurve(universe_4d)
    z_points, h_points, insert_points = _points(1, 1_000), _points(2, 1_000), _points(3, 1_000)

    def insert_all():
        array = SFCArray(z_curve)
        for i, point in enumerate(insert_points):
            array.add(i, point)

    probed = SFCArray(z_curve)
    rng = random.Random(4)
    for i in range(5_000):
        probed.add(i, tuple(rng.randint(0, 1023) for _ in range(4)))
    probes = []
    for _ in range(500):
        lo = rng.randint(0, universe_4d.max_key)
        probes.append((lo, min(universe_4d.max_key, lo + rng.randint(0, 1 << 24))))

    detector = ApproximateCoveringDetector(
        attributes=2, attribute_order=10, epsilon=0.1, cube_budget=20_000
    )
    rng = random.Random(5)
    for i in range(2_000):
        lo1, lo2 = rng.randint(0, 900), rng.randint(0, 900)
        detector.add_subscription(
            i,
            [(lo1, min(1023, lo1 + rng.randint(10, 400))), (lo2, min(1023, lo2 + rng.randint(10, 400)))],
        )
    queries = []
    for _ in range(50):
        lo1, lo2 = rng.randint(0, 950), rng.randint(0, 950)
        queries.append([(lo1, min(1023, lo1 + 50)), (lo2, min(1023, lo2 + 50))])

    region_2d = ExtremalRectangle(universe_2d, (12_345, 6_789))
    region_4d = ExtremalRectangle(universe_4d, (1_023, 767, 893, 511))
    return {
        "zorder_key_encoding": lambda: [z_curve.key(p) for p in z_points],
        "hilbert_key_encoding": lambda: [h_curve.key(p) for p in h_points],
        "sfc_array_insertion": insert_all,
        "sfc_array_range_probe": lambda: [probed.first_in_key_range(r) for r in probes],
        "greedy_decomposition_2d": lambda: greedy_decomposition(region_2d),
        "level_census_4d": lambda: level_census(region_4d),
        "covering_queries": lambda: [detector.find_covering(q).covered for q in queries],
    }


def micro_ops(number: int, repeat: int) -> ResultTable:
    """One row per primitive: the best of ``repeat`` timings of ``number`` calls."""
    table = ResultTable("Micro-operations: µs per call, best of repeats")
    for name, call in primitives().items():
        best = min(timeit.repeat(call, number=number, repeat=repeat))
        table.add(primitive=name, calls=number, repeats=repeat, us_per_call=round(1e6 * best / number, 1))
    return table


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="each body called once")
    print(micro_ops(*(SMOKE if parser.parse_args(argv).smoke else FULL)).to_text())


if __name__ == "__main__":
    main()
