#!/usr/bin/env python3
"""Quickstart: approximate subscription covering in a few lines.

This walks through the core API of the reproduction:

1. build an :class:`ApproximateCoveringDetector` for subscriptions over two
   numeric attributes;
2. register a handful of subscriptions (conjunctions of integer ranges on the
   quantised grid);
3. ask whether new subscriptions are covered, exactly and approximately, and
   inspect the cost accounting (runs probed, volume searched) that the
   paper's analysis is about.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ApproximateCoveringDetector
from repro.index.config import IndexConfig


def main() -> None:
    # Subscriptions have 2 numeric attributes, each quantised to 10 bits
    # (values 0..1023).  ε = 0.05 means each covering query searches at least
    # 95% of the volume of the region where covering subscriptions can live.
    detector = ApproximateCoveringDetector(
        attributes=2, attribute_order=10, config=IndexConfig(epsilon=0.05)
    )

    # A broad "market watcher" subscription and some narrower ones.
    detector.add_subscription("market-watcher", [(0, 900), (100, 1000)])
    detector.add_subscription("mid-cap", [(200, 600), (300, 700)])
    detector.add_subscription("penny-stocks", [(0, 50), (0, 1023)])

    print("Stored subscriptions:")
    for sub_id, ranges in detector.subscriptions().items():
        print(f"  {sub_id:15s} {ranges}")
    print()

    # A new subscription arrives at the router: is it covered?
    new_subscription = [(250, 500), (350, 650)]
    result = detector.find_covering(new_subscription)
    print(f"New subscription {new_subscription}")
    print(f"  covered:        {result.covered}")
    print(f"  covered by:     {result.covering_id}")
    print(f"  runs probed:    {result.query.runs_probed}")
    print(f"  volume covered: {result.query.coverage:.4f}")
    print(f"  termination:    {result.query.termination}")
    print()

    # The same question, answered exhaustively (ε = 0) for comparison.
    exhaustive = detector.find_covering_exhaustive(new_subscription)
    print("Exhaustive check of the same subscription:")
    print(f"  covered by:     {exhaustive.covering_id}")
    print(f"  runs probed:    {exhaustive.query.runs_probed}")
    print()

    # A subscription nothing covers: the approximate search keeps probing until
    # it has seen at least 95% of the candidate region, then gives up.
    uncovered = [(0, 1023), (0, 1023)]
    result = detector.find_covering(uncovered)
    print(f"Match-everything subscription {uncovered}")
    print(f"  covered:        {result.covered}")
    print(f"  volume covered: {result.query.coverage:.4f}")
    print(f"  runs probed:    {result.query.runs_probed}")
    print()

    # Ground truth for recall measurements comes from a linear scan.
    print(f"All true covers of {new_subscription}: {detector.all_covering(new_subscription)}")


if __name__ == "__main__":
    main()
