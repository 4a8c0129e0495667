"""A match index's derived grid grows with its table, and answers never move.

Without an explicit ``precision_bits`` a :class:`MatchIndex` decomposes on
the coarsest grid giving each live subscription a cube of its own — the
fewest bits ``b >= 1`` per dimension with ``2^(d·b) >= live`` — capped at the
config's derived precision (and the schema's order).  It only ever steps up:
``add`` / ``add_batch`` past ``2^(d·b)`` live subscriptions re-derive every
stored slot's runs on the finer grid and re-flatten the store.

The contract under test, over random ``add`` / ``add_batch`` / ``remove``
walks that cross at least two steps:

* ``matching_ids`` is the linear scan, in insertion order (a re-added id moves
  to the end, in a batch too), and so is a pinned index's; ``any_match`` is
  its truth value;
* ``precision_bits`` never decreases and is the rule applied to the largest
  live count seen, capped; an explicit ``precision_bits`` never moves;
* indexes at different precisions sharing one ``ProfileCache`` never read
  each other's runs: every stored run tuple is what an uncached index at
  that index's precision derives for the rectangle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub import ProfileCache
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.schema import Attribute, AttributeSchema

#: (dimensions, order): steps at 5 and 17 live subscriptions on the 2-D
#: schema (grid 1 → 2 → 3 bits, of a ceiling of 4), at 9 and 65 on the 3-D
#: one (1 → 2 → 3, the ceiling).
SHAPES = [(2, 4), (3, 3)]
#: Ids the random operations draw from; the growth phase adds fresh ones.
POOL = 12


def expected_bits(dims, ceiling, live):
    bits = 1
    while bits < ceiling and (1 << (dims * bits)) < live:
        bits += 1
    return bits


def rect_strategy(dims, side):
    corner = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    return st.tuples(*[corner.map(lambda pair: tuple(sorted(pair)))] * dims)


def op_strategy(dims, side):
    rect = rect_strategy(dims, side)
    ids = st.integers(0, POOL - 1)
    return st.one_of(
        st.tuples(st.just("add"), st.tuples(ids, rect)),
        st.tuples(st.just("batch"), st.lists(st.tuples(ids, rect), min_size=1, max_size=6)),
        st.tuples(st.just("remove"), ids),
    )


@pytest.mark.parametrize("curve", ["zorder", "hilbert"])
@pytest.mark.parametrize("dims, order", SHAPES, ids=["d2", "d3"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_growing_grid_answers_like_a_scan_and_a_pinned_index(curve, dims, order, data):
    schema = AttributeSchema(
        [Attribute(f"a{i}", 0.0, 1.0) for i in range(dims)], order=order
    )
    side = 1 << order
    ceiling = min(IndexConfig().effective_precision_bits(dims), order)
    assert ceiling >= 3  # room for two steps
    cache = ProfileCache()
    grown = MatchIndex(schema, config=IndexConfig(curve=curve), run_cache=cache)
    pinned = MatchIndex(
        schema, config=IndexConfig(curve=curve, precision_bits=ceiling), run_cache=cache
    )
    coarse = MatchIndex(
        schema, config=IndexConfig(curve=curve, precision_bits=1), run_cache=cache
    )
    indexes = (grown, pinned, coarse)
    references = {}
    reference_runs = {}

    def runs_at(bits, rect):
        """The runs an uncached index pinned at ``bits`` stores for ``rect``."""
        if (bits, rect) not in reference_runs:
            reference = references.get(bits)
            if reference is None:
                config = IndexConfig(curve=curve, precision_bits=bits)
                reference = references[bits] = MatchIndex(schema, config=config)
            [(runs, _)] = reference._runs_for([reference._snap_signature(rect)])
            reference_runs[bits, rect] = runs
        return reference_runs[bits, rect]

    rng = random.Random(data.draw(st.integers(0, 2**16), label="probe seed"))
    model = {}  # sub_id -> rectangle, in insertion order
    seen = {"live": 0, "bits": grown.precision_bits, "steps": 0}

    def place(sub_id, rect):
        model.pop(sub_id, None)
        model[sub_id] = rect

    def apply(op, arg, checked=True):
        if op == "add":
            sub_id, rect = arg
            for index in indexes:
                index.add(sub_id, rect)
            place(sub_id, rect)
        elif op == "batch":
            for index in indexes:
                index.add_batch(arg)
            for sub_id, rect in arg:
                place(sub_id, rect)
        else:
            removed = model.pop(arg, None) is not None
            for index in indexes:
                assert index.remove(arg) is removed
        if checked:
            check()

    def check(runs=False):
        seen["live"] = max(seen["live"], len(model))
        bits = grown.precision_bits
        assert bits >= seen["bits"]
        if bits > seen["bits"]:
            seen["steps"] += 1
            runs = True
        seen["bits"] = bits
        assert bits == expected_bits(dims, ceiling, seen["live"])
        assert (pinned.precision_bits, coarse.precision_bits) == (ceiling, 1)
        probes = [tuple(rng.randrange(side) for _ in range(dims)) for _ in range(3)]
        stored = list(model.values())
        probes += [tuple(lo for lo, _ in rect) for rect in stored[:1] + stored[-1:]]
        for cells in probes:
            expected = [
                sub_id
                for sub_id, rect in model.items()
                if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
            ]
            for index in indexes:
                assert index.matching_ids(cells) == expected
                assert index.any_match(cells) is bool(expected)
        for index in indexes:
            assert len(index) == len(model)
        # Every stored run tuple, after each step and at the end of each phase.
        for index in indexes if runs else ():
            for sub_id, rect in model.items():
                stored_runs = index._flat.runs_of(index._slot_of[sub_id])
                assert stored_runs == runs_at(index.precision_bits, rect)

    walks = st.lists(op_strategy(dims, side), max_size=12)
    for op, arg in data.draw(walks, label="head"):
        apply(op, arg)
    check(runs=True)
    # Grow past the second step with fresh ids and seeded rectangles, one add
    # or one batch at a time.
    def random_rect():
        return tuple(tuple(sorted((rng.randrange(side), rng.randrange(side)))) for _ in range(dims))

    sizes = st.integers(1, 8)
    fresh = 0
    while len(model) <= 1 << (2 * dims):
        size = data.draw(sizes, label="chunk")
        chunk = [(f"g{fresh + i}", random_rect()) for i in range(size)]
        fresh += size
        if size == 1:
            apply("add", chunk[0])
        else:
            apply("batch", chunk)
    assert seen["steps"] >= 2 and grown.precision_bits >= 3
    check(runs=True)
    # Shrink well below the last step: the grid stays where it is.
    for sub_id in list(model)[: len(model) * 3 // 4]:
        apply("remove", sub_id, checked=False)
    check(runs=True)
    for op, arg in data.draw(walks, label="tail"):
        apply(op, arg)
    check(runs=True)
    assert grown.precision_bits == expected_bits(dims, ceiling, seen["live"])
