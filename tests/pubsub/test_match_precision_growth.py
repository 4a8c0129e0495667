"""A match index's derived grid grows with its table and its reads, and answers never move.

Without an explicit ``precision_bits`` a :class:`MatchIndex` decomposes on a
grid chosen by one cost model, capped at the config's derived precision (and
the schema's order), that only ever steps up, re-deriving every stored
slot's runs on the finer grid and re-flattening the store:

* the size rule is its floor: ``add`` / ``add_batch`` past ``2^(d·b)`` live
  subscriptions step to the fewest bits ``b >= 1`` per dimension with
  ``2^(d·b) >= live``;
* a probe whose staged tests pay for a flatten steps one bit further when
  :func:`finer_grid_pays` says so for the counts the index recorded.

The contract under test, over random ``add`` / ``add_batch`` / ``remove``
walks with probes after every operation that cross at least two steps:

* ``matching_ids`` is the linear scan, in insertion order (a re-added id moves
  to the end, in a batch too), and so is a pinned index's; ``any_match`` is
  its truth value;
* ``precision_bits`` never decreases, moves on a write only to the size rule
  for the live count and on a probe only when that probe flattened, by the
  model's answer; an explicit ``precision_bits`` never moves;
* indexes at different precisions sharing one ``ProfileCache`` never read
  each other's runs: every stored run tuple is what an uncached index at
  that index's precision derives for the rectangle.

A walk with no probes stays on the size rule; a probe-heavy one steps past it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub import ProfileCache
from repro.pubsub.match_index import MatchIndex, finer_grid_pays
from repro.pubsub.schema import Attribute, AttributeSchema

#: (dimensions, order): steps at 5 and 17 live subscriptions on the 2-D
#: schema (grid 1 → 2 → 3 bits, of a ceiling of 4), at 9 and 65 on the 3-D
#: one (1 → 2 → 3, the ceiling).
SHAPES = [(2, 4), (3, 3)]
#: Ids the random operations draw from; the growth phase adds fresh ones.
POOL = 12


def size_rule(dims, ceiling, live):
    bits = 1
    while bits < ceiling and (1 << (dims * bits)) < live:
        bits += 1
    return bits


def model_steps(index, runs, grid_mark):
    """The model's answer for the counts ``index`` has recorded: one more bit?

    Read after a probe that flattened, with the stored ``runs`` and the
    ``grid_mark`` from before it (a step resets both): probes per write over
    the index's life, stab rejections per probe since its grid was set, runs
    now and on the next bit (``2^(d-1)`` times as many, at most
    ``RUN_BUDGET`` each).
    """
    stats = index.stats
    lookups, stab_rejections = grid_mark
    rejected = stats.false_positives - index.staged_rejections - stab_rejections
    dims = index.universe.dims
    return finer_grid_pays(
        runs,
        min(runs << (dims - 1), index.RUN_BUDGET * len(index)),
        stats.lookups / max(stats.inserts + stats.removals, 1),
        rejected / max(stats.lookups - lookups, 1),
    )


def schema_of(dims, order):
    return AttributeSchema([Attribute(f"a{i}", 0.0, 1.0) for i in range(dims)], order=order)


def scan(model, cells):
    return [
        sub_id
        for sub_id, rect in model.items()
        if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
    ]


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


@pytest.mark.parametrize("dims, order", SHAPES, ids=["d2", "d3"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_growing_grid_answers_like_a_scan_and_a_pinned_index(dims, order, data):
    schema = schema_of(dims, order)
    side = 1 << order
    ceiling = min(IndexConfig().effective_precision_bits(dims), order)
    assert ceiling >= 3  # room for two steps
    cache = ProfileCache()
    grown = MatchIndex(schema, run_cache=cache)
    pinned = MatchIndex(schema, config=IndexConfig(precision_bits=ceiling), run_cache=cache)
    coarse = MatchIndex(schema, config=IndexConfig(precision_bits=1), run_cache=cache)
    indexes = (grown, pinned, coarse)
    references = {}
    reference_runs = {}

    def runs_at(bits, rect):
        """The runs an uncached index pinned at ``bits`` stores for ``rect``."""
        if (bits, rect) not in reference_runs:
            reference = references.get(bits)
            if reference is None:
                config = IndexConfig(precision_bits=bits)
                reference = references[bits] = MatchIndex(schema, config=config)
            [(runs, _)] = reference._runs_for([reference._snap_signature(rect)])
            reference_runs[bits, rect] = runs
        return reference_runs[bits, rect]

    rng = random.Random(data.draw(st.integers(0, 2**16), label="probe seed"))
    model = {}  # sub_id -> rectangle, in insertion order
    seen = {"bits": grown.precision_bits, "steps": 0}
    expected = {"bits": grown.precision_bits}

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
        # A write moves the grid only to the size rule's answer.
        expected["bits"] = max(expected["bits"], size_rule(dims, ceiling, len(model)))
        assert grown.precision_bits == expected["bits"]
        if checked:
            check()

    def probe(query, cells):
        """One probe of ``grown``; a flatten it paid for steps by the model's answer."""
        flattens = grown.stats.probe_flattens
        runs, grid_mark = grown.stats.runs_stored, grown._grid_mark
        answer = query(cells)
        if grown.stats.probe_flattens > flattens:
            assert grown.stats.probe_flattens == flattens + 1
            if expected["bits"] < ceiling and model_steps(grown, runs, grid_mark):
                expected["bits"] += 1
        assert grown.precision_bits == expected["bits"]
        return answer

    def check(runs=False):
        bits = grown.precision_bits
        assert bits >= seen["bits"]
        if bits > seen["bits"]:
            seen["steps"] += 1
            runs = True
        seen["bits"] = bits
        assert (pinned.precision_bits, coarse.precision_bits) == (ceiling, 1)
        probes = [tuple(rng.randrange(side) for _ in range(dims)) for _ in range(3)]
        stored = list(model.values())
        probes += [tuple(lo for lo, _ in rect) for rect in stored[:1] + stored[-1:]]
        for cells in probes:
            matches = scan(model, cells)
            assert probe(grown.matching_ids, cells) == matches
            assert probe(grown.any_match, cells) is bool(matches)
            for index in (pinned, coarse):
                assert index.matching_ids(cells) == matches
                assert index.any_match(cells) is bool(matches)
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
    assert grown.precision_bits == expected["bits"]


@pytest.mark.parametrize("dims, order", SHAPES, ids=["d2", "d3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_write_only_walk_stays_on_the_size_rule(dims, order, data):
    """No probe between writes, so nothing pays for a flatten: the grid is the
    size rule for the largest live count seen, as before the cost model."""
    schema = schema_of(dims, order)
    side = 1 << order
    ceiling = min(IndexConfig().effective_precision_bits(dims), order)
    index = MatchIndex(schema)
    model = {}
    largest = 0
    ops = data.draw(st.lists(op_strategy(dims, side), min_size=1, max_size=40))
    # Fresh ids past the second size step, added one at a time.
    ops += [("add", (f"g{i}", ((0, i % side),) * dims)) for i in range((1 << (2 * dims)) + 1)]
    for op, arg in ops:
        if op == "add":
            index.add(*arg)
            model.pop(arg[0], None)
            model[arg[0]] = arg[1]
        elif op == "batch":
            index.add_batch(arg)
            for sub_id, rect in arg:
                model.pop(sub_id, None)
                model[sub_id] = rect
        else:
            assert index.remove(arg) is (model.pop(arg, None) is not None)
        largest = max(largest, len(model))
        assert index.precision_bits == size_rule(dims, ceiling, largest)
    assert index.precision_bits >= 3 and index.stats.probe_flattens == 0
    rng = random.Random(data.draw(st.integers(0, 2**16), label="probe seed"))
    for _ in range(20):
        cells = tuple(rng.randrange(side) for _ in range(dims))
        assert index.matching_ids(cells) == scan(model, cells)


@pytest.mark.parametrize("seed", range(3))
def test_a_probe_heavy_table_steps_past_the_size_rule(seed):
    """A 2-D table of 16 small rectangles sits on 2 bits by size; probed a
    hundred times per write, its rejections pay for finer grids, one bit per
    paid flatten, while every answer stays the scan's."""
    dims, order = 2, 6
    schema = schema_of(dims, order)
    side = 1 << order
    rng = random.Random(seed)

    def small_rect():
        corner = [rng.randrange(side - 8) for _ in range(dims)]
        return tuple((lo, lo + rng.randrange(8)) for lo in corner)

    index = MatchIndex(schema)
    model = {f"s{i}": small_rect() for i in range(12)}
    index.add_batch(list(model.items()))
    bits = [index.precision_bits]
    for i in range(4):
        model[f"a{i}"] = small_rect()
        index.add(f"a{i}", model[f"a{i}"])
        for _ in range(100):
            cells = tuple(rng.randrange(side) for _ in range(dims))
            assert index.matching_ids(cells) == scan(model, cells)
            bits.append(index.precision_bits)
    assert bits[0] == size_rule(dims, order, len(model)) == 2
    assert bits == sorted(bits) and all(b - a <= 1 for a, b in zip(bits, bits[1:]))
    assert index.precision_bits > 2
    assert index.stats.probe_flattens >= index.precision_bits - 2
