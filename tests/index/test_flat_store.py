"""Model-based tests for the flattened stores behind the default backend.

:class:`FlatBackend` is differential-tested against a dict + sorted list
model through random operation sequences, and :class:`FlatSegmentStore`
against a brute-force "scan every slot's runs" stab oracle — including the
paths that only open at scale (merges, tombstone compaction, bulk loads).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.backends import FlatBackend, make_backend
from repro.index.sfc_array import FlatSegmentStore
from repro.sfc.runs import merge_key_ranges

# ------------------------------------------------------------- FlatBackend

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "get", "first", "scan"]),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=120),
    ),
    max_size=120,
)


@given(_ops)
def test_flat_backend_matches_model(ops):
    backend = FlatBackend()
    model = {}
    for op, a, b in ops:
        lo, hi = min(a, b), max(a, b)
        if op == "insert":
            backend.insert(a, f"v{a}-{b}")
            model[a] = f"v{a}-{b}"
        elif op == "delete":
            assert backend.delete(a) == (a in model)
            model.pop(a, None)
        elif op == "get":
            assert backend.get(a) == model.get(a)
        elif op == "first":
            keys = sorted(k for k in model if lo <= k <= hi)
            expected = (keys[0], model[keys[0]]) if keys else None
            assert backend.first_in_range(lo, hi) == expected
        else:
            expected = [(k, model[k]) for k in sorted(model) if lo <= k <= hi]
            assert list(backend.items_in_range(lo, hi)) == expected
        assert len(backend) == len(model)
    assert list(backend.items()) == [(k, model[k]) for k in sorted(model)]


def test_flat_backend_merges_and_compacts():
    backend = FlatBackend()
    for k in range(500):
        backend.insert(k, k)
    assert backend.merges > 0
    for k in range(0, 500, 2):
        backend.delete(k)
    assert list(backend.items_in_range(0, 10)) == [(1, 1), (3, 3), (5, 5), (7, 7), (9, 9)]
    # Deleting then re-inserting a key still physically present resurrects it.
    backend.delete(1)
    backend.insert(1, "back")
    assert backend.get(1) == "back"
    assert backend.first_in_range(0, 2) == (1, "back")


def test_make_backend_builds_flat():
    assert isinstance(make_backend("flat"), FlatBackend)


# --------------------------------------------------------- FlatSegmentStore

def _oracle_stab(runs_of, key):
    return {slot for slot, runs in runs_of.items() if any(lo <= key <= hi for lo, hi in runs)}


def _chained_runs(start, steps):
    """Disjoint sorted runs from ``(gap, length)`` steps; a zero gap makes two abut."""
    runs = []
    lo = start
    for gap, length in steps:
        lo += gap
        runs.append((lo, lo + length))
        lo += length + 1
    return runs


_run_lists = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 30)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        min_size=1,
        max_size=4,
    ),
    # A whole decomposition's worth: the 64 sorted runs one product
    # subscription hands the store.
    st.builds(
        _chained_runs,
        st.integers(0, 40),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=64, max_size=64),
    ),
)

_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), _run_lists),
        st.tuples(st.just("remove"), st.integers(0, 40), st.just(None)),
        st.tuples(st.just("rebuild"), st.just(0), st.just(None)),
    ),
    max_size=60,
)


@given(_store_ops, st.lists(st.integers(0, 440), max_size=30))
def test_flat_segment_store_matches_oracle(ops, probes):
    """Adds, removes and rebuilds interleave freely, so a removal meets slots
    that are still pending as well as flattened ones; every probe is checked
    after every write, not only at the end."""
    store = FlatSegmentStore()
    model = {}
    next_slot = 100  # distinct from the op slot space so re-adds get new slots
    alias = {}
    for op, slot, runs in ops:
        if op == "add":
            target = alias.get(slot)
            if target is None:
                target = next_slot
                next_slot += 1
                alias[slot] = target
                store.add(target, runs)
                model[target] = merge_key_ranges(runs)
        elif op == "remove":
            target = alias.pop(slot, None)
            if target is None:
                assert store.remove(-1) == 0
            else:
                stored = len(store.runs_of(target))
                assert store.remove(target) == stored
                del model[target]
        else:
            store.rebuild()
        assert len(store) == len(model)
        for key in probes:
            assert set(store.stab(key)) == _oracle_stab(model, key)


def test_flat_segment_store_bulk_equals_incremental():
    items = [(slot, [(slot * 3, slot * 3 + 10)]) for slot in range(200)]
    bulk = FlatSegmentStore()
    bulk.add_bulk(items)
    incremental = FlatSegmentStore()
    for slot, runs in items:
        incremental.add(slot, runs)
    incremental.rebuild()
    for key in range(0, 650, 7):
        assert set(bulk.stab(key)) == set(incremental.stab(key))
    assert bulk.rebuilds == 1
    assert bulk.member_entries == incremental.member_entries


def test_flat_segment_store_rejects_duplicate_slot():
    store = FlatSegmentStore()
    store.add(1, [(0, 5)])
    with pytest.raises(ValueError):
        store.add(1, [(6, 9)])
    store.rebuild()
    with pytest.raises(ValueError):
        store.add_bulk([(1, [(6, 9)])])


def test_flat_segment_store_tombstone_compaction():
    """Removing flattened slots only tombstones them until more than half of
    what the arrays hold is garbage; the rebuild that follows clears it all."""
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot, slot + 2)]) for slot in range(100)])
    assert store.rebuilds == 1
    for slot in range(0, 100, 2):
        store.remove(slot)
    # Exactly half garbage: still tombstones, filtered at stab time.
    assert store.rebuilds == 1
    assert set(store.stab(5)) == {3, 5}  # covered by 3,4,5; 4 removed
    segments = store.segment_count()
    store.remove(1)
    assert store.rebuilds == 2
    assert store.segment_count() < segments
    assert set(store.stab(5)) == {3, 5}
    assert set(store.stab(2)) == set()


def test_flat_segment_store_pending_slot_removal_leaves_no_garbage():
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot * 10, slot * 10 + 5)]) for slot in range(4)])
    for round_ in range(200):
        store.add(1000 + round_, [(3, 4), (13, 14)])
        assert set(store.stab(13)) == {1, 1000 + round_}
        assert store.remove(1000 + round_) == 2
    assert store.rebuilds == 1
    assert set(store.stab(13)) == {1}


def test_flat_segment_store_rebuilds_once_per_many_writes():
    """Churn on a table of 64-run slots: one arrival must not flush the buffer.

    32 live slots of 64 runs each, then 1,000 writes alternating an arrival
    with the withdrawal of the oldest slot.  The pending cap is counted in
    slots and compaction waits for a constant share of garbage, so rebuilds
    come at most once per 16 writes (29 here; the cap counted in runs
    rebuilt 83 times), and every stab along the way agrees with the
    scan-everything oracle.
    """
    rng = random.Random(7)

    def runs_of_subscription():
        start = rng.randrange(1 << 20)
        return _chained_runs(
            start, [(rng.randrange(1, 1 << 10), rng.randrange(1 << 6)) for _ in range(64)]
        )

    store = FlatSegmentStore()
    model = {slot: runs_of_subscription() for slot in range(32)}
    store.add_bulk(model.items())
    rebuilds = store.rebuilds
    next_slot = 32
    for write in range(1_000):
        if write % 2 == 0:
            model[next_slot] = runs_of_subscription()
            store.add(next_slot, model[next_slot])
            next_slot += 1
        else:
            oldest = next(iter(model))
            assert store.remove(oldest) == len(model.pop(oldest))
        slot = rng.choice(list(model))
        for key in (rng.choice(model[slot])[0], rng.randrange(1 << 21)):
            assert set(store.stab(key)) == _oracle_stab(model, key)
    assert store.rebuilds - rebuilds <= 1_000 // 16


def test_flat_segment_store_keeps_runs_reaching_the_top_of_a_64_bit_key_space():
    """The numpy sweep works on exclusive ends; ``2**64 - 1 + 1`` wraps to 0.

    Both shapes used to go wrong once the store was large enough for the
    vectorised rebuild: the all-keys run got span 0 and vanished, a run
    starting above 0 got a negative span and the rebuild raised.
    """
    top = (1 << 64) - 1
    rng = random.Random(3)
    for lo in (0, (1 << 63) + 5):
        model = {}
        for slot in range(600):
            start = rng.randrange(1 << 63)
            model[slot] = [(start, start + rng.randrange(1 << 40))]
        model[600] = [(lo, top)]
        store = FlatSegmentStore()
        store.add_bulk(model.items())
        for key in (1 << 63, (1 << 63) + 5, top, model[17][0][0]):
            assert set(store.stab(key)) == _oracle_stab(model, key)
        assert 600 in set(store.stab(top))
