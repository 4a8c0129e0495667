"""Model-based tests for the flattened stores behind the default backend.

:class:`FlatBackend` is differential-tested against a dict + sorted list
model through random operation sequences, and :class:`FlatSegmentStore`
against a brute-force "scan every slot's runs" stab oracle — including the
paths that only open at scale (merges, tombstone compaction, bulk loads).
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import sfc_array
from repro.index.backends import FlatBackend, make_backend
from repro.index.sfc_array import FlatSegmentStore
from repro.sfc import vectorized
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
        st.tuples(st.just("bulk"), st.integers(0, 40), st.lists(_run_lists, max_size=5)),
        st.tuples(st.just("remove"), st.integers(0, 40), st.just(None)),
        st.tuples(st.just("rebuild"), st.just(0), st.just(None)),
    ),
    max_size=60,
)


@given(_store_ops, st.lists(st.integers(0, 440), max_size=30))
def test_flat_segment_store_matches_oracle(ops, probes):
    """Adds, bulk loads, removes and rebuilds interleave freely, so a removal
    meets slots that are still pending as well as flattened ones; every probe
    is checked after every write, not only at the end."""
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
        elif op == "bulk":
            # Consecutive op slots from ``slot`` on, skipping the live ones.
            fresh = [s for s in range(slot, slot + len(runs)) if s not in alias]
            items = []
            for op_slot, slot_runs in zip(fresh, runs):
                alias[op_slot] = next_slot
                items.append((next_slot, slot_runs))
                model[next_slot] = merge_key_ranges(slot_runs)
                next_slot += 1
            store.add_bulk(items)
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


# ------------------------------------------ the sweep: numpy ≡ Python ≡ oracle

def _oracle_layout(store):
    """Segments and their members, slots in insertion order, by brute force:
    every stretch between two neighbouring run endpoints is tested against
    every run of every slot."""
    runs_of = {slot: store.runs_of(slot) for slot in store._runs}
    points = sorted({p for runs in runs_of.values() for lo, hi in runs for p in (lo, hi + 1)})
    los, his, members = [], [], []
    for lo, end in zip(points, points[1:]):
        inside = [
            slot
            for slot, runs in runs_of.items()
            if any(run_lo <= lo and end - 1 <= run_hi for run_lo, run_hi in runs)
        ]
        if inside:
            los.append(lo)
            his.append(end - 1)
            members.append(inside)
    return los, his, members


def _split(layout):
    """A sweep's ``(los, his, cuts, members)`` with the members cut per segment."""
    los, his, cuts, members = layout
    assert isinstance(members, array) and members.typecode == "q"
    assert cuts[0] == 0 and cuts[-1] == len(members) and len(cuts) == len(his) + 1
    return los, his, [list(members[a:b]) for a, b in zip(cuts, cuts[1:])]


def _assert_sweeps_agree(store, vectorised):
    """Both sweeps give the oracle's layout; ``vectorised`` says whether the
    numpy one may run at all on this store (it must decline, not wrap)."""
    expected = _oracle_layout(store)
    assert _split(store._sweep_python()) == expected
    swept = store._sweep_numpy()
    if vectorised and vectorized.np is not None:
        assert _split(swept) == expected
    else:
        assert swept is None
    store.rebuild()
    assert _split((store._los, store._his, store._cuts, store._members)) == expected
    assert store.member_entries == sum(map(len, expected[2]))
    assert store.segment_count() == len(expected[0])


_TOP = (1 << 64) - 1

_slot_runs = st.builds(
    _chained_runs,
    st.integers(0, 40),
    # Zero gaps make a slot's own runs abut, zero lengths are one-cell runs,
    # and on so narrow a key space slots share boundaries all the time.
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=64),
)


@given(
    st.lists(st.tuples(st.integers(0, 10_000), _slot_runs), max_size=40, unique_by=lambda t: t[0]),
    st.sampled_from([None, _TOP - 1, _TOP, _TOP + 1, 1 << 70]),
    st.booleans(),
)
def test_numpy_sweep_equals_python_sweep(slots, top_end, bulk):
    """Same ``_los`` / ``_his`` and the same members in the same order from
    both sweeps, for 0-40 slots of 1-64 runs; slot numbers are drawn, so
    insertion order is not slot order.  A run ending at ``2**64 - 2`` is still
    swept on arrays, one ending at ``2**64 - 1`` or beyond is not."""
    store = FlatSegmentStore()
    if top_end is not None:
        slots = slots + [(20_000, [(3, 5), (top_end - 4, top_end)])]
    if bulk:
        store.add_bulk(slots)
    else:
        for slot, runs in slots:
            store.add(slot, runs)
    _assert_sweeps_agree(store, vectorised=top_end is None or top_end < _TOP)


def test_sweeps_agree_on_an_empty_and_a_single_slot_store():
    store = FlatSegmentStore()
    _assert_sweeps_agree(store, vectorised=True)
    assert (store._los, store._his, store._cuts, len(store._members)) == ([], [], [0], 0)
    store.add(7, [(4, 4), (5, 9), (20, 20)])
    _assert_sweeps_agree(store, vectorised=True)
    assert store._his == [4, 9, 20] and list(store._members) == [7, 7, 7]
    store.remove(7)
    _assert_sweeps_agree(store, vectorised=True)
    assert list(store.stab(5)) == []


def test_members_are_in_slot_insertion_order_on_both_sweeps():
    """Slot 9 is stored first, leaves the active set and re-enters it while
    slot 2 is active: the event loop used to list it after 2 (activation
    order), the numpy sweep before it, and ``any_match`` stops at the first
    confirmed candidate — so the two paths could count different work."""
    store = FlatSegmentStore()
    store.add_bulk([(9, [(0, 1), (10, 12)]), (2, [(5, 11)])])
    assert list(store.stab(10)) == [9, 2]
    _, _, members = _split(store._sweep_python())
    assert members == [[9], [2], [9, 2], [9]]
    _assert_sweeps_agree(store, vectorised=True)


def test_rebuild_of_a_small_store_runs_the_array_sweep(monkeypatch):
    """No table is too small for the numpy sweep, and a rebuild builds its
    members as one typed array with a cut list — not an ``array`` per segment
    in a Python loop (785 of them on 20 product-sized slots)."""
    rng = random.Random(11)
    store = FlatSegmentStore()
    for slot in range(20):
        steps = [(rng.randrange(1, 1 << 10), rng.randrange(1 << 6)) for _ in range(52)]
        store.add(slot, _chained_runs(rng.randrange(1 << 20), steps))
    constructed = []

    def counting_array(*args):
        constructed.append(args[0])
        return array(*args)

    monkeypatch.setattr(sfc_array, "array", counting_array)
    if vectorized.np is not None:
        assert store._sweep_numpy() is not None
        constructed.clear()
    store.rebuild()
    assert constructed == ["q"]
    assert isinstance(store._members, array)
    assert len(store._cuts) == store.segment_count() + 1 > 20


def test_stab_matches_oracle_across_both_thresholds_in_both_directions():
    """A seeded walk that grows a store from nothing to ~70 slots and empties
    it again, twice, through ``add``, ``add_bulk`` and ``remove``: the pending
    cap and the tombstone share are each crossed on the way up and on the way
    down, and every stab after every step is the brute-force answer."""
    rng = random.Random(5)
    store = FlatSegmentStore()
    model = {}
    next_slot = 0
    rebuilt_by = {"add": 0, "bulk": 0, "remove": 0}

    def fresh_runs():
        steps = [(rng.randrange(4), rng.randrange(3)) for _ in range(rng.randrange(1, 9))]
        return _chained_runs(rng.randrange(60), steps)

    for target in (70, 0, 70, 0):
        while len(model) != target:
            growing = len(model) < target
            before = store.rebuilds
            if rng.random() < (0.75 if growing else 0.25):
                if rng.random() < 0.03:
                    op = "bulk"
                    items = [(next_slot + i, fresh_runs()) for i in range(rng.randrange(1, 4))]
                    store.add_bulk(items)
                else:
                    op = "add"
                    items = [(next_slot, fresh_runs())]
                    store.add(*items[0])
                model.update(items)
                next_slot += len(items)
            elif model:
                op = "remove"
                slot = rng.choice(list(model))
                assert store.remove(slot) == len(model.pop(slot))
            else:
                continue
            rebuilt_by[op] += store.rebuilds - before
            assert len(store) == len(model)
            for key in range(0, 110, 3):
                assert set(store.stab(key)) == _oracle_stab(model, key)
    assert all(count > 2 for count in rebuilt_by.values()), rebuilt_by


def test_match_index_counts_the_same_work_with_and_without_numpy(monkeypatch):
    """One seeded script against the product index, once with the array sweep
    and once with the fallback: same answers and — because members come out in
    the same order, so ``any_match`` stops at the same candidate — the same
    ``candidates_checked`` and ``false_positives``."""
    from repro.pubsub.match_index import MatchIndex
    from repro.pubsub.subscription import Subscription
    from repro.workloads.scenarios import stock_market_scenario

    scenario = stock_market_scenario(num_subscriptions=120, num_events=60, seed=3)
    ranges = [Subscription(scenario.schema, c).ranges for c in scenario.subscriptions]
    cells = [scenario.schema.quantize_event(event) for event in scenario.events]

    def run_script():
        rng = random.Random(4)
        index = MatchIndex(scenario.schema)
        index.add_batch(list(enumerate(ranges[:30])))
        answers = []
        live = list(range(30))
        for number in range(30, 120):
            index.add(number, ranges[number])
            live.append(number)
            if number % 3:
                index.remove(live.pop(rng.randrange(len(live))))
            for event in rng.sample(cells, 5):
                answers.append((index.any_match(event), sorted(index.matching_ids(event))))
        return answers, index.stats, index._flat.rebuilds

    with_numpy = run_script()
    monkeypatch.setattr(vectorized, "np", None)
    assert run_script() == with_numpy
    assert with_numpy[2] > 3
