"""Model-based tests for the SFC array and the match index's flat segment store.

:class:`SFCArray` is differential-tested against a dict-per-key model
through random add / re-add / remove sequences, and :class:`FlatSegmentStore`
against a brute-force "scan every slot's runs" stab oracle — including the
paths that only open at scale (merges, tombstone compaction, bulk loads).
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.universe import Universe
from repro.index import sfc_array
from repro.index.sfc_array import FlatSegmentStore, SFCArray
from repro.sfc.gray import GrayCodeCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.runs import merge_key_ranges
from repro.sfc.zorder import ZOrderCurve

#: Every curve, as its ``kind`` in test ids.
CURVES = (ZOrderCurve, HilbertCurve, GrayCodeCurve)
CURVE_IDS = [curve.kind for curve in CURVES]


# ------------------------------------------------------------------ SFCArray

#: Add / re-add / remove sequences over a few ids and the 64 cells of a 2-d
#: order-3 universe, so cells are shared, buckets fill and empty, ids move.
_array_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove"]),
        st.integers(min_value=0, max_value=9),
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
    ),
    max_size=60,
)
_key_ranges = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)).map(sorted), min_size=1, max_size=4
)


def _first_model_hit(model, lo, hi, excluded=None):
    """The first ``(item_id, point)`` of the model in ``[lo, hi]``: key order, then bucket order."""
    return next(
        (
            (item_id, point)
            for key in sorted(model)
            if lo <= key <= hi
            for item_id, point in model[key].items()
            if item_id != excluded
        ),
        None,
    )


@pytest.mark.parametrize("curve_cls", CURVES, ids=CURVE_IDS)
@settings(deadline=None)
@given(ops=_array_ops, ranges=_key_ranges)
def test_sfc_array_matches_a_sorted_dict_model(curve_cls, ops, ranges):
    """After every step the items (key order, then bucket order), the occupied
    keys, every range probe and the whole-schedule probe over the drawn
    ranges (overlapping or not), excluding no item or any stored one, equal
    a model that keeps one insertion-ordered dict per key."""
    curve = curve_cls(Universe(dims=2, order=3))
    array = SFCArray(curve)
    model = {}
    # The ranges as a probe schedule, in the order drawn (they may overlap).
    los = [lo for lo, _ in ranges]
    his = [hi for _, hi in ranges]
    for op, item_id, point in ops:
        for bucket in model.values():
            if bucket.pop(item_id, None) is not None:
                break
        model = {key: bucket for key, bucket in model.items() if bucket}
        if op == "add":
            array.add(item_id, point)
            model.setdefault(curve.key(point), {})[item_id] = point
        else:
            array.remove(item_id)
        assert [(item.item_id, item.point) for item in array.items()] == [
            (i, p) for key in sorted(model) for i, p in model[key].items()
        ]
        assert list(array.keys()) == sorted(model)
        for lo, hi in ranges:
            hit = array.first_in_key_range((lo, hi))
            assert (None if hit is None else (hit.item_id, hit.point)) == _first_model_hit(
                model, lo, hi
            )
        for excluded in [None, *(item.item_id for item in array.items())]:
            expected = next(
                (
                    (probe, hit)
                    for probe, (lo, hi) in enumerate(ranges)
                    for hit in [_first_model_hit(model, lo, hi, excluded)]
                    if hit is not None
                ),
                None,
            )
            got = array.first_probe_hit(los, his, excluded)
            assert (None if got is None else (got[0], (got[1].item_id, got[1].point))) == expected


# --------------------------------------------------------- FlatSegmentStore

def _oracle_stab(runs_of, key):
    return {slot for slot, runs in runs_of.items() if any(lo <= key <= hi for lo, hi in runs)}


def _live_stab(store, key):
    """The live slots whose runs hold ``key``, by the store's contract: the
    flattened slice of ``stab`` minus the tombstoned slots, plus the staged
    slots whose runs hold it.  The slice never lists a staged slot, and each
    slot comes up once."""
    flattened = list(store.stab(key))
    staged = [
        slot for slot, runs in store.staged.items() if any(lo <= key <= hi for lo, hi in runs)
    ]
    assert not set(flattened) & set(store.staged)
    hits = [slot for slot in flattened if slot not in store._dead] + staged
    assert len(hits) == len(set(hits))
    return set(hits)


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
    is checked after every write, not only at the end, against the store's
    contract (see ``_live_stab``)."""
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
            assert _live_stab(store, key) == _oracle_stab(model, key)


def test_flat_segment_store_bulk_equals_incremental():
    items = [(slot, [(slot * 3, slot * 3 + 10)]) for slot in range(200)]
    bulk = FlatSegmentStore()
    bulk.add_bulk(items)
    incremental = FlatSegmentStore()
    for slot, runs in items:
        incremental.add(slot, runs)
    incremental.rebuild()
    for key in range(0, 650, 7):
        assert _live_stab(bulk, key) == _live_stab(incremental, key)
    assert bulk.rebuilds == 1
    assert bulk.member_entries == incremental.member_entries


def test_reflatten_gives_every_slot_new_runs_in_one_sweep():
    """What a match index's grid step does to its store: new runs for every
    stored slot, staged and tombstoned ones swept away in one rebuild, and
    the slots (so every segment's members) keep their insertion order."""
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot * 4, slot * 4 + 9)]) for slot in range(40)])
    store.remove(3)
    store.add(50, [(0, 200)])
    assert store._dead and store.staged
    rebuilds = store.rebuilds
    fresh = {slot: [(slot, slot + 1), (300 + slot, 300 + slot)] for slot in reversed(list(store._runs))}
    store.reflatten(fresh.items())
    assert store.rebuilds == rebuilds + 1
    assert not store._dead and not store.staged
    assert list(store._runs) == [slot for slot in range(40) if slot != 3] + [50]
    assert _split((store._los, store._his, store._cuts, store._members)) == _oracle_layout(store)
    # New runs for other slots than the stored ones are refused untouched.
    with pytest.raises(ValueError):
        store.reflatten([(slot, [(0, 1)]) for slot in range(40)])
    assert store.runs_of(50) == ((50, 51), (350, 350))


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
    # Exactly half garbage: still tombstones, which a stab still lists.
    assert store.rebuilds == 1
    assert list(store.stab(5)) == [3, 4, 5]  # covered by 3,4,5; 4 removed
    assert _live_stab(store, 5) == {3, 5}
    segments = store.segment_count()
    store.remove(1)
    assert store.rebuilds == 2
    assert store.segment_count() < segments
    assert list(store.stab(5)) == [3, 5]
    assert list(store.stab(2)) == []


def test_flat_segment_store_pending_slot_removal_leaves_no_garbage():
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot * 10, slot * 10 + 5)]) for slot in range(4)])
    for round_ in range(200):
        store.add(1000 + round_, [(3, 4), (13, 14)])
        assert list(store.stab(13)) == [1]  # the staged slot is not in the arrays
        assert _live_stab(store, 13) == {1, 1000 + round_}
        assert store.remove(1000 + round_) == 2
    assert store.rebuilds == 1
    assert not store._dead and not store.staged
    assert list(store.stab(13)) == [1]


@pytest.mark.parametrize("runs", [[(3, 4), (13, 14)], []])
def test_removing_a_staged_slot_never_tombstones_it(runs):
    """``remove`` tells a staged slot from a flattened one by whether the
    pending buffer held an entry for it, not by what the entry holds: a
    staged slot with no runs (an empty, falsy tuple) is dropped outright too.
    Tombstoning a staged slot would leave garbage that only a rebuild clears
    and count against the compaction share."""
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot * 10, slot * 10 + 5)]) for slot in range(4)])
    store.add(9, runs)
    assert 9 in store.staged
    assert store.remove(9) == len(runs)
    assert 9 not in store and 9 not in store.staged and 9 not in store._dead
    assert store._flattened_slots() == 4
    assert store.rebuilds == 1


def test_flat_segment_store_rebuilds_once_per_many_writes():
    """Churn on a table of 64-run slots: one arrival must not flush the buffer.

    32 live slots of 64 runs each, then 1,000 writes alternating an arrival
    with the withdrawal of the oldest slot.  The pending cap is counted in
    slots and compaction waits for a constant share of garbage, so rebuilds
    come at most once per 16 writes (29 here; the cap counted in runs
    rebuilt 83 times), and every stab along the way, with the staged slots
    whose runs hold the key, agrees with the scan-everything oracle.
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
            assert _live_stab(store, key) == _oracle_stab(model, key)
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
            assert _live_stab(store, key) == _oracle_stab(model, key)
        assert 600 in _live_stab(store, top)


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
    if vectorised:
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
    down, and every stab after every step, less its tombstones and with the
    staged slots whose runs hold the key, is the brute-force answer."""
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
                assert _live_stab(store, key) == _oracle_stab(model, key)
    assert all(count > 2 for count in rebuilt_by.values()), rebuilt_by


def test_match_index_counts_the_same_work_with_and_without_numpy(monkeypatch):
    """One seeded script against the product index, once with the array sweep
    and once with every rebuild forced onto the Python sweep (what keys wider
    than 64 bits take): same answers and — because members come out in the
    same order, so ``any_match`` stops at the same candidate — the same
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
    monkeypatch.setattr(FlatSegmentStore, "_sweep_numpy", lambda self: None)
    assert run_script() == with_numpy
    assert with_numpy[2] > 3


# ------------------------------------------------- rent-or-buy staging

def _staged_store(rng, flattened, staged):
    """A store of ``flattened`` bulk-loaded slots with ``staged`` slots staged on top."""
    store = FlatSegmentStore()
    runs_of = {}
    for slot in range(flattened + staged):
        steps = [(rng.randrange(4), rng.randrange(3)) for _ in range(rng.randrange(1, 9))]
        runs_of[slot] = _chained_runs(rng.randrange(60), steps)
    store.add_bulk([(slot, runs_of[slot]) for slot in range(flattened)])
    for slot in range(flattened, flattened + staged):
        store.add(slot, runs_of[slot])
    assert len(store.staged) == staged and store.rebuilds == 1
    assert store.runs == sum(map(len, runs_of.values()))
    return store, runs_of


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tests_per_charge", [1, 3, 7])
def test_charges_pay_for_a_flatten_exactly_at_its_price(seed, tests_per_charge):
    """Charges return False while the rent is short of the price of a flatten
    of every stored run, and True from the charge that reaches it; only a
    rebuild zeroes the rent.  Stabs are the oracle's before and after."""
    store, runs_of = _staged_store(random.Random(seed), 20, 5)
    price = FlatSegmentStore.flatten_price(store.runs)
    assert price == FlatSegmentStore.FLATTEN_TESTS + FlatSegmentStore.RUN_TESTS * store.runs
    charged = 0
    while charged + tests_per_charge < price:
        assert not store.charge(tests_per_charge)
        charged += tests_per_charge
        assert store.rent == charged and store.staged and store.rebuilds == 1
    assert store.charge(tests_per_charge)
    for key in range(0, 110, 3):
        assert _live_stab(store, key) == _oracle_stab(runs_of, key)
    store.rebuild()
    assert store.rent == 0 and not store.staged
    for key in range(0, 110, 3):
        assert set(store.stab(key)) == _oracle_stab(runs_of, key)


def test_a_charge_landing_on_the_price_pays_it(monkeypatch):
    """With whole-test unit costs, ten stored runs price a flatten at exactly
    100 + 10 tests, and the charge that brings the rent to it pays."""
    monkeypatch.setattr(FlatSegmentStore, "FLATTEN_TESTS", 100)
    monkeypatch.setattr(FlatSegmentStore, "RUN_TESTS", 1)
    store = FlatSegmentStore()
    store.add(0, [(10 * i, 10 * i + 5) for i in range(10)])
    assert store.flatten_price(store.runs) == 110
    assert not store.charge(109)
    assert store.charge(1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("staged", [1, 4, 9])
def test_probes_flatten_the_match_index_once_their_staged_tests_reach_the_price(seed, staged):
    """A pinned match index (its grid cannot step) with slots staged: each
    probe tests, and charges, every staged slot, and the probe whose charge
    reaches the price of a flatten makes it, after answering like a scan."""
    from repro.index.config import IndexConfig
    from repro.pubsub.match_index import MatchIndex
    from repro.pubsub.subscription import Subscription
    from repro.workloads.scenarios import stock_market_scenario

    scenario = stock_market_scenario(num_subscriptions=30 + staged, num_events=40, seed=seed)
    schema = scenario.schema
    ranges = [Subscription(schema, c).ranges for c in scenario.subscriptions]
    index = MatchIndex(schema, config=IndexConfig(precision_bits=2))
    index.add_batch(list(enumerate(ranges[:30])))
    for number in range(30, 30 + staged):
        index.add(number, ranges[number])
    flat = index._flat
    assert len(flat.staged) == staged and flat.rebuilds == 1
    price = FlatSegmentStore.flatten_price(flat.runs)
    paying_probe = -(-price // staged)  # the first probe whose charges reach it
    events = [schema.quantize_event(event) for event in scenario.events]
    for probe in range(1, int(paying_probe) + 1):
        cells = events[probe % len(events)]
        expected = [
            number
            for number, rect in enumerate(ranges)
            if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
        ]
        assert len(flat.staged) == staged
        rejections = index.staged_rejections
        assert index.matching_ids(cells) == expected
        assert flat.rent == (0 if probe == paying_probe else probe * staged)
        # The staged tests that rejected are counted apart from the stab's.
        staged_matches = sum(number >= 30 for number in expected)
        assert index.staged_rejections - rejections == staged - staged_matches
    assert (flat.rebuilds, index.stats.probe_flattens, index.precision_bits) == (2, 1, 2)
    assert not flat.staged
    for cells in events:
        expected = {
            number
            for number, rect in enumerate(ranges)
            if all(lo <= cell <= hi for (lo, hi), cell in zip(rect, cells))
        }
        assert set(index.matching_ids(cells)) == expected


def test_a_write_only_sequence_rebuilds_where_the_write_ceiling_does():
    """Without probes nothing is charged, so a seeded walk of adds and removes
    rebuilds exactly where the write-side rules say: an add once more than
    ``PENDING_SLOTS`` + 1/``PENDING_SHARE`` of the flattened slots are
    staged, a removal once tombstones outnumber the live flattened slots."""
    rng = random.Random(9)
    store = FlatSegmentStore()
    live = {}
    staged, flattened, dead = 0, 0, 0  # the ceiling's own bookkeeping
    next_slot = 0
    for _ in range(2_000):
        before = store.rebuilds
        if live and rng.random() < 0.4:
            slot = rng.choice(list(live))
            was_staged = slot in store.staged
            store.remove(slot)
            del live[slot]
            if was_staged:
                staged -= 1
                rebuild = False
            else:
                dead += 1
                rebuild = dead * 2 > flattened
        else:
            live[next_slot] = [(next_slot, next_slot + rng.randrange(5))]
            store.add(next_slot, live[next_slot])
            next_slot += 1
            staged += 1
            rebuild = staged > FlatSegmentStore.PENDING_SLOTS + flattened // FlatSegmentStore.PENDING_SHARE
        if rebuild:
            staged, flattened, dead = 0, len(live), 0
        assert store.rebuilds - before == rebuild and len(store.staged) == staged
        assert store.rent == 0
    assert store.rebuilds > 20
