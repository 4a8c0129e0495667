"""A broker link's covering check: one exact scan of the set the link forwarded.

``Broker._covering_check`` compares an arrival with the subscriptions
forwarded on the link, in forwarding order, and stops at the first cover
(:func:`~repro.geometry.transform.first_covering`).  ``covering="approximate"``
runs that scan; ``"none"`` forwards everything.  Pinned here:

* **Per decision** — on random subscribe / batch / withdraw / crash / recover
  scripts, under every covering kind, on sync and on sim: every witness is
  what :class:`~repro.baselines.linear_scan.LinearScanCoveringDetector` finds
  over the link's forwarded set at that moment, and after every step each
  suppressed subscription's recorded cover is forwarded on its link, is still
  held by the broker (live network-wide while every broker is up) and covers
  it.
* **The paper's detector is off the routing path** — a lifecycle script with
  promotions runs clean with the covering profiler and the dominance index's
  plan execution patched to raise.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.linear_scan import LinearScanCoveringDetector
from repro.core.approx_dominance import ApproximateDominanceIndex
from repro.core.covering import CoveringProfiler
from repro.geometry.transform import ranges_cover
from repro.pubsub.broker import Broker
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import COVERING_KINDS
from repro.pubsub.subscription import Event
from repro.sim.latency import FixedLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import Action, run_scripted_lockstep
from test_covering_properties import MAX_CELL, SCHEMA, quantised_rect, rect_subscription

NUM_BROKERS = 7


def tree_network(schema, covering, transport_kind, brokers=NUM_BROKERS):
    return BrokerNetwork.from_topology(
        schema,
        tree_topology(brokers),
        covering=covering,
        transport=SimTransport(FixedLatency(0.05), seed=5) if transport_kind == "sim" else None,
    )


def random_lifecycle_script(subscriptions, seed, brokers=NUM_BROKERS):
    """Subscribe / batch / withdraw / crash / recover steps in a seeded random order."""
    rng = random.Random(seed)
    pending = list(subscriptions)
    rng.shuffle(pending)
    live = []
    down = None
    actions = []

    def emit(kind, **fields):
        actions.append(Action(time=float(len(actions)), kind=kind, **fields))

    while pending or len(live) > 4:
        roll = rng.random()
        if pending and roll < 0.35:
            sub = pending.pop()
            live.append(sub)
            emit(
                "subscribe",
                broker_id=rng.randrange(brokers),
                client_id=f"c-{sub.sub_id}",
                subscription=sub,
            )
        elif len(pending) >= 3 and roll < 0.5:
            batch = [pending.pop() for _ in range(3)]
            live.extend(batch)
            emit(
                "subscribe_batch",
                broker_id=rng.randrange(brokers),
                items=tuple((f"c-{sub.sub_id}", sub) for sub in batch),
            )
        elif live and roll < 0.7:
            sub = live.pop(rng.randrange(len(live)))
            emit("unsubscribe", client_id=f"c-{sub.sub_id}", sub_id=sub.sub_id)
        elif len(live) >= 3 and roll < 0.8:
            batch = [live.pop(rng.randrange(len(live))) for _ in range(3)]
            emit(
                "unsubscribe_batch",
                items=tuple((f"c-{sub.sub_id}", sub.sub_id) for sub in batch),
            )
        elif down is None and roll < 0.9:
            down = rng.randrange(brokers)
            emit("crash", broker_id=down)
        elif down is not None:
            emit("recover", broker_id=down)
            down = None
    if down is not None:
        emit("recover", broker_id=down)
    return actions


# ------------------------------------------------------- (i) every decision
@st.composite
def link_script(draw):
    """Random subscribe / batch / withdraw / crash / recover steps on a 5-broker tree."""
    rects = draw(st.lists(quantised_rect(), min_size=3, max_size=14))
    subscriptions = [rect_subscription(ranges, f"s{i}") for i, ranges in enumerate(rects)]
    seed = draw(st.integers(0, 2**16))
    return random_lifecycle_script(subscriptions, seed, brokers=5)


def assert_suppressions_sound(network):
    """Each recorded cover is forwarded on its link, held by the broker, and covers."""
    everyone_up = all(network.transport.is_up(b) for b in network.brokers)
    for broker in network.brokers.values():
        held = {
            sub_id
            for table in broker.routing_table.interface_tables().values()
            for sub_id in (sub.sub_id for sub in table.subscriptions())
        }
        for neighbor_id, link in broker._links.items():
            assert set(link.forwarded) <= held
            # The box map the covering check scans is the forwarded set's,
            # in the same order, holding each subscription's own box.
            assert list(link.boxes) == list(link.forwarded)
            for sub_id, subscription in link.forwarded.items():
                assert link.boxes[sub_id] is subscription.box
            for sub_id, (subscription, cover_id) in link.suppressed.items():
                cover = link.forwarded.get(cover_id)
                assert cover is not None, (broker.broker_id, neighbor_id, sub_id, cover_id)
                assert ranges_cover(cover.ranges, subscription.ranges)
                if everyone_up:
                    assert network.subscription_home(cover_id) is not None


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
@pytest.mark.parametrize("covering", COVERING_KINDS)
@given(script=link_script())
def test_every_witness_is_the_first_forwarded_cover(covering, transport_kind, script):
    check = Broker._covering_check

    def scan_checked(broker, link, subscription):
        scan = LinearScanCoveringDetector(SCHEMA.num_attributes, SCHEMA.order)
        for sub_id, forwarded in link.forwarded.items():
            scan.add_subscription(sub_id, forwarded.ranges)
        witness = check(broker, link, subscription)
        assert witness == (None if covering == "none" else scan.find_covering(subscription.ranges))
        return witness

    network = tree_network(SCHEMA, covering, transport_kind, brokers=5)
    with patch.object(Broker, "_covering_check", scan_checked):
        for action in script:
            run_scripted_lockstep(network, [action])
            assert_suppressions_sound(network)
    if covering == "none":
        assert not any(link.suppressed for b in network.brokers.values() for link in b._links.values())


# -------------------------------------------- (ii) the ε-search is not called
def _off_the_routing_path(*args, **kwargs):
    raise AssertionError("the paper's covering detector ran on the routing path")


@pytest.mark.parametrize("transport_kind", ["sync", "sim"])
def test_lifecycle_runs_without_the_epsilon_search(transport_kind):
    """Wide subscriptions over narrow ones, the wide ones withdrawn first: promotions
    run, audits stay clean, and no profile or plan execution is asked for."""
    rng = random.Random(5)
    network = tree_network(SCHEMA, "approximate", transport_kind)
    with patch.object(CoveringProfiler, "profile", _off_the_routing_path), patch.object(
        ApproximateDominanceIndex, "execute_plan", _off_the_routing_path
    ):
        for i in range(48):
            if i % 6 == 0:
                lo_x, lo_y = rng.randrange(8), rng.randrange(8)
                ranges = ((lo_x, lo_x + 40 + rng.randrange(16)), (lo_y, lo_y + 40 + rng.randrange(16)))
            else:
                lo_x, lo_y = rng.randrange(10, 40), rng.randrange(10, 40)
                ranges = ((lo_x, lo_x + rng.randrange(1, 8)), (lo_y, lo_y + rng.randrange(1, 8)))
            network.subscribe(rng.randrange(NUM_BROKERS), f"c{i}", rect_subscription(ranges, f"s{i}"))
            network.flush()
        for i in sorted(range(48), key=lambda i: (i % 6 != 0, rng.random()))[:30]:
            network.unsubscribe(f"c{i}", f"s{i}")
            network.flush()
            event = Event(
                SCHEMA,
                {"x": float(rng.randrange(MAX_CELL)), "y": float(rng.randrange(MAX_CELL))},
                event_id=f"e{i}",
            )
            assert network.publish_and_audit(rng.randrange(NUM_BROKERS), event) == (set(), set())
    assert sum(b.stats.promotions for b in network.brokers.values()) > 0


def test_a_cover_forwarded_again_is_scanned_last():
    """A withdrawn id subscribed again is forwarded at the end of the link's set,
    so an older cover is the witness, as in ``LinearScanCoveringDetector``."""
    network = tree_network(SCHEMA, "approximate", "sync", brokers=2)
    link = network.brokers[0]._links[1]
    left = rect_subscription(((0, 40), (0, MAX_CELL)), "left")
    right = rect_subscription(((20, MAX_CELL), (0, MAX_CELL)), "right")
    network.subscribe(0, "cl", left)
    network.subscribe(0, "cr", right)
    network.subscribe(0, "c1", rect_subscription(((25, 30), (5, 9)), "n1"))
    assert link.suppressed["n1"][1] == "left"
    network.unsubscribe("cl", "left")  # n1 is re-homed under right, not promoted
    network.subscribe(0, "cl", left)
    assert list(link.forwarded) == ["right", "left"]
    assert link.suppressed["n1"][1] == "right"
    network.subscribe(0, "c2", rect_subscription(((25, 30), (10, 19)), "n2"))
    assert link.suppressed["n2"][1] == "right"
    assert network.brokers[0].stats.promotions == 0
