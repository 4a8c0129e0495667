"""The network's message counts are read where the messages are counted.

``BrokerNetwork.event_messages`` is the brokers' ``events_forwarded``,
``subscription_messages`` their ``subscriptions_forwarded`` plus
``subscriptions_resynced``, and ``unsubscription_messages`` the rest of what
the transport was handed (``stats.messages_sent``).  Pinned here against a
spy on the transport's ``send`` that counts every message by kind, after
every step of lockstep scripts with joins, crashes and recoveries, on the
synchronous, simulated and networked transports.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.net import NetTransport
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.sim.latency import UniformJitterLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import (
    rolling_failures_script,
    run_scripted_lockstep,
    subscription_churn_script,
)
from repro.workloads.scenarios import stock_market_scenario

NUM_BROKERS = 5
BROKER_IDS = list(range(NUM_BROKERS))


def scripts(scenario):
    return {
        "churn-and-join": subscription_churn_script(
            scenario, BROKER_IDS, join_broker=NUM_BROKERS, seed=3
        ),
        "crash-and-recover": rolling_failures_script(
            scenario, BROKER_IDS, crash_ids=[1, 3], seed=6
        ),
    }


def make_transport(kind):
    if kind == "sim":
        return SimTransport(UniformJitterLatency(0.05, 0.2), seed=5)
    if kind == "net":
        return NetTransport()
    return None


@pytest.mark.parametrize("script_name", ["churn-and-join", "crash-and-recover"])
@pytest.mark.parametrize("transport_kind", ["sync", "sim", "net"])
def test_message_counts_equal_the_messages_sent_by_kind(transport_kind, script_name):
    scenario = stock_market_scenario(num_subscriptions=24, num_events=10, order=8, seed=7)
    script = scripts(scenario)[script_name]
    assert {"crash", "recover"} <= {a.kind for a in script} or any(
        a.kind == "join" for a in script
    )
    network = BrokerNetwork.from_topology(
        scenario.schema, tree_topology(NUM_BROKERS), transport=make_transport(transport_kind)
    )
    transport = network.transport
    sent = Counter()
    send = transport.send

    def counting_send(kind, sender, receiver, payload):
        sent[kind] += 1
        send(kind, sender, receiver, payload)

    # Brokers look ``send`` up on the transport at every message.
    transport.send = counting_send
    try:
        for action in script:
            run_scripted_lockstep(network, [action])
            counts = {
                "event": network.event_messages,
                "subscription": network.subscription_messages,
                "unsubscription": network.unsubscription_messages,
            }
            assert counts == {kind: sent[kind] for kind in counts}, action.kind
            assert sum(sent.values()) == transport.stats.messages_sent
    finally:
        if transport_kind == "net":
            transport.close()
    assert min(sent.values()) > 0 and len(sent) == 3
