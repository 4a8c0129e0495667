"""Differential test: ``SimTransport`` + ``EventKernel`` against the frozen path.

``reference_transport.py`` holds the simulated transport as it stood before
it kept one record per inbox and per link (a ``Message`` per message, every
push through ``schedule_at`` / ``schedule``, generation numbers as the crash
fence).  Both are driven by the same random program of sends, crashes,
recoveries, joins and bounded or unbounded kernel runs, over a stub network
whose handler forwards a message along the route its payload names (so sends
nest inside deliveries and carry hop counts).  After every operation the two
must agree on the delivery order and times, the hop context of every
delivery, the traced hop observations, ``kernel.executed``, ``kernel.now``,
the pending steps and every ``TransportStats`` field.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference_transport import ReferenceKernel, ReferenceSimTransport
from repro.sim import (
    EventKernel,
    FixedLatency,
    RegionLatency,
    SimTransport,
    TransportStats,
    UniformJitterLatency,
)


class RouteNetwork:
    """A stub network: logs each delivery and forwards along the payload's route."""

    def __init__(self, transport, traced: bool) -> None:
        self.deliveries = []
        self.tracing = SimpleNamespace(enabled=traced)
        self.log = []
        self.transport = transport
        transport.bind(self)

    def _observe_arrival(self, sender, receiver, payload, hops, sent_at, latency):
        self.log.append(("hop", sender, receiver, payload, hops, sent_at, latency))

    def _dispatch(self, kind, sender, receiver, payload):
        transport = self.transport
        self.log.append((kind, sender, receiver, payload, transport.now, transport._hops))
        tag, route = payload
        for step, target in enumerate(route[:2]):
            # The first forward carries the rest of the route, the second ends.
            rest = route[2:] if step == 0 else ()
            transport.send(kind, receiver, target, (tag, rest))


def snapshot(transport, network):
    kernel = transport.kernel
    stats = {
        f.name: (
            list(value) if not isinstance(value, (int, float, dict)) else value
        )
        for f in dataclasses.fields(TransportStats)
        if f.compare
        for value in [getattr(transport.stats, f.name)]
    }
    return {
        "log": list(network.log),
        "executed": kernel.executed,
        "now": kernel.now,
        "pending": kernel.pending,
        "stats": stats,
    }


INITIAL_BROKERS = 3

latencies = st.one_of(
    st.builds(FixedLatency, st.sampled_from([0.0, 0.1, 0.5])),
    st.builds(
        UniformJitterLatency,
        st.sampled_from([0.0, 0.05, 0.2]),
        st.sampled_from([0.0, 0.1, 0.6]),
    ),
    st.builds(
        lambda lan, wan, jitter: RegionLatency(
            {b: b % 2 for b in range(INITIAL_BROKERS - 1)}, lan=lan, wan=wan, jitter=jitter
        ),
        st.sampled_from([0.0, 0.05]),
        st.sampled_from([0.2, 0.5]),
        st.sampled_from([0.0, 0.1]),
    ),
)

brokers = st.integers(0, 7)
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"),
            st.sampled_from(["event", "subscription", "unsubscription"]),
            brokers,
            brokers,
            st.lists(brokers, max_size=4).map(tuple),
        ),
        st.tuples(
            st.just("burst"),
            st.sampled_from(["event", "subscription"]),
            brokers,
            brokers,
            st.integers(2, 6),
        ),
        st.tuples(st.just("toggle"), brokers),
        st.tuples(st.just("bounce"), brokers),
        st.tuples(st.just("join")),
        st.tuples(st.just("until"), st.sampled_from([0.0, 0.05, 0.2, 0.7])),
        st.tuples(st.just("steps"), st.integers(1, 12)),
        st.tuples(st.just("flush")),
    ),
    max_size=50,
)


def apply(operation, transport, pool, tag):
    """Run one drawn operation; broker numbers index the current broker pool."""
    name = operation[0]
    if name == "send":
        _, kind, sender, receiver, route = operation
        pick = lambda b: pool[b % len(pool)]  # noqa: E731
        transport.send(
            kind, pick(sender), pick(receiver), (tag, tuple(pick(b) for b in route))
        )
    elif name == "burst":
        # Several messages on one link at one instant: backpressure.
        _, kind, sender, receiver, count = operation
        for _ in range(count):
            transport.send(kind, pool[sender % len(pool)], pool[receiver % len(pool)], (tag, ()))
    elif name == "toggle":
        broker = pool[operation[1] % len(pool)]
        if transport.is_up(broker):
            transport.mark_down(broker)
        else:
            transport.mark_up(broker)
    elif name == "bounce":
        # A crash and a recovery at one instant, with its steps still pending.
        broker = pool[operation[1] % len(pool)]
        if transport.is_up(broker):
            transport.mark_down(broker)
            transport.mark_up(broker)
    elif name == "join":
        # A broker the transport has never seen; later sends may address it.
        pool.append(len(pool))
    elif name == "until":
        transport.kernel.run(until=transport.now + operation[1])
    elif name == "steps":
        transport.kernel.run(max_steps=operation[1])
    else:
        transport.flush()


@given(
    latency=latencies,
    capacity=st.integers(1, 3),
    service_time=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**16),
    traced=st.booleans(),
    program=operations,
)
# A crash with a blocked link and a pending retry, then a recovery and a new
# blocked queue on the same link: the old retry must not drain the new one.
@example(
    latency=FixedLatency(0.1),
    capacity=1,
    service_time=0.3,
    seed=1,
    traced=False,
    program=[("burst", "event", 0, 1, 3), ("until", 0.2), ("bounce", 1),
             ("burst", "event", 0, 1, 3), ("steps", 12), ("steps", 12), ("flush",)],
)
# A crash while the inbox drains, a recovery, then a fresh arrival: the old
# drain step must not serve the new inbox.
@example(
    latency=FixedLatency(0.1),
    capacity=3,
    service_time=0.3,
    seed=1,
    traced=True,
    program=[("burst", "event", 0, 1, 3), ("until", 0.15), ("bounce", 1),
             ("send", "event", 0, 1, (2,)), ("flush",)],
)
def test_the_simulated_path_runs_the_frozen_schedule(
    latency, capacity, service_time, seed, traced, program
):
    sides = []
    for cls in (SimTransport, ReferenceSimTransport):
        transport = cls(latency, inbox_capacity=capacity, service_time=service_time, seed=seed)
        sides.append((transport, RouteNetwork(transport, traced), list(range(INITIAL_BROKERS))))
    for step, operation in enumerate(program + [("flush",)]):
        for transport, _network, pool in sides:
            apply(operation, transport, pool, step)
        (new, new_net, _), (old, old_net, _) = sides
        assert snapshot(new, new_net) == snapshot(old, old_net), (step, operation)
    assert new.kernel.pending == 0


@pytest.mark.parametrize("bounded", [False, True])
def test_a_run_counts_its_steps_up_to_a_raising_action(bounded):
    # An unbounded run counts its steps locally and adds them to `executed`
    # when it ends: a raising action must still leave `executed` and `now`
    # where the frozen kernel, which counts step by step, leaves them.
    def boom():
        raise RuntimeError("boom")

    results = []
    for cls in (EventKernel, ReferenceKernel):
        kernel = cls(seed=5)
        seen = []
        for t in (1.0, 2.0, 2.0, 4.0):
            kernel.schedule_at(t, seen.append, t)
        kernel.schedule_at(3.0, boom)
        bounds = {"until": 10.0, "max_steps": 10} if bounded else {}
        with pytest.raises(RuntimeError):
            kernel.run(**bounds)
        first = (kernel.executed, kernel.now, kernel.pending, list(seen))
        steps = kernel.run(**bounds)
        results.append((first, steps, kernel.executed, kernel.now, seen))
    assert results[0] == results[1]
    assert results[0][0] == (4, 3.0, 1, [1.0, 2.0, 2.0])
    assert results[0][1:4] == (1, 5, 10.0 if bounded else 4.0)
