"""The one file of the benchmark that imports the program under test.

Pinned public surface (anything else ``repro`` exports may change freely
without touching the benchmark; a change to one of these needs this file,
and only this file, updated):

* ``BrokerNetwork.from_topology(schema, edges, covering=, matching=, config=,
  transport=, seed=, nodes=, metrics=)``, and on the network: ``subscribe``,
  ``subscribe_batch``, ``unsubscribe``, ``publish``, ``flush``,
  ``expected_recipients``, ``routing_table_entries``,
  ``subscription_messages``, ``scrape``;
* ``IndexConfig``, ``Subscription``, ``Event``, ``MetricsRegistry`` (an
  enabled registry is handed to every network so that ``scrape()`` renders
  the counters; the registry is only touched at scrape time, never per op);
* the three scenario builders ``stock_market_scenario``,
  ``sensor_network_scenario``, ``auction_scenario``;
* ``tree_topology`` / ``chain_topology`` / ``grid_cluster_topology``;
* ``SimTransport``, ``NetTransport`` (``SyncTransport`` is the network's
  default and is never named).

Every network is built the way the README presents the product:
``covering="approximate", matching="sfc", config=IndexConfig()`` — index
knobs go through the config object only, no per-knob keyword sugar — with no
tuner attached and the default ``flat`` backend.

Two things here reach below that surface, both read-only and both degrading
to ``None`` rather than failing when the program changes shape:

* :func:`layer_counters` reads the layers' own stats objects;
* :func:`trace_targets` names the entry points the traced pass wraps.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional

_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.index import IndexConfig  # noqa: E402
from repro.net import NetTransport  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.pubsub import BrokerNetwork, Event, Subscription  # noqa: E402
from repro.pubsub.network import chain_topology, tree_topology  # noqa: E402
from repro.sim import SimTransport  # noqa: E402
from repro.workloads import (  # noqa: E402
    auction_scenario,
    grid_cluster_topology,
    sensor_network_scenario,
    stock_market_scenario,
)

from .tracing import Target  # noqa: E402

__all__ = [
    "System",
    "open_system",
    "broker_ids",
    "make_scenario",
    "make_subscription",
    "make_event",
    "layer_counters",
    "trace_targets",
    "library_versions",
]

_SCENARIOS = {
    "stock": stock_market_scenario,
    "sensor": sensor_network_scenario,
    "auction": auction_scenario,
}

#: Simulated per-link delays of the ``sim`` transport (seconds of simulated time).
SIM_LAN_DELAY = 0.01
SIM_WAN_DELAY = 0.1


def make_scenario(kind: str, num_subscriptions: int, num_events: int, seed: int):
    """Schema plus seeded subscription constraints and event values."""
    return _SCENARIOS[kind](
        num_subscriptions=num_subscriptions, num_events=num_events, seed=seed
    )


def make_subscription(schema, constraints, sub_id: Hashable):
    return Subscription(schema, constraints, sub_id=sub_id)


def make_event(schema, values, event_id: Hashable):
    return Event(schema, values, event_id=event_id)


class System:
    """One running broker network plus what is needed to shut it down."""

    def __init__(self, network, transport) -> None:
        self.network = network
        self._transport = transport

    def close(self) -> None:
        """Stop the transport's servers and loop thread (net only)."""
        close = getattr(self._transport, "close", None)
        if close is not None:
            close()


def _overlay(overlay: str):
    """``(edges, nodes, region topology or None)`` of a named overlay."""
    if overlay == "tree7":
        return tree_topology(7), None, None
    if overlay == "chain3":
        return chain_topology(3), None, None
    if overlay == "grid12":
        topology = grid_cluster_topology(2, 2, 3)
        return topology.overlay, topology.broker_ids, topology
    raise ValueError(f"unknown overlay {overlay!r}")


def broker_ids(overlay: str) -> List[Hashable]:
    """The overlay's brokers in a fixed order (what seeded choices index into)."""
    edges, nodes, _ = _overlay(overlay)
    return sorted({broker for edge in edges for broker in edge} | set(nodes or ()), key=str)


def open_system(overlay: str, transport: str, schema, seed: int) -> System:
    """Build an empty network on a named overlay and transport.

    The caller owns the result and must call :meth:`System.close` in a
    ``finally``: the net transport holds sockets and a loop thread.
    """
    edges, nodes, topology = _overlay(overlay)
    if transport == "sync":
        carrier = None
    elif transport == "sim":
        if topology is None:
            raise ValueError("the sim transport is priced from a region topology")
        carrier = SimTransport(
            topology.latency_model(lan=SIM_LAN_DELAY, wan=SIM_WAN_DELAY), seed=seed
        )
    elif transport == "net":
        carrier = NetTransport()
    else:
        raise ValueError(f"unknown transport {transport!r}")
    try:
        network = BrokerNetwork.from_topology(
            schema,
            edges,
            covering="approximate",
            matching="sfc",
            config=IndexConfig(),
            transport=carrier,
            seed=seed,
            nodes=nodes,
            metrics=MetricsRegistry(),
        )
    except BaseException:
        System(None, carrier).close()
        raise
    return System(network, carrier)


def library_versions() -> Dict[str, Optional[str]]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"numpy": numpy_version}


# ------------------------------------------------------------------ counters
def _read(getter: Callable[[], float]) -> Optional[float]:
    """A counter read off a stats object, ``None`` once the field is gone."""
    try:
        return getter()
    except (AttributeError, KeyError, TypeError, IndexError):
        return None


def _sum_over(items, getter: Callable[[object], float]) -> Optional[float]:
    return _read(lambda: sum(getter(item) for item in items))


def layer_counters(system: System) -> Dict[str, Optional[float]]:
    """Cumulative counters and gauges the layers keep about themselves."""
    network = system.network
    brokers = list(network.brokers.values())
    transport = network.transport

    def tables():
        for broker in brokers:
            yield from broker.routing_table.interface_tables().values()

    def match_stat(field: str) -> Optional[float]:
        return _sum_over(
            [t for t in tables() if t.match_index is not None],
            lambda table: getattr(table.match_stats(), field),
        )

    def broker_stat(field: str) -> Optional[float]:
        return _sum_over(brokers, lambda broker: getattr(broker.stats, field))

    def total(*values: Optional[float]) -> Optional[float]:
        return None if None in values else sum(values)

    def sim_only(getter: Callable[[], float]) -> Optional[float]:
        # Every transport has a stats object; only the simulated one has a kernel.
        return _read(getter) if hasattr(transport, "kernel") else None

    cache_hits = _read(lambda: network.profile_cache.hits)
    cache_misses = _read(lambda: network.profile_cache.misses)
    suppressed = broker_stat("subscriptions_suppressed")
    forwarded = broker_stat("subscriptions_forwarded")
    return {
        "routing_entries": _read(network.routing_table_entries),
        "subscription_messages": _read(lambda: network.subscription_messages),
        "index.segments": _sum_over(brokers, lambda b: b.routing_table.match_segments()),
        "match_index.candidates_checked": _read(lambda: match_stat("candidates_checked")),
        "match_index.false_positives": _read(lambda: match_stat("false_positives")),
        "match_index.runs_stored": _read(lambda: match_stat("runs_stored")),
        "subscription_store.profile_cache_hits": cache_hits,
        "subscription_store.profile_cache_lookups": total(cache_hits, cache_misses),
        "broker.match_tests": broker_stat("match_tests"),
        "broker.promotions": broker_stat("promotions"),
        "broker.suppressed": suppressed,
        # One forwarding decision per (subscription, link): suppressed or sent.
        "broker.decisions": total(suppressed, forwarded),
        "network.deliveries": _read(lambda: len(network.deliveries)),
        "sim.kernel_steps": sim_only(lambda: transport.kernel.executed),
        "sim.backpressure_retries": sim_only(lambda: transport.stats.backpressure_retries),
        "sim.max_queue_depth": sim_only(lambda: transport.stats.max_queue_depth),
        "sim.sim_latency_p99": sim_only(
            lambda: transport.stats.latency_percentiles((99,))["p99"]
        ),
        "net.frames_sent": _read(lambda: transport._frames_sent),
        "net.frames_lost": _read(lambda: transport._frames_lost),
        "net.protocol_errors": _read(lambda: transport.protocol_errors),
    }


# ------------------------------------------------------------- trace targets
def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _member(owner, name: str):
    return getattr(owner, name, None) if owner is not None else None


def _covered(result) -> int:
    return 1 if getattr(result, "covering_id", None) is not None else 0


def trace_targets() -> List[Target]:
    """Entry points the traced pass wraps, as ``(span name, owner, attribute)``.

    Several targets may share a span name (``key`` and ``keys`` are both
    ``sfc.key``).  ``geometry`` is deliberately absent: its constructors run
    ~10^6 times per workload and would drown the trace; their time stays
    folded into the caller's self time.
    """
    sfc_base = _module("repro.sfc.base")
    covering = _module("repro.core.covering")
    dominance = _module("repro.core.approx_dominance")
    match_index = _module("repro.pubsub.match_index")
    routing = _module("repro.pubsub.routing_table")
    store = _module("repro.pubsub.subscription_store")
    broker = _module("repro.pubsub.broker")
    network = _module("repro.pubsub.network")
    sim = _module("repro.sim.transport")
    net = _module("repro.net.net_transport")
    protocol = _module("repro.net.protocol")
    flat = _member(_module("repro.index.sfc_array"), "FlatSegmentStore")
    curves = [
        _member(_module("repro.sfc.zorder"), "ZOrderCurve"),
        _member(_module("repro.sfc.hilbert"), "HilbertCurve"),
        _member(_module("repro.sfc.gray"), "GrayCodeCurve"),
    ]
    curve_base = _member(sfc_base, "SpaceFillingCurve")
    detector = _member(covering, "ApproximateCoveringDetector")
    matcher = _member(match_index, "MatchIndex")
    interface_table = _member(routing, "InterfaceTable")
    broker_cls = _member(broker, "Broker")
    network_cls = _member(network, "BrokerNetwork")
    sim_cls = _member(sim, "SimTransport")
    net_cls = _member(net, "NetTransport")

    targets: List[Target] = []
    for curve in curves:
        targets.append(Target("sfc.key", curve, "key"))
        targets.append(Target("sfc.key", curve, "keys"))
    targets += [
        Target("sfc.cube_key_ranges", curve_base, "cube_key_ranges"),
        # decompose_rectangle is imported by name into the match index: wrap
        # it where it is used.
        Target(
            "core.decomposition", match_index, "decompose_rectangle",
            measure=len, counter="core.decomposition.cubes_out",
        ),
        Target(
            "core.covering.check", detector, "find_covering",
            measure=_covered, counter="core.covering.hits",
        ),
        Target(
            "core.covering.check", detector, "find_covering_profile",
            measure=_covered, counter="core.covering.hits",
        ),
        # CoveringProfiler.profile already spans the build_dominance_plan call
        # it makes; the second target is the dominance index's own use site,
        # reached only when a check runs without a shared profile.
        Target("core.covering.plan_build", _member(covering, "CoveringProfiler"), "profile"),
        Target("core.covering.plan_build", dominance, "build_dominance_plan"),
        Target("index.add", flat, "add"),
        Target("index.add", flat, "add_bulk"),
        Target("index.remove", flat, "remove"),
        Target("index.rebuild", flat, "rebuild"),
        Target("index.stab", flat, "stab", drain=True),
        Target("match_index.add", matcher, "add"),
        Target("match_index.add", matcher, "add_batch"),
        Target("match_index.remove", matcher, "remove"),
        Target("match_index.query", matcher, "any_match"),
        Target("match_index.query", matcher, "matching_ids"),
        Target("routing_table.add", interface_table, "add"),
        Target("routing_table.remove", interface_table, "remove"),
        Target(
            "routing_table.matching_interfaces",
            _member(routing, "RoutingTable"), "matching_interfaces",
        ),
        Target("subscription_store.acquire", _member(store, "SubscriptionStore"), "acquire"),
        Target("broker.receive_subscription", broker_cls, "receive_subscription"),
        Target("broker.receive_subscription", broker_cls, "receive_subscription_batch"),
        Target("broker.receive_unsubscription", broker_cls, "receive_unsubscription"),
        Target("broker.receive_unsubscription", broker_cls, "receive_unsubscription_batch"),
        Target("broker.receive_event", broker_cls, "receive_event"),
        Target("network.subscribe", network_cls, "subscribe"),
        Target("network.unsubscribe", network_cls, "unsubscribe"),
        Target("network.publish", network_cls, "publish"),
        Target("network.flush", network_cls, "flush"),
        Target("sim.send", sim_cls, "send"),
        Target("sim.flush", sim_cls, "flush"),
        Target("net.send", net_cls, "send"),
        Target("net.flush", net_cls, "flush"),
        Target("net.encode", net, "encode_frame", measure=len, counter="net.bytes_sent"),
        Target("net.encode", net, "encode_payload"),
        Target("net.decode", _member(protocol, "FrameDecoder"), "feed"),
        Target("net.decode", net, "decode_payload"),
    ]
    return targets
