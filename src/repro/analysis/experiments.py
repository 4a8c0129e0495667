"""Experiment drivers: the measurements behind every benchmark and EXPERIMENTS.md.

Each function here runs one of the experiments listed in DESIGN.md's
experiment index and returns a :class:`repro.analysis.reporting.ResultTable`
of rows.  The pytest-benchmark files in ``benchmarks/`` call these drivers (so
that timings and the regenerated tables come from the same code), and the
examples reuse them for human-readable output.

Every driver takes an explicit ``seed`` so results are reproducible, and keeps
problem sizes laptop-scale by default; callers can pass larger sizes when more
fidelity is wanted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..baselines.linear_scan import LinearScanCoveringDetector
from ..baselines.probabilistic import ProbabilisticCoveringDetector
from ..core.approx_dominance import ApproximateDominanceIndex
from ..core.bounds import (
    adversarial_rectangle,
    theorem31_run_bound,
    theorem41_lower_bound,
)
from ..core.covering import ApproximateCoveringDetector
from ..core.decomposition import (
    count_cubes_extremal,
    greedy_decomposition,
    level_census,
    truncation_bits,
)
from ..geometry.rect import ExtremalRectangle, Rectangle
from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..index.kdtree import KDTree
from ..index.range_tree import RangeTree
from ..obs.exposition import snapshot as metrics_snapshot
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceLog
from ..pubsub.network import BrokerNetwork, chain_topology, star_topology, tree_topology
from ..pubsub.schema import Attribute, AttributeSchema
from ..pubsub.subscription import Event, Subscription
from ..sfc.hilbert import HilbertCurve
from ..sfc.runs import RunProfile
from ..sfc.zorder import ZOrderCurve
from ..tuning import recommend_config
from ..workloads.generators import EventWorkload, SubscriptionSpec, SubscriptionWorkload
from .reporting import ResultTable, format_critical_path, format_trace_tree

__all__ = [
    "MetricsScenarioResult",
    "run_metrics_scenario",
    "run_fig1_experiment",
    "run_fig2_experiment",
    "run_thm31_experiment",
    "run_lem32_experiment",
    "run_thm41_experiment",
    "run_approx_vs_exhaustive_experiment",
    "run_recall_experiment",
    "run_pubsub_experiment",
    "run_sim_latency_experiment",
    "run_topology_scale_experiment",
    "run_subscription_churn_experiment",
    "run_event_matching_experiment",
    "run_match_scale_experiment",
    "run_curve_ablation_experiment",
    "run_auto_tuning_experiment",
    "run_dimensionality_experiment",
    "run_throughput_experiment",
]


# --------------------------------------------------------------------------- FIG1
def run_fig1_experiment(order: int = 6) -> ResultTable:
    """FIG1: runs needed for the same rectangle under the Hilbert vs the Z curve.

    The paper's Figure 1 shows an ``Sx × Sy`` rectangle that decomposes into
    two runs on the Hilbert curve and three on the Z curve.  We reproduce the
    canonical instance (the upper half of a quadrant, straddling the vertical
    mid-line) plus a small sweep of similar rectangles.
    """
    table = ResultTable("FIG1: runs per curve for the same rectangle")
    universe = Universe(dims=2, order=order)
    z = ZOrderCurve(universe)
    h = HilbertCurve(universe)
    side = universe.side
    # "figure-1" reproduces the paper's headline numbers exactly: an Sx × Sy
    # rectangle that straddles a standard-cube boundary needs three runs on the
    # Z curve but only two on the Hilbert curve.  The other instances show the
    # same Hilbert ≤ Z tendency on larger regions.
    instances = {
        "figure-1": Rectangle((0, 1), (1, 2)),
        "wide-strip": Rectangle((0, side // 4), (side - 1, side // 2 - 1)),
        "offset-square": Rectangle((side // 4, side // 4), (3 * side // 4 - 1, 3 * side // 4 - 1)),
    }
    for name, rect in instances.items():
        z_runs = z.brute_force_runs(rect)
        h_runs = h.brute_force_runs(rect)
        table.add(
            instance=name,
            width=rect.side_lengths[0],
            height=rect.side_lengths[1],
            z_runs=z_runs,
            hilbert_runs=h_runs,
        )
    return table


# --------------------------------------------------------------------------- FIG2
def run_fig2_experiment(order: int = 9) -> ResultTable:
    """FIG2: the 256×256 vs 257×257 extremal query regions of the paper's Figure 2."""
    table = ResultTable("FIG2: runs for the two example point-dominance queries (Z curve)")
    universe = Universe(dims=2, order=order)
    z = ZOrderCurve(universe)
    for lengths in [(256, 256), (257, 257)]:
        region = ExtremalRectangle(universe, lengths)
        profile = RunProfile.from_cubes(z, greedy_decomposition(region))
        smallest_fraction = (
            profile.run_volumes[-1] / profile.total_volume if profile.run_volumes else 0.0
        )
        table.add(
            region=f"{lengths[0]}x{lengths[1]}",
            cubes=profile.num_cubes,
            runs=profile.num_runs,
            largest_run_fraction=round(profile.largest_run_fraction, 6),
            smallest_run_fraction=round(smallest_fraction, 6),
        )
    return table


# ------------------------------------------------------------------------- THM3.1
def run_thm31_experiment(
    dims: int = 4,
    order: int = 16,
    epsilon: float = 0.05,
    alpha: int = 0,
    side_bit_lengths: Sequence[int] = (6, 8, 10, 12, 14, 16),
) -> ResultTable:
    """THM3.1: approximate-query cost is independent of the query side length.

    For each side bit-length ``b`` we build an all-ones extremal rectangle
    (the worst case of Lemma 3.6) with aspect ratio ``alpha``, count the cubes
    the approximate search would touch (classes down to the ``1 − ε`` coverage
    level), and compare with both the exhaustive cube count and the analytic
    Theorem 3.1 bound.
    """
    table = ResultTable("THM3.1: approximate vs exhaustive cube counts as the region grows")
    universe = Universe(dims=dims, order=order)
    m = truncation_bits(dims, epsilon)
    bound = theorem31_run_bound(dims, alpha, epsilon)
    for bits in side_bit_lengths:
        if bits > order or bits - alpha < 1:
            continue
        long_side = (1 << bits) - 1
        short_side = (1 << (bits - alpha)) - 1
        lengths = tuple([long_side] * (dims - 1) + [short_side])
        region = ExtremalRectangle(universe, lengths)
        census = level_census(region)
        total_volume = region.volume
        target = (1 - epsilon) * total_volume
        approx_cubes = 0
        covered = 0
        for cls in census:
            if covered >= target:
                break
            approx_cubes += cls.num_cubes
            covered = cls.cumulative_volume
        exhaustive_cubes = count_cubes_extremal(region)
        table.add(
            side_bits=bits,
            shortest_side=short_side,
            epsilon=epsilon,
            truncation_bits=m,
            approx_cubes=approx_cubes,
            exhaustive_cubes=exhaustive_cubes,
            theorem31_bound=bound,
            coverage=round(covered / total_volume, 6),
        )
    return table


# ------------------------------------------------------------------------- LEM3.2
def run_lem32_experiment(
    dims: int = 4,
    order: int = 16,
    epsilons: Sequence[float] = (0.2, 0.1, 0.05, 0.01),
    trials: int = 50,
    seed: int = 1,
) -> ResultTable:
    """LEM3.2: measured volume retained by truncation vs the 1 − ε guarantee."""
    from ..workloads.generators import random_extremal_lengths

    table = ResultTable("LEM3.2: volume coverage of the truncated query region")
    universe = Universe(dims=dims, order=order)
    for epsilon in epsilons:
        m = truncation_bits(dims, epsilon)
        worst = 1.0
        total = 0.0
        for trial in range(trials):
            lengths = random_extremal_lengths(dims, order, alpha=0, seed=seed + trial)
            region = ExtremalRectangle(universe, lengths)
            truncated = region.truncated(m)
            fraction = truncated.volume / region.volume
            worst = min(worst, fraction)
            total += fraction
        table.add(
            epsilon=epsilon,
            truncation_bits=m,
            guaranteed_fraction=round(1 - epsilon, 6),
            mean_measured_fraction=round(total / trials, 6),
            worst_measured_fraction=round(worst, 6),
        )
    return table


# ------------------------------------------------------------------------- THM4.1
def run_thm41_experiment(
    dims: int = 2,
    order: int = 14,
    alpha: int = 1,
    gammas: Sequence[int] = (3, 4, 5, 6, 7, 8),
) -> ResultTable:
    """THM4.1: exhaustive run count on the adversarial rectangle vs the lower bound."""
    table = ResultTable("THM4.1: exhaustive cost grows with the shortest side (adversarial family)")
    universe = Universe(dims=dims, order=order)
    z = ZOrderCurve(universe)
    for gamma in gammas:
        if gamma + alpha > order:
            continue
        region = adversarial_rectangle(universe, alpha, gamma)
        shortest = min(region.lengths)
        cubes = greedy_decomposition(region)
        profile = RunProfile.from_cubes(z, cubes)
        bound = theorem41_lower_bound(dims, alpha, shortest)
        table.add(
            gamma=gamma,
            shortest_side=shortest,
            exhaustive_runs=profile.num_runs,
            exhaustive_cubes=profile.num_cubes,
            theorem41_lower_bound=bound,
            approx_bound_eps_0_05=theorem31_run_bound(dims, alpha, 0.05),
        )
    return table


# ----------------------------------------------------------------- approx vs exhaustive
def run_approx_vs_exhaustive_experiment(
    attributes: int = 1,
    order: int = 12,
    num_subscriptions: int = 2_000,
    num_queries: int = 200,
    epsilons: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    width_fraction: float = 0.2,
    seed: int = 3,
) -> ResultTable:
    """E-COST: runs probed and wall-clock per covering query, approximate vs exhaustive."""
    table = ResultTable("E-COST: covering-query cost vs epsilon")
    workload = SubscriptionWorkload(
        attributes=attributes,
        attribute_order=order,
        width_fraction=width_fraction,
        seed=seed,
    )
    stored = workload.generate(num_subscriptions, prefix="stored")
    queries = workload.generate(num_queries, prefix="query")

    detector = ApproximateCoveringDetector(
        attributes=attributes,
        attribute_order=order,
        config=IndexConfig(epsilon=0.05, cube_budget=200_000),
    )
    linear = LinearScanCoveringDetector(attributes, order)
    for spec in stored:
        detector.add_subscription(spec.sub_id, spec.ranges)
        linear.add_subscription(spec.sub_id, spec.ranges)

    truth = {spec.sub_id: linear.find_covering(spec.ranges) is not None for spec in queries}
    covered_queries = sum(1 for v in truth.values() if v)

    for epsilon in epsilons:
        runs_total = 0
        found = 0
        start = time.perf_counter()
        for spec in queries:
            result = detector.find_covering(spec.ranges, epsilon=epsilon)
            runs_total += result.query.runs_probed
            if result.covered:
                found += 1
        elapsed = time.perf_counter() - start
        recall = found / covered_queries if covered_queries else 1.0
        table.add(
            epsilon=epsilon,
            mode="exhaustive" if epsilon == 0.0 else "approximate",
            mean_runs_probed=round(runs_total / num_queries, 2),
            queries_per_second=round(num_queries / elapsed, 1),
            covering_found=found,
            covering_exists=covered_queries,
            recall=round(recall, 4),
        )

    # Linear-scan reference row.
    start = time.perf_counter()
    for spec in queries:
        linear.find_covering(spec.ranges)
    elapsed = time.perf_counter() - start
    table.add(
        epsilon="-",
        mode="linear-scan",
        mean_runs_probed="-",
        queries_per_second=round(num_queries / elapsed, 1),
        covering_found=covered_queries,
        covering_exists=covered_queries,
        recall=1.0,
    )
    return table


# ---------------------------------------------------------------------- recall vs eps
def _mixed_width_workload(
    attributes: int,
    order: int,
    count: int,
    narrow_fraction: float,
    narrow_width: float,
    wide_width: float,
    seed: int,
    prefix: str,
) -> List["SubscriptionSpec"]:
    """Generate a workload mixing narrow subscriptions with a share of wide ones.

    Real routers see both: many specific subscriptions plus a few broad
    "catch-most" ones, and the broad ones are what covering exploits.  The
    returned list is shuffled so that broad and narrow subscriptions arrive
    interleaved — arrival order matters for covering-based suppression.
    """
    import random as _random

    narrow = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=narrow_width, seed=seed
    )
    wide = SubscriptionWorkload(
        attributes=attributes,
        attribute_order=order,
        width_fraction=wide_width,
        width_jitter=0.3,
        seed=seed + 1,
    )
    num_narrow = int(count * narrow_fraction)
    specs = narrow.generate(num_narrow, prefix=f"{prefix}-narrow")
    specs += wide.generate(count - num_narrow, prefix=f"{prefix}-wide")
    _random.Random(seed + 2).shuffle(specs)
    return specs


def run_recall_experiment(
    attributes: int = 2,
    order: int = 10,
    num_subscriptions: int = 600,
    num_queries: int = 60,
    epsilons: Sequence[float] = (0.05, 0.25),
    seed: int = 5,
    cube_budget: int = 100_000,
) -> ResultTable:
    """E-RECALL: fraction of truly-covered queries detected, per strategy and ε.

    Two workload regimes are reported:

    * ``wide-covers`` — the stored set contains a share of broad subscriptions,
      so covers are typically much wider than the query (the regime the paper's
      optimisation targets); recall should stay near 1 for moderate ε.
    * ``narrow-covers`` — stored and query subscriptions have the same width
      distribution, so covering subscriptions are only barely wider and sit in
      the corner of the dominance region that the approximate search visits
      last; recall degrades, quantifying the cost of approximation.
    """
    table = ResultTable("E-RECALL: covering detection recall vs epsilon")
    regimes = {
        "wide-covers": dict(narrow_fraction=0.85, narrow_width=0.12, wide_width=0.55),
        "narrow-covers": dict(narrow_fraction=1.0, narrow_width=0.3, wide_width=0.3),
    }
    query_workload = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=0.12, seed=seed + 7
    )
    queries = query_workload.generate(num_queries, prefix="query")

    for regime, params in regimes.items():
        stored = _mixed_width_workload(
            attributes, order, num_subscriptions, seed=seed, prefix="stored", **params
        )
        linear = LinearScanCoveringDetector(attributes, order)
        probabilistic = ProbabilisticCoveringDetector(attributes, order, samples=8, seed=seed)
        detector = ApproximateCoveringDetector(
            attributes=attributes,
            attribute_order=order,
            config=IndexConfig(epsilon=0.05, cube_budget=cube_budget),
        )
        for spec in stored:
            linear.add_subscription(spec.sub_id, spec.ranges)
            probabilistic.add_subscription(spec.sub_id, spec.ranges)
            detector.add_subscription(spec.sub_id, spec.ranges)

        truly_covered = [s for s in queries if linear.find_covering(s.ranges) is not None]
        uncovered = [s for s in queries if linear.find_covering(s.ranges) is None]
        if not truly_covered:
            table.add(regime=regime, note="no covered queries in this draw")
            continue

        for epsilon in epsilons:
            detected = sum(
                1
                for spec in truly_covered
                if detector.find_covering(spec.ranges, epsilon=epsilon).covered
            )
            table.add(
                regime=regime,
                strategy=f"sfc-approx(ε={epsilon})",
                covered_queries=len(truly_covered),
                detected=detected,
                recall=round(detected / len(truly_covered), 4),
                false_positives=0,
            )
        # Probabilistic baseline: never misses a true cover among evaluated
        # candidates, but may wrongly report covering — count false positives.
        detected = sum(
            1 for spec in truly_covered if probabilistic.find_covering(spec.ranges) is not None
        )
        false_pos = sum(
            1 for spec in uncovered if probabilistic.find_covering(spec.ranges) is not None
        )
        table.add(
            regime=regime,
            strategy="probabilistic(samples=8)",
            covered_queries=len(truly_covered),
            detected=detected,
            recall=round(detected / len(truly_covered), 4),
            false_positives=false_pos,
        )
        table.add(
            regime=regime,
            strategy="linear-scan(exact)",
            covered_queries=len(truly_covered),
            detected=len(truly_covered),
            recall=1.0,
            false_positives=0,
        )
    return table


# -------------------------------------------------------------------------- pub/sub
def _default_schema(order: int) -> AttributeSchema:
    return AttributeSchema(
        [Attribute("x", 0.0, 1000.0), Attribute("y", 0.0, 1000.0)], order=order
    )


def _spec_subscription(schema: AttributeSchema, spec: "SubscriptionSpec") -> Subscription:
    """Materialise one workload spec as a Subscription on ``schema``."""
    constraints = {
        name: (
            schema.dequantize_value(name, lo),
            schema.dequantize_value(name, hi),
        )
        for name, (lo, hi) in zip(schema.names, spec.ranges)
    }
    return Subscription(schema, constraints, sub_id=spec.sub_id)


def _spec_subscriptions(
    schema: AttributeSchema, specs: Sequence["SubscriptionSpec"]
) -> List[Subscription]:
    """Materialise workload specs as Subscription objects on ``schema``."""
    return [_spec_subscription(schema, spec) for spec in specs]


def run_pubsub_experiment(
    num_brokers: int = 7,
    num_subscriptions: int = 150,
    num_events: int = 40,
    order: int = 9,
    epsilon: float = 0.3,
    strategies: Sequence[str] = ("none", "exact", "approximate"),
    seed: int = 9,
    cube_budget: int = 4_000,
    matching: str = "linear",
    curve: str = "zorder",
) -> ResultTable:
    """E-PUBSUB: routing-table size and propagation traffic per covering strategy.

    The workload mixes narrow subscriptions with a share of broad ones (the
    regime covering is designed for); the per-check work of the approximate
    strategy is bounded by ``cube_budget`` like a real router would bound it.
    ``matching`` selects the event-matching implementation of every broker
    (``"linear"`` scan or the ``"sfc"`` match index) and ``curve`` the
    space-filling curve behind both the match index and the approximate
    strategy; the delivery audit runs identically under every combination.
    """
    import random as _random

    table = ResultTable("E-PUBSUB: subscription propagation in a broker tree")
    schema = _default_schema(order)
    specs = _mixed_width_workload(
        attributes=2,
        order=order,
        count=num_subscriptions,
        narrow_fraction=0.8,
        narrow_width=0.15,
        wide_width=0.55,
        seed=seed,
        prefix="sub",
    )
    events_workload = EventWorkload(attributes=2, attribute_order=order, seed=seed + 1)
    event_cells = events_workload.generate(num_events)

    rng = _random.Random(seed + 2)
    placements = [rng.randrange(num_brokers) for _ in specs]
    publish_at = [rng.randrange(num_brokers) for _ in event_cells]

    for strategy in strategies:
        network = BrokerNetwork.from_topology(
            schema,
            tree_topology(num_brokers),
            covering=strategy,
            config=IndexConfig(epsilon=epsilon, cube_budget=cube_budget, curve=curve),
            seed=seed,
            matching=matching,
        )
        start = time.perf_counter()
        for spec, broker_id in zip(specs, placements):
            subscription = _spec_subscription(schema, spec)
            network.subscribe(broker_id, f"client-{spec.sub_id}", subscription)
        propagation_time = time.perf_counter() - start

        events = [
            (
                publish_at[i],
                Event(
                    schema,
                    {
                        name: schema.dequantize_value(name, cell)
                        for name, cell in zip(schema.names, cells)
                    },
                ),
            )
            for i, cells in enumerate(event_cells)
        ]
        stats = network.collect_stats(events)
        covering_work = sum(b.covering_check_runs for b in stats.per_broker.values())
        table.add(
            strategy=strategy if strategy != "approximate" else f"approximate(ε={epsilon})",
            matching=matching,
            curve=curve,
            routing_table_entries=stats.routing_table_entries,
            subscription_messages=stats.subscription_messages,
            suppressed=stats.total_suppressed,
            covering_work_units=covering_work,
            propagation_seconds=round(propagation_time, 4),
            events_missed=stats.events_missed,
        )
    return table


# ------------------------------------------------------------------ observability
@dataclass
class MetricsScenarioResult:
    """Everything the observability layer produces for one seeded scenario.

    ``table`` holds one row per published event (trace id, hop count,
    delivery audit); ``prometheus_text`` / ``snapshot`` are the registry's two
    exposition forms; ``trace_tree`` / ``critical_path`` render the first
    audited event's trace.  ``network`` is the live network for callers that
    want to drill further (tests compare its trace hop paths against the
    overlay routes the delivery audit expects).
    """

    table: ResultTable
    prometheus_text: str
    snapshot: Dict[str, object]
    trace_tree: str
    critical_path: str
    network: BrokerNetwork

    def to_text(self) -> str:
        """Table rendering, so the CLI treats this like any other experiment."""
        return self.table.to_text()


def run_metrics_scenario(
    num_brokers: int = 7,
    num_subscriptions: int = 60,
    num_events: int = 20,
    order: int = 8,
    epsilon: float = 0.3,
    matching: str = "sfc",
    curve: str = "zorder",
    seed: int = 17,
    trace_capacity: int = 4096,
) -> MetricsScenarioResult:
    """E-METRICS: a seeded tree scenario observed through the full obs layer.

    Builds a broker tree on a seeded :class:`~repro.sim.transport.SimTransport`
    with an enabled metrics registry and trace log, runs a mixed-width
    subscription workload plus a publish stream, and returns the Prometheus
    text, the JSON snapshot and per-event trace summaries.  Fully
    deterministic: two calls with the same arguments return byte-identical
    ``prometheus_text`` (pinned by tests).
    """
    import random as _random

    from ..sim.transport import SimTransport

    schema = _default_schema(order)
    specs = _mixed_width_workload(
        attributes=2,
        order=order,
        count=num_subscriptions,
        narrow_fraction=0.8,
        narrow_width=0.15,
        wide_width=0.55,
        seed=seed,
        prefix="sub",
    )
    event_cells = EventWorkload(
        attributes=2, attribute_order=order, seed=seed + 1
    ).generate(num_events)
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(num_brokers),
        covering="approximate",
        config=IndexConfig(epsilon=epsilon, curve=curve),
        seed=seed,
        matching=matching,
        transport=SimTransport(seed=seed),
        metrics=MetricsRegistry(),
        tracing=TraceLog(capacity=trace_capacity, seed=seed),
    )
    rng = _random.Random(seed + 2)
    placements = [rng.randrange(num_brokers) for _ in specs]
    publish_at = [rng.randrange(num_brokers) for _ in event_cells]
    for spec, broker_id in zip(specs, placements):
        network.subscribe(broker_id, f"client-{spec.sub_id}", _spec_subscription(schema, spec))
    network.flush()

    table = ResultTable("E-METRICS: traced event routing on a broker tree")
    for i, cells in enumerate(event_cells):
        event = Event(
            schema,
            {
                name: schema.dequantize_value(name, cell)
                for name, cell in zip(schema.names, cells)
            },
            event_id=f"event-{i}",
        )
        origin = publish_at[i]
        missed, extra = network.publish_and_audit(origin, event)
        expected = network.expected_recipients(event, origin=origin)
        trace_id = network.tracing.trace_id_for("evt", event.event_id)
        table.add(
            event_id=event.event_id,
            origin=origin,
            trace_id=trace_id,
            hops=len(network.tracing.hop_spans(trace_id)),
            delivered=len(expected) - len(missed) + len(extra),
            missed=len(missed),
        )

    prometheus_text = network.scrape()
    first_trace = network.tracing.trace_id_for("evt", "event-0")
    first_spans = network.tracing.spans(trace_id=first_trace)
    return MetricsScenarioResult(
        table=table,
        prometheus_text=prometheus_text,
        snapshot=metrics_snapshot(network.metrics),
        trace_tree=format_trace_tree(first_spans, title="trace event-0"),
        critical_path=format_critical_path(first_spans, title="event-0"),
        network=network,
    )


# --------------------------------------------------------------------- event matching
def run_subscription_churn_experiment(
    sizes: Sequence[int] = (10_000, 50_000),
    num_brokers: int = 15,
    order: int = 8,
    epsilon: float = 0.3,
    cube_budget: int = 200,
    wide_fraction: float = 0.04,
    max_cover_withdrawals: int = 40,
    narrow_withdrawals: int = 200,
    audit_size: Optional[int] = None,
    audit_events: int = 25,
    topologies: Sequence[str] = ("tree", "chain", "star"),
    transports: Sequence[str] = ("sync", "sim"),
    curve: str = "zorder",
    seed: int = 11,
) -> ResultTable:
    """E-SUB-CHURN: batched subscription churn vs sequential calls.

    Two row kinds:

    * ``phase="churn"`` — for each size, the same wide/narrow workload is
      subscribed and then partially withdrawn (a slice of broad covers plus a
      slice of narrow subscriptions, so the withdrawal-promotion path runs
      hard) on a broker tree, once through per-subscription ``subscribe`` /
      ``unsubscribe`` calls and once through ``subscribe_batch`` /
      ``unsubscribe_batch``.  The row reports both arms' phase timings; the
      two runs must leave byte-identical normalised routing state — the
      batch API is pinned to be a pure amortisation — or the driver raises.
    * ``phase="audit"`` — the post-churn delivery audit on every
      (topology × transport) pair: after the batch churn settles, probe
      events published across the overlay must reach exactly the surviving
      matching subscribers (``missed`` must be 0 everywhere; covering may
      only ever *suppress more*, never lose).
    """
    import random as _random

    from ..sim.latency import make_latency_model
    from ..sim.transport import SimTransport

    topology_builders = {
        "tree": tree_topology,
        "chain": chain_topology,
        "star": star_topology,
    }
    table = ResultTable("E-SUB-CHURN: subscription churn, batch vs sequential calls")
    schema = _default_schema(order)

    def build_workload(size: int):
        specs = _mixed_width_workload(
            attributes=2,
            order=order,
            count=size,
            narrow_fraction=1.0 - wide_fraction,
            narrow_width=0.04,
            wide_width=0.4,
            seed=seed,
            prefix=f"churn-{size}",
        )
        subscriptions = _spec_subscriptions(schema, specs)
        rng = _random.Random(seed + 1)
        placement = {
            sub.sub_id: rng.randrange(num_brokers) for sub in subscriptions
        }
        # Per-broker batches in arrival order; the sequential arm replays
        # the same flattened order so covering decisions see identical
        # arrival sequences.
        batches: Dict[int, List[Tuple[str, Subscription]]] = {}
        for sub in subscriptions:
            batches.setdefault(placement[sub.sub_id], []).append(
                (f"client-{sub.sub_id}", sub)
            )
        wides = [s for s in subscriptions if "-wide-" in str(s.sub_id)]
        narrows = [s for s in subscriptions if "-narrow-" in str(s.sub_id)]
        withdrawals = wides[:max_cover_withdrawals] + narrows[:narrow_withdrawals]
        # Group withdrawals by home broker (batch processing order) so the
        # sequential replay withdraws in the same per-link order.
        kill_groups: Dict[int, List[Tuple[str, str]]] = {}
        for sub in withdrawals:
            kill_groups.setdefault(placement[sub.sub_id], []).append(
                (f"client-{sub.sub_id}", sub.sub_id)
            )
        kills = [pair for group in kill_groups.values() for pair in group]
        return batches, kills

    def make_network(topology: str, transport: str):
        if transport == "sim":
            transport_obj = SimTransport(
                make_latency_model("fixed", delay=0.01), seed=seed
            )
        else:
            transport_obj = None
        return BrokerNetwork.from_topology(
            schema,
            topology_builders[topology](num_brokers),
            covering="approximate",
            config=IndexConfig(epsilon=epsilon, cube_budget=cube_budget, curve=curve),
            transport=transport_obj,
        )

    def run_batch(network: BrokerNetwork, batches, kills):
        start = time.perf_counter()
        for broker_id, items in batches.items():
            network.subscribe_batch(broker_id, items)
        subscribe_seconds = time.perf_counter() - start
        start = time.perf_counter()
        network.unsubscribe_batch(kills)
        withdraw_seconds = time.perf_counter() - start
        return subscribe_seconds, withdraw_seconds

    def run_sequential(network: BrokerNetwork, batches, kills):
        start = time.perf_counter()
        for broker_id, items in batches.items():
            for client_id, subscription in items:
                network.subscribe(broker_id, client_id, subscription)
        network.flush()
        subscribe_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for client_id, sub_id in kills:
            network.unsubscribe(client_id, sub_id)
        network.flush()
        withdraw_seconds = time.perf_counter() - start
        return subscribe_seconds, withdraw_seconds

    # ------------------------------------------------------- churn comparison
    for size in sizes:
        batches, kills = build_workload(size)
        sequential = make_network("tree", "sync")
        sequential_subscribe, sequential_withdraw = run_sequential(sequential, batches, kills)
        batch = make_network("tree", "sync")
        batch_subscribe, batch_withdraw = run_batch(batch, batches, kills)
        if sequential.routing_state() != batch.routing_state():
            raise AssertionError(
                f"batch subscribe/withdraw diverged from sequential calls at size {size}"
            )
        stats = batch.collect_stats()
        table.add(
            phase="churn",
            subscriptions=size,
            topology="tree",
            transport="sync",
            withdrawals=len(kills),
            sequential_subscribe_s=round(sequential_subscribe, 3),
            sequential_withdraw_s=round(sequential_withdraw, 3),
            batch_subscribe_s=round(batch_subscribe, 3),
            batch_withdraw_s=round(batch_withdraw, 3),
            promotions=stats.total_promotions,
            batch_covering_checks=stats.total_batch_covering_checks,
            profile_cache_hits=stats.profile_cache_hits,
            profile_cache_misses=stats.profile_cache_misses,
        )

    # ------------------------------------------------------------ audit matrix
    matrix_size = audit_size if audit_size is not None else min(sizes)
    batches, kills = build_workload(matrix_size)
    event_workload = EventWorkload(attributes=2, attribute_order=order, seed=seed + 3)
    events = [
        Event(
            schema,
            {
                name: schema.dequantize_value(name, cell)
                for name, cell in zip(schema.names, cells)
            },
            event_id=f"audit-{i}",
        )
        for i, cells in enumerate(event_workload.generate(audit_events))
    ]
    rng = _random.Random(seed + 4)
    for topology in topologies:
        for transport in transports:
            network = make_network(topology, transport)
            run_batch(network, batches, kills)
            missed_total = extra_total = 0
            for event in events:
                missed, extra = network.publish_and_audit(
                    rng.randrange(num_brokers), event
                )
                missed_total += len(missed)
                extra_total += len(extra)
            table.add(
                phase="audit",
                subscriptions=matrix_size,
                topology=topology,
                transport=transport,
                withdrawals=len(kills),
                missed=missed_total,
                extra=extra_total,
                promotions=network.collect_stats().total_promotions,
            )
    return table


def run_event_matching_experiment(
    table_sizes: Sequence[int] = (100, 1_000),
    num_events: int = 400,
    order: int = 8,
    seed: int = 17,
    backend: str = "avl",
    run_budget: int = 64,
    curve: str = "zorder",
) -> ResultTable:
    """E-MATCH: per-interface event matching, linear scan vs the SFC match index.

    Builds one interface table per matching mode with the same stored
    subscriptions (mostly narrow, a few broad — the per-interface shape a
    loaded broker sees), verifies the two modes agree on every event, then
    times ``any_match`` over the event stream.  The crossover the tentpole
    targets: at ≥ 1,000 stored subscriptions the single ordered-map probe of
    the index beats scanning the table, and the gap widens with table size.
    """
    from ..pubsub.routing_table import InterfaceTable

    table = ResultTable("E-MATCH: event matching, linear scan vs SFC match index")
    schema = _default_schema(order)
    events_workload = EventWorkload(attributes=2, attribute_order=order, seed=seed + 1)
    events = [
        Event(
            schema,
            {
                name: schema.dequantize_value(name, cell)
                for name, cell in zip(schema.names, cells)
            },
        )
        for cells in events_workload.generate(num_events)
    ]

    for size in table_sizes:
        specs = _mixed_width_workload(
            attributes=2,
            order=order,
            count=size,
            narrow_fraction=0.95,
            narrow_width=0.05,
            wide_width=0.3,
            seed=seed,
            prefix=f"match-{size}",
        )
        linear = InterfaceTable("bench", schema=schema, matching="linear")
        sfc = InterfaceTable(
            "bench",
            schema=schema,
            matching="sfc",
            config=IndexConfig(backend=backend, run_budget=run_budget, curve=curve),
        )
        subscriptions = _spec_subscriptions(schema, specs)
        for subscription in subscriptions:
            linear.add(subscription)
        build_start = time.perf_counter()
        for subscription in subscriptions:
            sfc.add(subscription)
        build_seconds = time.perf_counter() - build_start

        disagreements = sum(
            1 for event in events if linear.any_match(event) != sfc.any_match(event)
        )
        if disagreements:
            raise AssertionError(
                f"SFC match index disagrees with linear scan on {disagreements} events"
            )

        start = time.perf_counter()
        for event in events:
            linear.any_match(event)
        linear_seconds = time.perf_counter() - start
        index = sfc.match_index
        assert index is not None
        index.stats.candidates_checked = 0
        index.stats.false_positives = 0
        start = time.perf_counter()
        for event in events:
            sfc.any_match(event)
        sfc_seconds = time.perf_counter() - start

        table.add(
            subscriptions=size,
            events=num_events,
            curve=curve,
            linear_seconds=round(linear_seconds, 5),
            sfc_seconds=round(sfc_seconds, 5),
            speedup=round(linear_seconds / sfc_seconds, 2) if sfc_seconds else float("inf"),
            sfc_build_seconds=round(build_seconds, 4),
            segments=index.segment_count(),
            candidates_checked=index.stats.candidates_checked,
            false_positives=index.stats.false_positives,
        )
    return table


# ---------------------------------------------------------------- curve ablation
def run_curve_ablation_experiment(
    curves: Sequence[str] = ("zorder", "hilbert", "gray"),
    scenario_names: Sequence[str] = ("stock", "sensor", "auction"),
    num_brokers: int = 7,
    num_subscriptions: int = 240,
    num_events: int = 120,
    order: int = 9,
    epsilon: float = 0.2,
    cube_budget: int = 2_000,
    withdraw_fraction: float = 0.5,
    audit_events: int = 12,
    fig1_rectangles: int = 200,
    fig1_order: int = 6,
    seed: int = 31,
) -> ResultTable:
    """E-CURVE: the routing stack under Z-order vs Hilbert vs Gray, end to end.

    Two row kinds:

    * ``phase="routing"`` — for each application scenario × curve, a broker
      tree runs the full lifecycle with SFC matching and approximate covering
      keyed by that curve: batch subscribe (covering path), batch publish
      (matching path), batch withdrawal (churn/promotion path), then a
      delivery audit.  Rows report per-phase throughput plus the structure
      stats where the curve choice shows up — total match-index segments,
      match false positives, covering runs probed.  The driver *asserts* the
      cross-curve differential inline: per-event delivery sets must be
      identical under every curve (curves may change stats, never semantics),
      and no audited event may miss a subscriber.
    * ``phase="runs"`` — the Fig. 1 claim at workload scale: exact run counts
      of a seeded family of 2-D rectangles under each curve (the per-curve
      analogue of ``run_fig1_experiment``'s three hand-picked instances).
      Hilbert is expected to need fewer runs than Z in aggregate.
    """
    import random as _random

    from ..core.decomposition import decompose_rectangle
    from ..sfc.factory import make_curve
    from ..sfc.runs import merge_key_ranges
    from ..workloads.scenarios import (
        auction_scenario,
        sensor_network_scenario,
        stock_market_scenario,
    )

    scenario_factories = {
        "stock": stock_market_scenario,
        "sensor": sensor_network_scenario,
        "auction": auction_scenario,
    }
    table = ResultTable("E-CURVE: matching/covering/churn throughput per space filling curve")

    for scenario_name in scenario_names:
        scenario = scenario_factories[scenario_name](
            num_subscriptions=num_subscriptions,
            num_events=num_events,
            order=order,
            seed=seed,
        )
        schema = scenario.schema
        subscriptions = [
            Subscription(schema, constraints, sub_id=f"{scenario_name}-sub-{i}")
            for i, constraints in enumerate(scenario.subscriptions)
        ]
        events = [
            Event(schema, values, event_id=f"{scenario_name}-event-{i}")
            for i, values in enumerate(scenario.events)
        ]
        rng = _random.Random(seed + 1)
        batches: Dict[int, List[Tuple[str, Subscription]]] = {}
        for sub in subscriptions:
            batches.setdefault(rng.randrange(num_brokers), []).append(
                (f"client-{sub.sub_id}", sub)
            )
        publish_groups: Dict[int, List[Event]] = {}
        for event in events:
            publish_groups.setdefault(rng.randrange(num_brokers), []).append(event)
        withdrawals = [
            (f"client-{sub.sub_id}", sub.sub_id)
            for sub in subscriptions[: int(len(subscriptions) * withdraw_fraction)]
        ]
        audit_origins = [rng.randrange(num_brokers) for _ in range(audit_events)]

        delivered_by_curve: Dict[str, Dict[Hashable, frozenset]] = {}
        for curve in curves:
            network = BrokerNetwork.from_topology(
                schema,
                tree_topology(num_brokers),
                covering="approximate",
                config=IndexConfig(epsilon=epsilon, cube_budget=cube_budget, curve=curve),
                matching="sfc",
            )
            start = time.perf_counter()
            for broker_id, items in batches.items():
                network.subscribe_batch(broker_id, items)
            subscribe_seconds = time.perf_counter() - start

            delivered: Dict[Hashable, frozenset] = {}
            start = time.perf_counter()
            for broker_id, group in publish_groups.items():
                for event, clients in zip(group, network.publish_batch(broker_id, group)):
                    delivered[event.event_id] = frozenset(clients)
            publish_seconds = time.perf_counter() - start
            delivered_by_curve[curve] = delivered

            start = time.perf_counter()
            network.unsubscribe_batch(withdrawals)
            withdraw_seconds = time.perf_counter() - start

            missed_total = extra_total = 0
            for event, origin in zip(events[:audit_events], audit_origins):
                missed, extra = network.publish_and_audit(origin, event)
                missed_total += len(missed)
                extra_total += len(extra)
            if missed_total:
                raise AssertionError(
                    f"curve {curve!r} lost {missed_total} deliveries on "
                    f"{scenario_name} — curves must never change semantics"
                )

            stats = network.collect_stats()
            covering_runs = sum(b.covering_check_runs for b in stats.per_broker.values())
            false_positives = sum(
                b.match_index_false_positives for b in stats.per_broker.values()
            )
            segments = sum(
                broker.routing_table.match_segments()
                for broker in network.brokers.values()
            )
            table.add(
                phase="routing",
                scenario=scenario_name,
                curve=curve,
                subscribe_s=round(subscribe_seconds, 4),
                publish_s=round(publish_seconds, 4),
                withdraw_s=round(withdraw_seconds, 4),
                events_per_s=round(num_events / publish_seconds, 1)
                if publish_seconds
                else float("inf"),
                subs_per_s=round(len(subscriptions) / subscribe_seconds, 1)
                if subscribe_seconds
                else float("inf"),
                withdrawals_per_s=round(len(withdrawals) / withdraw_seconds, 1)
                if withdraw_seconds
                else float("inf"),
                segments=segments,
                match_false_positives=false_positives,
                covering_runs_probed=covering_runs,
                missed=missed_total,
                extra=extra_total,
            )
        baseline = delivered_by_curve[curves[0]]
        for curve in curves[1:]:
            if delivered_by_curve[curve] != baseline:
                differing = [
                    event_id
                    for event_id in baseline
                    if delivered_by_curve[curve].get(event_id) != baseline[event_id]
                ]
                raise AssertionError(
                    f"delivery sets differ between {curves[0]!r} and {curve!r} on "
                    f"{scenario_name} for events {differing[:5]} — curves must "
                    "never change semantics"
                )

    # Fig. 1 at workload scale: exact run counts for a seeded rectangle family.
    universe = Universe(dims=2, order=fig1_order)
    rect_workload = SubscriptionWorkload(
        attributes=2, attribute_order=fig1_order, width_fraction=0.4, seed=seed + 2
    )
    rectangles = [
        Rectangle(tuple(lo for lo, _ in spec.ranges), tuple(hi for _, hi in spec.ranges))
        for spec in rect_workload.generate(fig1_rectangles, prefix="fig1")
    ]
    cube_partitions = [decompose_rectangle(universe, rect) for rect in rectangles]
    for curve_kind in curves:
        curve = make_curve(curve_kind, universe)
        run_counts = [
            len(merge_key_ranges(curve.cube_key_range(cube) for cube in cubes))
            for cubes in cube_partitions
        ]
        table.add(
            phase="runs",
            scenario="fig1-style",
            curve=curve_kind,
            rectangles=len(rectangles),
            total_runs=sum(run_counts),
            mean_runs=round(sum(run_counts) / len(run_counts), 2),
            max_runs=max(run_counts),
        )
    return table


# -------------------------------------------------------------- dimensionality sweep
def run_dimensionality_experiment(
    attribute_counts: Sequence[int] = (1, 2, 3),
    order: int = 8,
    epsilon: float = 0.2,
    alphas: Sequence[int] = (0, 2, 4),
    num_subscriptions: int = 400,
    num_queries: int = 25,
    seed: int = 17,
) -> ResultTable:
    """E-DIM: query cost as dimensionality and aspect ratio grow."""
    table = ResultTable("E-DIM: runs probed vs attributes and aspect ratio")
    for attributes in attribute_counts:
        for alpha in alphas:
            workload = SubscriptionWorkload(
                attributes=attributes,
                attribute_order=order,
                width_fraction=0.25,
                aspect_skew=alpha,
                seed=seed,
            )
            stored = workload.generate(num_subscriptions, prefix="stored")
            queries = workload.generate(num_queries, prefix="query")
            detector = ApproximateCoveringDetector(
                attributes=attributes,
                attribute_order=order,
                config=IndexConfig(epsilon=epsilon, cube_budget=25_000),
            )
            for spec in stored:
                detector.add_subscription(spec.sub_id, spec.ranges)
            runs_total = 0
            mean_alpha = 0.0
            for spec in queries:
                result = detector.find_covering(spec.ranges)
                runs_total += result.query.runs_probed
                mean_alpha += result.query.aspect_ratio
            table.add(
                attributes=attributes,
                dominance_dims=2 * attributes,
                requested_aspect_skew=alpha,
                mean_query_aspect_ratio=round(mean_alpha / num_queries, 2),
                mean_runs_probed=round(runs_total / num_queries, 2),
                theorem31_bound=theorem31_run_bound(2 * attributes, alpha, epsilon),
            )
    return table


# ------------------------------------------------------------------------ throughput
def run_throughput_experiment(
    attributes: int = 2,
    order: int = 10,
    sizes: Sequence[int] = (500, 1_000, 2_000),
    num_queries: int = 60,
    epsilon: float = 0.1,
    seed: int = 23,
    backend: str = "flat",
) -> ResultTable:
    """E-THROUGHPUT: queries/second vs table size for each covering index.

    ``backend`` selects the SFC-array ordered-map store behind the
    approximate detector (``"flat"``, ``"avl"``, ``"skiplist"``,
    ``"sortedlist"``) so backend choice can be ablated on the same workload;
    answers are backend-independent, only the timings move.
    """
    table = ResultTable(
        "E-THROUGHPUT: covering-check throughput vs stored subscriptions "
        f"(sfc backend: {backend})"
    )
    dims = 2 * attributes
    query_workload = SubscriptionWorkload(
        attributes=attributes, attribute_order=order, width_fraction=0.1, seed=seed + 5
    )
    queries = query_workload.generate(num_queries, prefix="query")
    for size in sizes:
        # Stored subscriptions mix narrow and broad ranges: the broad ones are
        # what make covering common and what the SFC search finds first.
        stored = _mixed_width_workload(
            attributes=attributes,
            order=order,
            count=size,
            narrow_fraction=0.85,
            narrow_width=0.15,
            wide_width=0.55,
            seed=seed,
            prefix="stored",
        )

        approx = ApproximateCoveringDetector(
            attributes=attributes,
            attribute_order=order,
            config=IndexConfig(epsilon=epsilon, cube_budget=20_000, backend=backend),
        )
        linear = LinearScanCoveringDetector(attributes, order)
        kdtree = KDTree(dims=dims)
        transform = approx.transform
        entries = []
        for spec in stored:
            approx.add_subscription(spec.sub_id, spec.ranges)
            linear.add_subscription(spec.sub_id, spec.ranges)
            point = transform.to_point(spec.ranges)
            kdtree.insert(spec.sub_id, point)
            entries.append((spec.sub_id, point))
        range_tree = RangeTree.build(dims, entries)

        def timed(fn) -> Tuple[float, int]:
            start = time.perf_counter()
            hits = 0
            for spec in queries:
                if fn(spec):
                    hits += 1
            return time.perf_counter() - start, hits

        t_approx, hits_approx = timed(lambda s: approx.find_covering(s.ranges).covered)
        t_linear, hits_linear = timed(lambda s: linear.find_covering(s.ranges) is not None)
        t_kd, hits_kd = timed(
            lambda s: kdtree.find_dominating(transform.to_point(s.ranges)) is not None
        )
        t_rt, hits_rt = timed(
            lambda s: range_tree.find_dominating(transform.to_point(s.ranges)) is not None
        )

        table.add(
            stored=size,
            approx_qps=round(num_queries / t_approx, 1),
            linear_qps=round(num_queries / t_linear, 1),
            kdtree_qps=round(num_queries / t_kd, 1),
            rangetree_qps=round(num_queries / t_rt, 1),
            approx_hits=hits_approx,
            exact_hits=hits_linear,
            rangetree_storage_cells=range_tree.storage_cells(),
        )
    return table


def run_sim_latency_experiment(
    num_brokers: int = 9,
    num_subscriptions: int = 60,
    num_events: int = 40,
    order: int = 8,
    latency_models: Sequence[str] = ("fixed", "uniform", "distance"),
    topologies: Sequence[str] = ("tree", "chain", "star"),
    inbox_capacity: int = 8,
    service_time: float = 0.02,
    epsilon: float = 0.2,
    matching: str = "linear",
    curve: str = "zorder",
    seed: int = 29,
) -> ResultTable:
    """E-SIM-LATENCY: flash-crowd delivery latency under simulated transports.

    For every (latency model × topology) pair, a sensor-network flash-crowd
    script runs over a :class:`~repro.sim.transport.SimTransport` with bounded
    per-broker inboxes, and the row reports the delivery-latency percentiles,
    hop counts, queue-depth high-water mark, backpressure retries — and the
    audit outcome, which must be zero missed deliveries for every
    configuration (the safety claim does not bend to timing).
    """
    from ..sim.latency import make_latency_model, random_positions
    from ..sim.transport import SimTransport
    from ..workloads.dynamics import flash_crowd_script, run_dynamic_scenario
    from ..workloads.scenarios import sensor_network_scenario

    topology_builders = {
        "tree": tree_topology,
        "chain": chain_topology,
        "star": star_topology,
    }
    table = ResultTable("E-SIM-LATENCY: flash-crowd latency by latency model and topology")
    scenario = sensor_network_scenario(
        num_subscriptions=num_subscriptions, num_events=num_events, order=order, seed=seed
    )
    broker_ids = list(range(num_brokers))
    for model_kind in latency_models:
        for topo_kind in topologies:
            if model_kind == "fixed":
                latency = make_latency_model("fixed", delay=0.5)
            elif model_kind == "uniform":
                latency = make_latency_model("uniform", base=0.2, jitter=0.6)
            else:
                latency = make_latency_model(
                    "distance", positions=random_positions(broker_ids, seed=seed), scale=0.1
                )
            transport = SimTransport(
                latency,
                inbox_capacity=inbox_capacity,
                service_time=service_time,
                seed=seed,
            )
            network = BrokerNetwork.from_topology(
                scenario.schema,
                topology_builders[topo_kind](num_brokers),
                covering="approximate",
                config=IndexConfig(epsilon=epsilon, curve=curve),
                matching=matching,
                transport=transport,
            )
            report = run_dynamic_scenario(
                network,
                flash_crowd_script(scenario, broker_ids, seed=seed + 1),
                name=f"{model_kind}/{topo_kind}",
            )
            summary = report.stats.transport_summary()
            table.add(
                latency_model=model_kind,
                topology=topo_kind,
                events=report.events_published,
                missed=report.missed_deliveries,
                latency_p50=round(summary["latency_p50"], 3),
                latency_p90=round(summary["latency_p90"], 3),
                latency_p99=round(summary["latency_p99"], 3),
                hops_p90=summary["hops_p90"],
                max_queue_depth=summary["max_queue_depth"],
                backpressure_retries=summary["backpressure_retries"],
                messages_sent=summary["messages_sent"],
            )
    return table


# --------------------------------------------------------------- topology scale
def run_topology_scale_experiment(
    num_brokers: int = 600,
    num_subscriptions: int = 60,
    num_events: int = 40,
    order: int = 8,
    topology_classes: Sequence[str] = ("skewed-tree", "scale-free", "grid-cluster"),
    lan: float = 0.02,
    wan: float = 0.25,
    inbox_capacity: int = 64,
    service_time: float = 0.002,
    epsilon: float = 0.2,
    matching: str = "linear",
    curve: str = "zorder",
    seed: int = 29,
) -> ResultTable:
    """E-TOPO-SCALE: latency/hop distributions per internet-scale topology class.

    For every generated topology class (skewed random tree, Barabási–Albert
    scale-free, grid-of-clusters WAN), the class's region metadata prices
    links LAN-vs-WAN (:class:`~repro.sim.latency.RegionLatency`), a sensor
    flash-crowd script runs over the spanning-tree overlay, and the row
    reports per-class delivery-latency and overlay-hop percentiles plus the
    audit outcome — which must be zero missed deliveries at every scale (the
    safety claim is size-independent).
    """
    from ..sim.transport import SimTransport
    from ..workloads.dynamics import flash_crowd_script, run_dynamic_scenario
    from ..workloads.scenarios import sensor_network_scenario
    from ..workloads.topologies import make_topology

    table = ResultTable(
        "E-TOPO-SCALE: latency/hop distributions per generated topology class"
    )
    scenario = sensor_network_scenario(
        num_subscriptions=num_subscriptions, num_events=num_events, order=order, seed=seed
    )
    for kind in topology_classes:
        topology = make_topology(kind, num_brokers, seed=seed)
        transport = SimTransport(
            topology.latency_model(lan=lan, wan=wan),
            inbox_capacity=inbox_capacity,
            service_time=service_time,
            seed=seed,
        )
        network = BrokerNetwork.from_topology(
            scenario.schema,
            topology.overlay,
            covering="approximate",
            config=IndexConfig(epsilon=epsilon, curve=curve),
            matching=matching,
            transport=transport,
            nodes=topology.broker_ids,
        )
        # The flash-crowd settle must cover the overlay's worst-case
        # propagation (diameter x WAN delay), which grows with scale.
        settle = max(5.0, 4 * wan * num_brokers ** 0.5)
        report = run_dynamic_scenario(
            network,
            flash_crowd_script(
                scenario, topology.broker_ids, settle=settle, seed=seed + 1
            ),
            name=f"topo-scale/{kind}",
        )
        summary = report.stats.transport_summary()
        table.add(
            topology=kind,
            brokers=topology.num_brokers,
            regions=len(topology.region_ids()),
            underlay_edges=len(topology.underlay),
            events=report.events_published,
            missed=report.missed_deliveries,
            latency_p50=round(summary["latency_p50"], 3),
            latency_p90=round(summary["latency_p90"], 3),
            latency_p99=round(summary["latency_p99"], 3),
            hops_p50=summary["hops_p50"],
            hops_p90=summary["hops_p90"],
            hops_max=summary["hops_max"],
            max_queue_depth=summary["max_queue_depth"],
            backpressure_retries=summary["backpressure_retries"],
            messages_sent=summary["messages_sent"],
        )
    return table


# ------------------------------------------------------------- match index scale
def _scale_subscriptions(
    count: int, order: int, seed: int, max_width: int = 24
) -> List[Tuple[str, Tuple[Tuple[int, int], ...]]]:
    """Deterministic ``(sub_id, ranges)`` pairs for the scale phases.

    Plain tuples rather than Subscription objects: at a million entries the
    object overhead would dominate the build being measured.
    """
    import random

    rng = random.Random(seed)
    side = 1 << order
    items: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
    for i in range(count):
        ranges = []
        for _ in range(2):
            lo = rng.randrange(side)
            ranges.append((lo, min(side - 1, lo + rng.randrange(max_width))))
        items.append((f"s{i}", tuple(ranges)))
    return items


def run_match_scale_experiment(
    populations: Sequence[int] = (100_000, 1_000_000),
    baseline_population: int = 20_000,
    num_events: int = 20_000,
    num_delivery_events: int = 200,
    order: int = 10,
    precision_bits: int = 4,
    shards: int = 4,
    parity_subscriptions: int = 400,
    parity_events: int = 300,
    seed: int = 31,
    min_speedup: float = 0.0,
) -> ResultTable:
    """E-MATCH-SCALE: million-subscription matching on the flattened backends.

    Three phases, one row each:

    * **parity** — every backend (including ``"sharded"``) under every curve
      must produce delivery sets identical to a brute-force rectangle scan;
      any disagreement raises instead of producing a row.
    * **baseline** — per-subscription insert throughput of the ordered-map
      default of the previous generation (``"avl"``), measured at a size it
      can sustain.
    * **scale** — for each population: bulk ``add_batch`` build throughput and
      publish throughput (``any_match_batch`` over ``num_events`` events plus
      ``matching_ids_batch`` over ``num_delivery_events``) for the ``"flat"``
      and ``"sharded"`` backends, with segment counts, flattened member
      entries and peak RSS.  ``min_speedup`` (when > 0) asserts the flat bulk
      build rate is at least that multiple of the baseline insert rate.
    """
    import random
    import resource

    from ..pubsub.match_index import MatchIndex
    from ..pubsub.sharded_index import ShardedMatchIndex
    from ..sfc.factory import CURVE_KINDS

    table = ResultTable("E-MATCH-SCALE: million-subscription matching, flat + sharded backends")
    schema = _default_schema(order)
    side = 1 << order

    # ---------------------------------------------------------------- parity
    parity_items = _scale_subscriptions(parity_subscriptions, order, seed + 1)
    rng = random.Random(seed + 2)
    parity_cells = [
        (rng.randrange(side), rng.randrange(side)) for _ in range(parity_events)
    ]
    oracle = [
        sorted(
            sid
            for sid, rect in parity_items
            if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
        )
        for cells in parity_cells
    ]
    backends = ("flat", "avl", "skiplist", "sortedlist", "sharded")
    combos = 0
    for curve in CURVE_KINDS:
        for backend in backends:
            if backend == "sharded":
                index = ShardedMatchIndex(
                    schema,
                    config=IndexConfig(
                        shards=shards, curve=curve, precision_bits=precision_bits
                    ),
                )
            else:
                index = MatchIndex(
                    schema,
                    config=IndexConfig(
                        backend=backend, curve=curve, precision_bits=precision_bits
                    ),
                )
            index.add_batch(parity_items)
            got = [sorted(ids) for ids in index.matching_ids_batch(parity_cells)]
            if got != oracle:
                bad = next(i for i in range(len(oracle)) if got[i] != oracle[i])
                raise AssertionError(
                    f"backend {backend!r} under curve {curve!r} disagrees with the "
                    f"rectangle oracle on event {parity_cells[bad]}"
                )
            combos += 1
    table.add(
        phase="parity",
        backend="all",
        curve="all",
        subscriptions=parity_subscriptions,
        events=parity_events,
        combos_verified=combos,
    )

    # -------------------------------------------------------------- baseline
    baseline_items = _scale_subscriptions(baseline_population, order, seed)
    baseline = MatchIndex(
        schema, config=IndexConfig(backend="avl", precision_bits=precision_bits)
    )
    start = time.perf_counter()
    for sub_id, ranges in baseline_items:
        baseline.add(sub_id, ranges)
    baseline_seconds = time.perf_counter() - start
    baseline_rate = baseline_population / baseline_seconds
    table.add(
        phase="baseline",
        backend="avl",
        curve="zorder",
        subscriptions=baseline_population,
        build_seconds=round(baseline_seconds, 3),
        inserts_per_second=round(baseline_rate, 1),
        segments=baseline.segment_count(),
    )

    # ----------------------------------------------------------------- scale
    for population in populations:
        items = _scale_subscriptions(population, order, seed)
        event_rng = random.Random(seed + 3)
        events = [
            (event_rng.randrange(side), event_rng.randrange(side))
            for _ in range(num_events)
        ]
        for backend in ("flat", "sharded"):
            if backend == "flat":
                index = MatchIndex(schema, config=IndexConfig(precision_bits=precision_bits))
            else:
                index = ShardedMatchIndex(
                    schema,
                    config=IndexConfig(shards=shards, precision_bits=precision_bits),
                )
            start = time.perf_counter()
            index.add_batch(items)
            build_seconds = time.perf_counter() - start
            build_rate = population / build_seconds

            start = time.perf_counter()
            any_results = index.any_match_batch(events)
            any_seconds = time.perf_counter() - start

            start = time.perf_counter()
            deliveries = index.matching_ids_batch(events[:num_delivery_events])
            delivery_seconds = time.perf_counter() - start

            if backend == "flat":
                member_entries = index._flat.member_entries
                rebuilds = index._flat.rebuilds
                if min_speedup and build_rate < min_speedup * baseline_rate:
                    raise AssertionError(
                        f"flat bulk build at {population} subscriptions reached only "
                        f"{build_rate:.0f}/s vs baseline {baseline_rate:.0f}/s "
                        f"({build_rate / baseline_rate:.1f}x < {min_speedup}x)"
                    )
            else:
                member_entries = sum(
                    shard._flat.member_entries for shard in index._indexes
                )
                rebuilds = sum(shard._flat.rebuilds for shard in index._indexes)
            table.add(
                phase="scale",
                backend=backend,
                curve="zorder",
                subscriptions=population,
                build_seconds=round(build_seconds, 3),
                inserts_per_second=round(build_rate, 1),
                speedup_vs_baseline=round(build_rate / baseline_rate, 2),
                any_match_events_per_second=round(num_events / any_seconds, 1),
                matching_hit_rate=round(sum(any_results) / num_events, 4),
                delivery_events_per_second=round(
                    num_delivery_events / delivery_seconds, 1
                ),
                delivered_matches=sum(len(ids) for ids in deliveries),
                segments=index.segment_count(),
                member_entries=member_entries,
                rebuilds=rebuilds,
                peak_rss_mb=round(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
                ),
            )
    return table


# ----------------------------------------------------------------- auto tuning
def run_auto_tuning_experiment(
    scenario_names: Sequence[str] = ("stock", "sensor", "auction"),
    static_curves: Sequence[str] = ("zorder", "hilbert", "gray"),
    num_brokers: int = 7,
    num_subscriptions: int = 240,
    num_events: int = 360,
    warmup_events: int = 120,
    order: int = 9,
    epsilon: float = 0.2,
    start_run_budget: int = 1,
    seed: int = 31,
) -> ResultTable:
    """E-TUNE: a config recommended offline vs every static configuration.

    Models a *drifted deployment*: the static networks — one per curve —
    run on a start :class:`~repro.index.config.IndexConfig` whose
    ``start_run_budget`` coarsens each subscription's decomposition down hard
    (the kind of config an operator might pin for a sparse install-time
    workload), on an application scenario that punishes it with false
    positives.  The recommended network is a static network too, built on
    what :func:`~repro.tuning.recommend_config` returns when it walks from
    the first static config, scoring with the scenario's subscriptions and
    the warm-up wave's event cells; ``recommend_s`` is what choosing took.

    Protocol per network: batch-subscribe everything, publish the warm-up
    wave, snapshot the deterministic work counters, publish the measurement
    wave, and report the *measurement-window* work — candidates checked per
    event, the backend-independent unit every other matching experiment uses
    — beside its wall-clock ``seconds``.

    The driver asserts the recommended ≡ static differential inline: per-event
    delivery sets must be identical across every configuration — a config
    may change work, never semantics.
    """
    import random as _random

    from ..workloads.scenarios import (
        auction_scenario,
        sensor_network_scenario,
        stock_market_scenario,
    )

    if not 0 < warmup_events < num_events:
        raise ValueError(
            f"warmup_events must lie in (0, num_events), got {warmup_events}/{num_events}"
        )
    scenario_factories = {
        "stock": stock_market_scenario,
        "sensor": sensor_network_scenario,
        "auction": auction_scenario,
    }
    table = ResultTable("E-TUNE: recommended index config vs static configs (drifted start)")

    for scenario_name in scenario_names:
        scenario = scenario_factories[scenario_name](
            num_subscriptions=num_subscriptions,
            num_events=num_events,
            order=order,
            seed=seed,
        )
        schema = scenario.schema
        subscriptions = [
            Subscription(schema, constraints, sub_id=f"{scenario_name}-sub-{i}")
            for i, constraints in enumerate(scenario.subscriptions)
        ]
        events = [
            Event(schema, values, event_id=f"{scenario_name}-event-{i}")
            for i, values in enumerate(scenario.events)
        ]
        rng = _random.Random(seed + 1)
        batches: Dict[int, List[Tuple[str, Subscription]]] = {}
        for sub in subscriptions:
            batches.setdefault(rng.randrange(num_brokers), []).append(
                (f"client-{sub.sub_id}", sub)
            )
        origins = [rng.randrange(num_brokers) for _ in events]
        measured = num_events - warmup_events
        deliveries: Dict[str, Dict[Hashable, frozenset]] = {}

        def run_one(config: IndexConfig, name: str, recommend_s: float = 0.0) -> None:
            network = BrokerNetwork.from_topology(
                schema,
                tree_topology(num_brokers),
                covering="approximate",
                matching="sfc",
                seed=seed,
                config=config,
            )
            for broker_id, items in batches.items():
                network.subscribe_batch(broker_id, items)
            delivered: Dict[Hashable, frozenset] = {}
            for event, origin in zip(events[:warmup_events], origins):
                delivered[event.event_id] = frozenset(network.publish(origin, event))
            work_before = [
                broker.routing_table.match_work()
                for broker in network.brokers.values()
            ]
            start = time.perf_counter()
            for event, origin in zip(
                events[warmup_events:], origins[warmup_events:]
            ):
                delivered[event.event_id] = frozenset(network.publish(origin, event))
            seconds = time.perf_counter() - start
            work_after = [
                broker.routing_table.match_work()
                for broker in network.brokers.values()
            ]
            candidates = sum(a[1] - b[1] for a, b in zip(work_after, work_before))
            false_positives = sum(a[2] - b[2] for a, b in zip(work_after, work_before))
            segments = sum(
                broker.routing_table.match_segments()
                for broker in network.brokers.values()
            )
            deliveries[name] = delivered
            table.add(
                scenario=scenario_name,
                config=name,
                curve=config.curve,
                run_budget=config.run_budget,
                events=measured,
                candidates_checked=candidates,
                false_positives=false_positives,
                work_per_event=round(candidates / measured, 2),
                segments=segments,
                seconds=round(seconds, 4),
                recommend_s=round(recommend_s, 4),
            )

        start_configs = {
            curve: IndexConfig(curve=curve, run_budget=start_run_budget, epsilon=epsilon)
            for curve in static_curves
        }
        for curve, config in start_configs.items():
            run_one(config, f"static:{curve}")

        start = time.perf_counter()
        recommended = recommend_config(
            schema,
            start_configs[static_curves[0]],
            [(sub.sub_id, sub.ranges) for sub in subscriptions],
            [event.cells for event in events[:warmup_events]],
        )
        run_one(recommended, "recommended", time.perf_counter() - start)

        baseline_name = f"static:{static_curves[0]}"
        baseline = deliveries[baseline_name]
        for name, delivered in deliveries.items():
            if delivered != baseline:
                differing = [
                    event_id
                    for event_id in baseline
                    if delivered.get(event_id) != baseline[event_id]
                ]
                raise AssertionError(
                    f"delivery sets differ between {baseline_name!r} and {name!r} on "
                    f"{scenario_name} for events {differing[:5]} — a config must "
                    "never change semantics"
                )
    return table
