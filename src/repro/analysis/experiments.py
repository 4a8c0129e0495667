"""Experiment drivers: the measurements behind every benchmark and README table.

Each function here runs one experiment and returns a
:class:`repro.analysis.reporting.ResultTable` of rows (the README's "Tests and
benchmarks" section says how to run them all; the tables they regenerate live
in ``benchmarks/results/``).  The pytest-benchmark files in ``benchmarks/``
call these drivers (so that timings and the regenerated tables come from the
same code), and the examples reuse them for human-readable output.  The
systems experiments E-SIM-LATENCY, E-TOPO-SCALE and E-MATCH-SCALE are not
here: each is one script under ``experiments/`` that owns its sizes, driver
and checks.

Every driver is seeded so results are reproducible, and keeps problem sizes
laptop-scale by default; callers can pass larger sizes when more fidelity is
wanted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..baselines.linear_scan import LinearScanCoveringDetector
from ..baselines.probabilistic import ProbabilisticCoveringDetector
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
from ..index.kdtree import KDTree
from ..index.range_tree import RangeTree
from ..obs.exposition import snapshot as metrics_snapshot
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceLog
from ..pubsub.network import BrokerNetwork, chain_topology, star_topology, tree_topology
from ..pubsub.routing_table import COVERING_KINDS
from ..pubsub.schema import Attribute, AttributeSchema
from ..pubsub.subscription import Event, Subscription
from ..sfc.hilbert import HilbertCurve
from ..sfc.runs import RunProfile
from ..sfc.zorder import ZOrderCurve
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
    "run_subscription_churn_experiment",
    "run_event_matching_experiment",
    "run_curve_ablation_experiment",
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
def run_fig2_experiment() -> ResultTable:
    """FIG2: the 256×256 vs 257×257 extremal query regions of the paper's Figure 2."""
    order = 9
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
    order: int = 16,
    side_bit_lengths: Sequence[int] = (6, 8, 10, 12, 14, 16),
) -> ResultTable:
    """THM3.1: approximate-query cost is independent of the query side length.

    For each side bit-length ``b`` we build an all-ones extremal rectangle
    (the worst case of Lemma 3.6) with aspect ratio ``alpha``, count the cubes
    the approximate search would touch (classes down to the ``1 − ε`` coverage
    level), and compare with both the exhaustive cube count and the analytic
    Theorem 3.1 bound.
    """
    dims = 4
    epsilon = 0.05
    alpha = 0
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
    trials: int = 50,
    seed: int = 1,
) -> ResultTable:
    """LEM3.2: measured volume retained by truncation vs the 1 − ε guarantee."""
    epsilons = (0.2, 0.1, 0.05, 0.01)
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
    order: int = 14,
    gammas: Sequence[int] = (3, 4, 5, 6, 7, 8),
) -> ResultTable:
    """THM4.1: exhaustive run count on the adversarial rectangle vs the lower bound."""
    dims = 2
    alpha = 1
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
    order: int = 12,
    num_subscriptions: int = 2_000,
    num_queries: int = 200,
    epsilons: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    seed: int = 3,
) -> ResultTable:
    """E-COST: runs probed and wall-clock per covering query, approximate vs exhaustive."""
    attributes = 1
    width_fraction = 0.2
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
        epsilon=0.05,
        cube_budget=200_000,
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
    attributes = 2
    order = 10
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
            epsilon=0.05,
            cube_budget=cube_budget,
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


def _broker_total(network: BrokerNetwork, counter: str) -> int:
    """One :class:`~repro.pubsub.broker.BrokerStats` counter summed over the brokers."""
    return sum(getattr(broker.stats, counter) for broker in network.brokers.values())


def run_pubsub_experiment(
    num_brokers: int = 7,
    num_subscriptions: int = 150,
    num_events: int = 40,
    seed: int = 9,
) -> ResultTable:
    """E-PUBSUB: routing-table size and propagation traffic per covering kind.

    The workload mixes narrow subscriptions with a share of broad ones (the
    regime covering is designed for); one row per kind in ``COVERING_KINDS``.
    """
    import random as _random

    order = 9

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

    for strategy in COVERING_KINDS:
        network = BrokerNetwork.from_topology(
            schema,
            tree_topology(num_brokers),
            covering=strategy,
            seed=seed,
        )
        start = time.perf_counter()
        for spec, broker_id in zip(specs, placements):
            subscription = _spec_subscription(schema, spec)
            network.subscribe(broker_id, f"client-{spec.sub_id}", subscription)
        propagation_time = time.perf_counter() - start

        for i, cells in enumerate(event_cells):
            event = Event(
                schema,
                {
                    name: schema.dequantize_value(name, cell)
                    for name, cell in zip(schema.names, cells)
                },
            )
            network.publish_and_audit(publish_at[i], event)
        table.add(
            strategy=strategy,
            routing_table_entries=network.routing_table_entries(),
            subscription_messages=network.subscription_messages,
            suppressed=_broker_total(network, "subscriptions_suppressed"),
            covering_work_units=_broker_total(network, "covering_check_runs"),
            propagation_seconds=round(propagation_time, 4),
            events_missed=network.audited_missed,
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
    seed: int = 17,
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

    order = 8

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
        seed=seed,
        transport=SimTransport(seed=seed),
        metrics=MetricsRegistry(),
        tracing=TraceLog(capacity=4096, seed=seed),
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
    sizes: Sequence[int] = (1_500,),
    num_brokers: int = 15,
    max_cover_withdrawals: int = 20,
    narrow_withdrawals: int = 60,
    audit_size: int = 800,
    audit_events: int = 10,
) -> ResultTable:
    """E-SUB-CHURN: batched subscription churn vs the per-subscription baseline (CLI-sized).

    The defaults are the CLI's sizes; ``benchmarks/bench_subscription_churn.py``
    passes the full 10k-50k ones.  Two row kinds:

    * ``phase="churn"`` — for each size, the same wide/narrow workload is
      subscribed and then partially withdrawn (a slice of broad covers plus a
      slice of narrow subscriptions, so the withdrawal-promotion path runs
      hard) on a broker tree, once through per-subscription ``subscribe`` /
      ``unsubscribe`` calls and once through ``subscribe_batch`` /
      ``unsubscribe_batch``.  The row reports both arms' wall-clock times;
      the batch APIs are loops over the per-call path, so the two runs must
      leave byte-identical normalised routing state and identical broker
      counters, or the driver raises.
    * ``phase="audit"`` — the post-churn delivery audit on every
      (topology × transport) pair: after the batch churn settles, probe
      events published across the overlay must reach exactly the surviving
      matching subscribers (``missed`` must be 0 everywhere; covering may
      only ever *suppress more*, never lose).
    """
    seed = 11
    import random as _random

    from ..sim.latency import FixedLatency
    from ..sim.transport import SimTransport

    order = 8

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
            narrow_fraction=0.96,
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
            transport_obj = SimTransport(FixedLatency(delay=0.01), seed=seed)
        else:
            transport_obj = None
        return BrokerNetwork.from_topology(
            schema,
            topology_builders[topology](num_brokers),
            covering="approximate",
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
        if sequential.routing_state() != batch.routing_state() or any(
            sequential.brokers[b].stats != batch.brokers[b].stats for b in batch.brokers
        ):
            raise AssertionError(
                f"batch subscribe/withdraw diverged from sequential calls at size {size}"
            )
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
            promotions=_broker_total(batch, "promotions"),
            run_cache_hits=batch.profile_cache.hits,
            run_cache_misses=batch.profile_cache.misses,
        )

    # ------------------------------------------------------------ audit matrix
    batches, kills = build_workload(audit_size)
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
    for topology in topology_builders:
        for transport in ("sync", "sim"):
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
                subscriptions=audit_size,
                topology=topology,
                transport=transport,
                withdrawals=len(kills),
                missed=missed_total,
                extra=extra_total,
                promotions=_broker_total(network, "promotions"),
            )
    return table


def run_event_matching_experiment(
    table_sizes: Sequence[int] = (100, 1_000),
    num_events: int = 400,
) -> ResultTable:
    """E-MATCH: per-interface event matching, linear scan vs the SFC match index.

    Fills one interface table with the stored subscriptions (mostly narrow, a
    few broad — the per-interface shape a loaded broker sees); every size
    measured is past the table's scan limit, so it has built its match index.
    The baseline scans the same subscriptions with
    :meth:`Subscription.matches`.  The two must agree on every event; then
    ``any_match`` is timed over the event stream.  The agreement pass keys
    each event once and the key is remembered on it, so the timed probes
    read it, as every probe after an event's first does in a network.  The
    crossover:
    at ≥ 1,000 stored subscriptions the single sorted-array probe of the
    index beats scanning the table, and the gap widens with table size.
    """
    seed = 17
    from ..pubsub.routing_table import InterfaceTable

    order = 8

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
        sfc = InterfaceTable("bench", schema)
        subscriptions = _spec_subscriptions(schema, specs)

        def linear_any_match(event: Event) -> bool:
            for subscription in subscriptions:
                if subscription.matches(event):
                    return True
            return False

        build_start = time.perf_counter()
        for subscription in subscriptions:
            sfc.add(subscription)
        build_seconds = time.perf_counter() - build_start

        disagreements = sum(
            1 for event in events if linear_any_match(event) != sfc.any_match(event)
        )
        if disagreements:
            raise AssertionError(
                f"SFC match index disagrees with linear scan on {disagreements} events"
            )

        start = time.perf_counter()
        for event in events:
            linear_any_match(event)
        linear_seconds = time.perf_counter() - start
        index = sfc.match_index
        if index is None:
            raise ValueError(
                f"a table of {size} subscriptions still scans; "
                f"sizes must exceed InterfaceTable.SCAN_LIMIT ({sfc.SCAN_LIMIT})"
            )
        index.stats.candidates_checked = 0
        index.stats.false_positives = 0
        start = time.perf_counter()
        for event in events:
            sfc.any_match(event)
        sfc_seconds = time.perf_counter() - start

        table.add(
            subscriptions=size,
            events=num_events,
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
def run_curve_ablation_experiment() -> ResultTable:
    """E-CURVE: the Fig. 1 claim at workload scale, under Z-order vs Hilbert vs Gray.

    Exact run counts of a seeded family of 2-D rectangles on a 64 × 64 grid
    under each curve (the per-curve analogue of ``run_fig1_experiment``'s
    three hand-picked instances); Hilbert is expected to need fewer runs
    than Z in aggregate.  The rows are ``phase="runs"``.  The routing stack
    keys on the Z curve alone, so no routing rows compare curves end to end.
    """
    fig1_rectangles = 250
    seed = 31
    from ..core.decomposition import decompose_rectangle
    from ..sfc.gray import GrayCodeCurve
    from ..sfc.hilbert import HilbertCurve
    from ..sfc.runs import merge_key_ranges

    table = ResultTable("E-CURVE: key runs per space filling curve (Fig. 1-style rectangles)")
    universe = Universe(dims=2, order=6)
    rect_workload = SubscriptionWorkload(
        attributes=2, attribute_order=6, width_fraction=0.4, seed=seed + 2
    )
    rectangles = [
        Rectangle(tuple(lo for lo, _ in spec.ranges), tuple(hi for _, hi in spec.ranges))
        for spec in rect_workload.generate(fig1_rectangles, prefix="fig1")
    ]
    cube_partitions = [decompose_rectangle(universe, rect) for rect in rectangles]
    for curve_cls in (ZOrderCurve, HilbertCurve, GrayCodeCurve):
        curve = curve_cls(universe)
        run_counts = [
            len(merge_key_ranges(curve.cube_key_range(cube) for cube in cubes))
            for cubes in cube_partitions
        ]
        table.add(
            phase="runs",
            scenario="fig1-style",
            curve=curve.kind,
            rectangles=len(rectangles),
            total_runs=sum(run_counts),
            mean_runs=round(sum(run_counts) / len(run_counts), 2),
            max_runs=max(run_counts),
        )
    return table


# -------------------------------------------------------------- dimensionality sweep
def run_dimensionality_experiment(
    attribute_counts: Sequence[int] = (1, 2, 3),
    alphas: Sequence[int] = (0, 2, 4),
    num_subscriptions: int = 400,
    num_queries: int = 25,
    seed: int = 17,
) -> ResultTable:
    """E-DIM: query cost as dimensionality and aspect ratio grow."""
    epsilon = 0.2
    order = 8
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
                epsilon=epsilon,
                cube_budget=25_000,
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
    sizes: Sequence[int] = (500, 1_000, 2_000),
    num_queries: int = 60,
    seed: int = 23,
) -> ResultTable:
    """E-THROUGHPUT: queries/second vs table size for each covering index."""
    attributes = 2
    order = 10
    epsilon = 0.1
    table = ResultTable("E-THROUGHPUT: covering-check throughput vs stored subscriptions")
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
            epsilon=epsilon,
            cube_budget=20_000,
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
            linear_comparisons_per_query=round(linear.stats.comparisons / num_queries, 1),
            kdtree_qps=round(num_queries / t_kd, 1),
            rangetree_qps=round(num_queries / t_rt, 1),
            approx_hits=hits_approx,
            exact_hits=hits_linear,
            rangetree_storage_cells=range_tree.storage_cells(),
        )
    return table
