"""Offline config recommendation: cost model, candidates, the greedy walk."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.index.config import IndexConfig
from repro.pubsub import (
    BrokerNetwork,
    Event,
    Subscription,
    make_event,
    make_subscription,
    tree_topology,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sfc.factory import CURVE_KINDS
from repro.tuning import (
    MAX_STEPS,
    MIN_GAIN,
    CostModel,
    default_candidates,
    recommend_config,
)
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario


def _schema(order: int = 8) -> AttributeSchema:
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


def _workload(schema, seed=7, subs=50, events=120):
    """A deterministic set of subscriptions and events over ``schema``."""
    rng = random.Random(seed)
    subscriptions = []
    for i in range(subs):
        lo_x, lo_y = rng.uniform(0, 70), rng.uniform(0, 70)
        subscriptions.append(
            make_subscription(
                schema,
                f"s{i}",
                x=(lo_x, lo_x + rng.uniform(1, 30)),
                y=(lo_y, lo_y + rng.uniform(1, 30)),
            )
        )
    published = [
        make_event(schema, f"e{j}", x=rng.uniform(0, 100), y=rng.uniform(0, 100))
        for j in range(events)
    ]
    return subscriptions, published


def _recommend(schema, start, subscriptions, events, cost_model=None):
    return recommend_config(
        schema,
        start,
        [(sub.sub_id, sub.ranges) for sub in subscriptions],
        [event.cells for event in events],
        cost_model=cost_model,
    )


def _drive(config, subscriptions, events, brokers=4):
    """Subscribe everything, publish everything; returns the delivery sets."""
    network = BrokerNetwork.from_topology(
        _schema(), tree_topology(brokers), matching="sfc", seed=11, config=config
    )
    for i, sub in enumerate(subscriptions):
        network.subscribe(i % brokers, f"c{i}", sub)
    return [
        frozenset(network.publish(j % brokers, event)) for j, event in enumerate(events)
    ]


def _match_work(config, subscriptions, events, brokers=4):
    """Candidates checked network-wide while ``_drive`` runs under ``config``."""
    network = BrokerNetwork.from_topology(
        _schema(), tree_topology(brokers), matching="sfc", seed=11, config=config
    )
    for i, sub in enumerate(subscriptions):
        network.subscribe(i % brokers, f"c{i}", sub)
    for j, event in enumerate(events):
        network.publish(j % brokers, event)
    return sum(broker.routing_table.match_work()[1] for broker in network.brokers.values())


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


class TestCostModel:
    def test_evaluate_is_deterministic(self):
        schema = _schema(order=6)
        rng = random.Random(3)
        subs = []
        for i in range(20):
            lo = (rng.randrange(0, 40), rng.randrange(0, 40))
            subs.append(
                (f"s{i}", tuple((l, l + rng.randrange(1, 20)) for l in lo))
            )
        probes = [
            (rng.randrange(0, 64), rng.randrange(0, 64)) for _ in range(30)
        ]
        model = CostModel()
        config = IndexConfig(run_budget=4)
        scores = {model.evaluate(schema, config, subs, probes) for _ in range(3)}
        assert len(scores) == 1

    def test_evaluate_scores_sharded_via_flat(self):
        schema = _schema(order=6)
        model = CostModel()
        flat = model.evaluate(schema, IndexConfig(backend="flat"), [], [(1, 1)])
        sharded = model.evaluate(
            schema, IndexConfig(backend="sharded"), [], [(1, 1)]
        )
        assert flat == sharded

    def test_score_is_the_weighted_sum_of_its_terms(self):
        schema = _schema()
        subscriptions, events = _workload(schema, subs=30, events=40)
        subs = [(sub.sub_id, sub.ranges) for sub in subscriptions]
        probes = [event.cells for event in events]
        config = IndexConfig(run_budget=1)

        def term(probe, fp, run):
            return CostModel(probe_weight=probe, fp_weight=fp, run_weight=run).evaluate(
                schema, config, subs, probes
            )

        candidates, false_positives, runs = term(1, 0, 0), term(0, 1, 0), term(0, 0, 1)
        assert candidates > false_positives > 0 and runs > 0
        assert CostModel().evaluate(schema, config, subs, probes) == (
            candidates + false_positives + 0.25 * runs
        )

    def test_finer_decompositions_store_more_runs(self):
        schema = _schema()
        subscriptions, _ = _workload(schema)
        subs = [(sub.sub_id, sub.ranges) for sub in subscriptions]
        storage = CostModel(probe_weight=0.0, fp_weight=0.0, run_weight=1.0)
        coarse = storage.evaluate(schema, IndexConfig(run_budget=1), subs, [])
        fine = storage.evaluate(schema, IndexConfig(run_budget=16), subs, [])
        assert coarse == len(subs)
        assert fine > coarse


class TestCandidates:
    def test_default_candidates_cover_curves_and_budgets(self):
        config = IndexConfig(curve="zorder", run_budget=8)
        candidates = default_candidates(config)
        assert config not in candidates
        curves = {c.curve for c in candidates}
        assert curves >= set(CURVE_KINDS) - {"zorder"}
        budgets = {c.run_budget for c in candidates if c.curve == "zorder"}
        assert budgets == {4, 16}

    def test_run_budget_one_has_no_half_step(self):
        candidates = default_candidates(IndexConfig(run_budget=1))
        budgets = {c.run_budget for c in candidates}
        assert 0 not in budgets and 2 in budgets

    @pytest.mark.parametrize("kind", CURVE_KINDS)
    def test_candidates_reach_every_other_curve(self, kind):
        config = IndexConfig(curve=kind, run_budget=4)
        recurved = {
            c.curve for c in default_candidates(config) if c.run_budget == config.run_budget
        }
        assert recurved == set(CURVE_KINDS) - {kind}

    def test_candidates_keep_the_other_knobs(self):
        config = IndexConfig(
            curve="gray", run_budget=4, epsilon=0.3, cube_budget=123, backend="avl"
        )
        for candidate in default_candidates(config):
            assert candidate.replace(curve="gray", run_budget=4) == config


class _FinerIsAlwaysBetter(CostModel):
    """Halves the score with every doubling of the run budget, without end."""

    def evaluate(self, schema, config, subscriptions, probes):
        return 1.0 / config.run_budget if config.curve == "zorder" else 2.0


class _Scores(CostModel):
    """Scores from a table (1.0 for any config not in it); records what it scored."""

    def __init__(self, scores=None):
        super().__init__()
        self.scores = scores or {}
        self.scored = []

    def evaluate(self, schema, config, subscriptions, probes):
        self.scored.append(config)
        return self.scores.get(config, 1.0)


class TestRecommendConfig:
    def test_same_inputs_give_the_same_config(self):
        schema = _schema()
        subscriptions, events = _workload(schema)
        start = IndexConfig(run_budget=1)
        first = _recommend(schema, start, subscriptions, events)
        assert first != start  # the walk moved, so the comparison is not vacuous
        assert {_recommend(schema, start, subscriptions, events) for _ in range(2)} == {first}

    def test_start_config_kept_when_no_candidate_clears_the_gain(self):
        # Nothing stored, nothing probed: every config scores 0, and 0 is not
        # 10 % below 0.
        start = IndexConfig(curve="hilbert", run_budget=4)
        assert recommend_config(_schema(), start, [], []) is start

    def test_step_cap_holds(self):
        recommended = recommend_config(
            _schema(), IndexConfig(run_budget=1), [], [], cost_model=_FinerIsAlwaysBetter()
        )
        assert recommended == IndexConfig(run_budget=2**MAX_STEPS)

    def test_walk_stops_after_scoring_one_round_of_candidates(self):
        start = IndexConfig(curve="hilbert", run_budget=4)
        model = _Scores()
        assert recommend_config(_schema(), start, [], [], cost_model=model) is start
        assert model.scored == [start] + default_candidates(start)

    def test_a_gain_of_exactly_min_gain_is_not_enough(self):
        start = IndexConfig()
        model = _Scores({IndexConfig(curve="hilbert"): 1.0 - MIN_GAIN})
        assert recommend_config(_schema(), start, [], [], cost_model=model) is start

    def test_a_gain_beyond_min_gain_moves_the_walk(self):
        model = _Scores({IndexConfig(curve="hilbert"): 0.99 * (1.0 - MIN_GAIN)})
        recommended = recommend_config(_schema(), IndexConfig(), [], [], cost_model=model)
        assert recommended == IndexConfig(curve="hilbert")

    def test_the_lowest_scoring_candidate_wins(self):
        model = _Scores({IndexConfig(curve="hilbert"): 0.5, IndexConfig(curve="gray"): 0.4})
        recommended = recommend_config(_schema(), IndexConfig(), [], [], cost_model=model)
        assert recommended == IndexConfig(curve="gray")

    def test_default_cost_model_is_used_when_none_is_given(self):
        schema = _schema()
        subscriptions, events = _workload(schema)
        start = IndexConfig(run_budget=1)
        assert _recommend(schema, start, subscriptions, events, CostModel()) == _recommend(
            schema, start, subscriptions, events
        )

    def test_inputs_are_left_untouched(self):
        schema = _schema()
        subscriptions, events = _workload(schema)
        subs = [(sub.sub_id, sub.ranges) for sub in subscriptions]
        probes = [event.cells for event in events]
        subs_before, probes_before = list(subs), list(probes)
        recommend_config(schema, IndexConfig(run_budget=1), subs, probes)
        assert subs == subs_before and probes == probes_before

    def test_recommended_network_does_less_work_than_the_start_network(self):
        schema = _schema()
        subscriptions, events = _workload(schema)
        start = IndexConfig(run_budget=1)
        recommended = _recommend(schema, start, subscriptions, events[:40])
        assert _match_work(recommended, subscriptions, events) < _match_work(
            start, subscriptions, events
        )

    @pytest.mark.parametrize("covering", ["approximate", "exact"])
    def test_recommended_network_keeps_the_pinned_routing_digest(self, covering):
        """A recommended config changes index work, never forwarding decisions.

        Same pin as the backend and curve digests in test_backend_parity and
        test_seed_determinism: the churn script's links all sit below the
        probe schedule's size, so approximate covering decides as exact does.
        """
        scenario = stock_market_scenario(
            num_subscriptions=25, num_events=10, order=7, seed=5
        )
        schema = scenario.schema
        start = IndexConfig(epsilon=0.2, cube_budget=500, run_budget=1)
        recommended = recommend_config(
            schema,
            start,
            [
                (f"s{i}", Subscription(schema, constraints).ranges)
                for i, constraints in enumerate(scenario.subscriptions)
            ],
            [Event(schema, values).cells for values in scenario.events],
        )
        assert recommended != start
        network = BrokerNetwork.from_topology(
            schema,
            tree_topology(7),
            covering=covering,
            config=recommended,
            matching="sfc",
            seed=5,
        )
        script = subscription_churn_script(scenario, list(range(7)), seed=3)
        run_scripted_lockstep(network, script)
        assert _digest(network.routing_state()) == "c6ad33953fcabcc0"

    def test_recommended_network_delivers_as_the_start_network(self):
        """The recommended ≡ static differential: a config never changes semantics."""
        schema = _schema()
        subscriptions, events = _workload(schema)
        start = IndexConfig(run_budget=1)
        recommended = _recommend(schema, start, subscriptions, events[:40])
        assert recommended != start
        delivered = _drive(start, subscriptions, events)
        assert any(delivered)
        assert _drive(recommended, subscriptions, events) == delivered
