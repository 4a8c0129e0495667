"""Rebuild-swap soundness: tuner swaps are invisible to delivery.

An interface table's staged rebuild + atomic generation swap re-indexes a
live interface under a different :class:`~repro.index.config.IndexConfig`
mid-stream.  Any config answers matching queries identically (the rectangle
fallback restores exactness), so swaps — injected at arbitrary points into
arbitrary subscribe/publish/unsubscribe interleavings — must never change a
delivery set.  A linear-matching oracle network pins the ground truth, and a
same-seed digest pins the tuned network's converged routing state.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.obs.registry import MetricsRegistry
from repro.pubsub import BrokerNetwork, make_event, make_subscription, tree_topology
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario

ORDER = 5  # 32×32 value cells — small enough for dense random coverage


def _schema():
    return AttributeSchema(
        [Attribute("x", 0.0, 32.0), Attribute("y", 0.0, 32.0)], order=ORDER
    )


# Swap targets deliberately span curves, run budgets and backends — including
# a curve different from the routing table's, exercising the key-compat path.
SWAP_CONFIGS = [
    IndexConfig(curve="hilbert", run_budget=4),
    IndexConfig(curve="gray", run_budget=2),
    IndexConfig(curve="zorder", run_budget=1),
    IndexConfig(curve="hilbert", backend="avl", run_budget=8),
]

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("sub"),
            st.integers(0, 25),  # lo_x
            st.integers(1, 12),  # width_x
            st.integers(0, 25),  # lo_y
            st.integers(1, 12),  # width_y
            st.integers(0, 2),  # broker
        ),
        st.tuples(st.just("unsub"), st.integers(0, 100)),
        st.tuples(
            st.just("pub"),
            st.integers(0, 31),
            st.integers(0, 31),
            st.integers(0, 2),
        ),
        st.tuples(st.just("stage"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("commit"), st.integers(0, 2)),
    ),
    min_size=5,
    max_size=40,
)


@given(ops=_ops)
@settings(deadline=None)
def test_interleavings_with_swaps_match_linear_oracle(ops):
    schema = _schema()
    sfc = BrokerNetwork.from_topology(
        schema, tree_topology(3), matching="sfc", seed=1
    )
    oracle = BrokerNetwork.from_topology(schema, tree_topology(3), seed=1)
    active = []
    counter = 0
    for op in ops:
        if op[0] == "sub":
            _, lo_x, w_x, lo_y, w_y, broker = op
            sub_id = f"s{counter}"
            client = f"c{counter}"
            counter += 1
            for network in (sfc, oracle):
                network.subscribe(
                    broker,
                    client,
                    make_subscription(
                        schema,
                        sub_id,
                        x=(float(lo_x), float(min(32, lo_x + w_x))),
                        y=(float(lo_y), float(min(32, lo_y + w_y))),
                    ),
                )
            active.append((client, sub_id))
        elif op[0] == "unsub":
            if not active:
                continue
            client, sub_id = active.pop(op[1] % len(active))
            assert sfc.unsubscribe(client, sub_id)
            assert oracle.unsubscribe(client, sub_id)
        elif op[0] == "pub":
            _, x, y, broker = op
            event_id = f"e{counter}"
            counter += 1
            event = make_event(
                schema, event_id, x=float(x) + 0.5, y=float(y) + 0.5
            )
            assert sfc.publish(broker, event) == oracle.publish(broker, event)
        elif op[0] == "stage":
            _, broker, config_index = op
            for table in sfc.brokers[broker].routing_table.interface_tables().values():
                if table.match_index is not None and table.staged_config is None:
                    table.begin_rebuild(SWAP_CONFIGS[config_index])
        elif op[0] == "commit":
            _, broker = op
            for table in sfc.brokers[broker].routing_table.interface_tables().values():
                if table.staged_config is not None:
                    table.commit_rebuild()


def test_mixed_curve_swap_keeps_deliveries_exact():
    """Key-compat regression: a swap onto a foreign curve must recompute keys.

    The routing table precomputes each event's key under *its* curve; after
    an interface swaps to a different curve that key indexes garbage — the
    table must fall back to recomputing, or events silently vanish.
    """
    schema = _schema()
    swapped = BrokerNetwork.from_topology(
        schema, tree_topology(3), matching="sfc", config=IndexConfig(curve="zorder"), seed=2
    )
    control = BrokerNetwork.from_topology(
        schema, tree_topology(3), matching="sfc", config=IndexConfig(curve="zorder"), seed=2
    )
    rng = random.Random(9)
    for i in range(40):
        lo_x, lo_y = rng.uniform(0, 25), rng.uniform(0, 25)
        sub = make_subscription(
            schema,
            f"s{i}",
            x=(lo_x, lo_x + rng.uniform(1, 6)),
            y=(lo_y, lo_y + rng.uniform(1, 6)),
        )
        for network in (swapped, control):
            network.subscribe(i % 3, f"c{i}", sub)
    foreign = IndexConfig(curve="hilbert", run_budget=4)
    for broker in swapped.brokers.values():
        for table in broker.routing_table.interface_tables().values():
            if table.match_index is not None:
                table.begin_rebuild(foreign)
                table.commit_rebuild()
                assert table.match_index.curve.kind == "hilbert"
                assert table.generation == 1
    delivered_any = False
    for j in range(60):
        event = make_event(
            schema, f"e{j}", x=rng.uniform(0, 32), y=rng.uniform(0, 32)
        )
        expected = control.publish(j % 3, event)
        assert swapped.publish(j % 3, event) == expected
        delivered_any = delivered_any or bool(expected)
    assert delivered_any  # the comparison must not be vacuous


class TestRebuildApi:
    def _table(self):
        table = InterfaceTable(
            "if0", schema=_schema(), matching="sfc", config=IndexConfig()
        )
        table.add(make_subscription(_schema(), "s0", x=(1.0, 5.0), y=(2.0, 6.0)))
        return table

    def test_linear_table_cannot_rebuild(self):
        table = InterfaceTable("if0")
        with pytest.raises(ValueError, match="matching='sfc'"):
            table.begin_rebuild(IndexConfig())

    def test_double_stage_rejected(self):
        table = self._table()
        table.begin_rebuild(IndexConfig(curve="hilbert"))
        with pytest.raises(ValueError, match="already staged"):
            table.begin_rebuild(IndexConfig(curve="gray"))

    def test_commit_without_stage_rejected(self):
        with pytest.raises(ValueError, match="no staged rebuild"):
            self._table().commit_rebuild()

    def test_abort_discards_stage(self):
        table = self._table()
        assert not table.abort_rebuild()
        table.begin_rebuild(IndexConfig(curve="hilbert"))
        assert table.abort_rebuild()
        assert table.staged_config is None
        assert table.generation == 0

    def test_match_stats_monotone_across_swap(self):
        table = self._table()
        schema = _schema()
        for j in range(10):
            table.matching(make_event(schema, f"e{j}", x=3.0, y=4.0))
        before = table.match_stats()
        table.begin_rebuild(IndexConfig(curve="hilbert", run_budget=2))
        table.commit_rebuild()
        after = table.match_stats()
        assert after.lookups == before.lookups
        assert after.candidates_checked == before.candidates_checked
        # The rebuild's bulk reload is real work: inserts may only grow.
        assert after.inserts >= before.inserts
        for j in range(5):
            table.matching(make_event(schema, f"f{j}", x=3.0, y=4.0))
        assert table.match_stats().lookups == before.lookups + 5


def test_scrape_reports_per_interface_series(monkeypatch):
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)  # absence check below
    schema = _schema()
    network = BrokerNetwork.from_topology(
        schema,
        tree_topology(3),
        matching="sfc",
        seed=4,
        metrics=MetricsRegistry(),
    )
    network.subscribe(
        0, "c0", make_subscription(schema, "s0", x=(1.0, 9.0), y=(1.0, 9.0))
    )
    network.publish(2, make_event(schema, "e0", x=4.0, y=4.0))
    scrape = network.scrape()
    assert "match_interface_total" in scrape
    assert 'gauge="segments"' in scrape
    assert 'counter="false_positives"' in scrape
    # No tuner attached → no tuner series (absence is meaningful: the
    # exposition stays byte-stable for untuned networks).
    assert "autotuner_total" not in scrape


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def test_tuned_network_digest_pin():
    """Same-seed tuned runs converge to one pinned routing state.

    The tuner's decisions are part of the deterministic surface: if this
    digest moves, tuning behaviour changed (not just performance) — re-pin
    only with an explanation in the same commit.
    """
    scenario = stock_market_scenario(
        num_subscriptions=25, num_events=10, order=7, seed=5
    )
    digests = set()
    swaps = 0
    for covering in ("approximate", "approximate", "exact"):
        network = BrokerNetwork.from_topology(
            scenario.schema,
            tree_topology(7),
            covering=covering,
            config=IndexConfig(epsilon=0.2, cube_budget=500, run_budget=1),
            matching="sfc",
            seed=5,
        )
        tuner = network.attach_tuner(
            drift_threshold=0.05, min_lookups=4, cooldown=1
        )
        script = subscription_churn_script(scenario, list(range(7)), seed=3)
        run_scripted_lockstep(network, script)
        digests.add(_digest(network.routing_state()))
        swaps = tuner.counters()["swaps"]
    # Same digest as the backend and curve pins in test_backend_parity /
    # test_seed_determinism: routing state is forwarding decisions, which
    # tuning never changes — only the per-interface index work differs.  The
    # third run is the same script under exact covering: every link stays
    # below the probe schedule's size, where approximate covering compares
    # the forwarded set directly and decides as exact does.
    assert digests == {"c6ad33953fcabcc0"}
    assert swaps >= 0
