"""E-SIM-LATENCY — flash-crowd delivery latency on the simulated transport.

The paper's safety claim (approximate covering never loses events) is checked
elsewhere on a synchronous, failure-free overlay; this benchmark exercises it
under production-shaped conditions: per-link latency (fixed / uniform-jitter /
distance-based), bounded per-broker inboxes with backpressure, and a
flash-crowd publish burst, across tree / chain / star topologies.  Every row
must report zero missed deliveries — timing and queueing may stretch the
latency tail but may not lose an event.

A second pass runs a rolling-broker-failure script (crash → traffic → recover)
and asserts the audit stays clean for surviving, reachable subscribers.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_sim_latency_experiment
from repro.analysis.reporting import ResultTable
from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork, chain_topology, star_topology, tree_topology
from repro.sim import SimTransport, UniformJitterLatency
from repro.workloads.dynamics import rolling_failures_script, run_dynamic_scenario
from repro.workloads.scenarios import sensor_network_scenario

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_SIZES = dict(
    num_brokers=5 if _SMOKE else 9,
    num_subscriptions=20 if _SMOKE else 80,
    num_events=12 if _SMOKE else 48,
)


def test_sim_latency_flash_crowd(run_once, record_table):
    table = run_once(run_sim_latency_experiment, epsilon=0.2, seed=29, **_SIZES)
    record_table("sim_latency", table)
    assert len(table.rows) == 9  # 3 latency models x 3 topologies
    # Safety under load: bounded queues delay, they never drop.
    assert all(row["missed"] == 0 for row in table.rows)
    # Latency is real: the percentiles must reflect actual propagation time.
    assert all(row["latency_p90"] > 0 for row in table.rows)
    # Topology shows up in the hop distribution: a chain stretches paths at
    # least as far as a star's two-hop worst case.
    by_key = {(row["latency_model"], row["topology"]): row for row in table.rows}
    for model in ("fixed", "uniform", "distance"):
        assert by_key[(model, "chain")]["hops_p90"] >= by_key[(model, "star")]["hops_p90"]


def test_sim_rolling_failures_audit_clean(run_once, record_table):
    num_brokers = _SIZES["num_brokers"]
    scenario = sensor_network_scenario(
        num_subscriptions=_SIZES["num_subscriptions"],
        num_events=_SIZES["num_events"],
        order=8,
        seed=31,
    )
    broker_ids = list(range(num_brokers))

    def run() -> ResultTable:
        table = ResultTable("E-SIM-CHURN: rolling broker failures, audit for survivors")
        for name, topology in (
            ("tree", tree_topology(num_brokers)),
            ("chain", chain_topology(num_brokers)),
            ("star", star_topology(num_brokers)),
        ):
            transport = SimTransport(
                UniformJitterLatency(0.2, 0.4),
                inbox_capacity=16,
                service_time=0.01,
                seed=17,
            )
            network = BrokerNetwork.from_topology(
                scenario.schema,
                topology,
                covering="approximate",
                config=IndexConfig(epsilon=0.2),
                transport=transport,
            )
            script = rolling_failures_script(
                scenario,
                broker_ids,
                crash_ids=[broker_ids[-1], broker_ids[-2]],
                seed=19,
            )
            report = run_dynamic_scenario(network, script, name=f"rolling/{name}")
            row = report.summary_row()
            row["resynced"] = sum(
                stats.subscriptions_resynced for stats in report.stats.per_broker.values()
            )
            table.add(**row)
        return table

    table = run_once(run)
    record_table("sim_rolling_failures", table)
    assert all(row["missed_deliveries"] == 0 for row in table.rows)
    # Recovery traffic happened: neighbours replayed forwarded state.
    assert all(row["resynced"] > 0 for row in table.rows)
