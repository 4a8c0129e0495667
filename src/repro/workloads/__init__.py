"""Synthetic workload generators, scenarios, topologies and dynamic scripts.

Generated subscription centres and events are uniform over the grid, and a
script's timeline is fixed but for its ``settle`` window.
"""

from .dynamics import (
    Action,
    AuditEntry,
    DynamicReport,
    flash_crowd_script,
    netsplit_heal_script,
    region_netsplit_script,
    rolling_failures_script,
    rolling_upgrade_script,
    run_dynamic_scenario,
    subscription_churn_script,
)
from .generators import (
    EventWorkload,
    SubscriptionSpec,
    SubscriptionWorkload,
    covering_chain,
    random_extremal_lengths,
)
from .scenarios import (
    Scenario,
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)
from .topologies import (
    TOPOLOGY_CLASSES,
    Topology,
    grid_cluster_topology,
    make_topology,
    scale_free_topology,
    skewed_tree_topology,
    spanning_tree_overlay,
)

__all__ = [
    "Action",
    "AuditEntry",
    "DynamicReport",
    "flash_crowd_script",
    "netsplit_heal_script",
    "region_netsplit_script",
    "rolling_failures_script",
    "rolling_upgrade_script",
    "run_dynamic_scenario",
    "subscription_churn_script",
    "EventWorkload",
    "SubscriptionSpec",
    "SubscriptionWorkload",
    "covering_chain",
    "random_extremal_lengths",
    "Scenario",
    "auction_scenario",
    "sensor_network_scenario",
    "stock_market_scenario",
    "TOPOLOGY_CLASSES",
    "Topology",
    "grid_cluster_topology",
    "make_topology",
    "scale_free_topology",
    "skewed_tree_topology",
    "spanning_tree_overlay",
]
