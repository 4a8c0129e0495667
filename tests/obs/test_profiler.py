"""Hot-path profiler: aggregation, outside wrapping, behaviour neutrality."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from repro.index.config import IndexConfig
from repro.obs.profiler import (
    HOT_PATHS,
    PROF_ENV,
    PROFILER,
    HotPath,
    HotPathProfiler,
    _resolve,
    profiling_requested,
)
from repro.obs.registry import MetricsRegistry
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.routing_table import InterfaceTable
from repro.pubsub.subscription import Event, Subscription
from repro.sim.latency import UniformJitterLatency
from repro.sim.transport import SimTransport
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario

FOUR = {
    "match_index.any_match",
    "match_index.matching_ids",
    "broker.covering_check",
    "flat_store.rebuild",
}


class _Work:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise RuntimeError("x")


_PLAIN_ADD = _Work.__dict__["add"]


class _WorkProfiler(HotPathProfiler):
    """A profiler over ``_Work`` instead of the stack's hot paths."""

    hot_paths = (
        HotPath("work.add", f"{__name__}._Work", "add"),
        HotPath("work.boom", f"{__name__}._Work", "boom"),
    )


def _owner_attrs():
    """``(owner class, attribute, function stored on it now)`` per global hot path."""
    out = []
    for path in HOT_PATHS:
        owner = _resolve(path.owner)
        out.append((owner, path.attr, owner.__dict__[path.attr]))
    return out


@pytest.fixture
def global_profiler():
    """The process-wide profiler, enabled and cleared; put back as found."""
    was_enabled = PROFILER.enabled
    PROFILER.disable()
    PROFILER.clear()
    PROFILER.enable()
    try:
        yield PROFILER
    finally:
        PROFILER.disable()
        PROFILER.clear()
        if was_enabled:
            PROFILER.enable()


@pytest.fixture
def profiler_off():
    was_enabled = PROFILER.enabled
    PROFILER.disable()
    try:
        yield PROFILER
    finally:
        if was_enabled:
            PROFILER.enable()


class TestHotPathProfiler:
    def test_aggregates_per_name(self):
        prof = HotPathProfiler()
        prof.record("x", 0.2)
        prof.record("x", 0.4)
        prof.record("y", 1.0)
        summary = prof.summary()
        assert list(summary) == ["x", "y"]
        assert summary["x"]["calls"] == 2
        assert summary["x"]["total_s"] == pytest.approx(0.6)
        assert summary["x"]["mean_s"] == summary["x"]["total_s"] / 2
        assert summary["x"]["min_s"] == 0.2
        assert summary["x"]["max_s"] == 0.4

    def test_rows_mirror_summary(self):
        prof = HotPathProfiler()
        prof.record("x", 1.0)
        (row,) = prof.rows()
        assert row["hot_path"] == "x" and row["calls"] == 1

    def test_clear(self):
        prof = HotPathProfiler()
        prof.record("x", 1.0)
        prof.clear()
        assert len(prof) == 0


class TestOutsideWrapping:
    def test_disabled_profiler_records_nothing(self):
        prof = _WorkProfiler()
        assert _Work().add(1, 2) == 3
        assert len(prof) == 0
        assert _Work.__dict__["add"] is _PLAIN_ADD

    def test_enabled_profiler_times_calls(self):
        clock_values = iter([0.0, 0.25, 1.0, 1.5])
        prof = _WorkProfiler(clock=lambda: next(clock_values))
        prof.enable()
        try:
            assert _Work().add(1, 2) == 3
            assert _Work().add(2, 2) == 4
        finally:
            prof.disable()
        summary = prof.summary()["work.add"]
        assert summary["calls"] == 2
        assert summary["total_s"] == 0.75

    def test_enabled_flag_switches_wrapping(self):
        prof = _WorkProfiler()
        _Work().add(1, 1)
        prof.enabled = True
        try:
            assert prof.enabled
            _Work().add(1, 1)
        finally:
            prof.enabled = False
        _Work().add(1, 1)
        assert not prof.enabled
        # Only the call made while enabled was timed; disabling keeps timings.
        assert prof.summary()["work.add"]["calls"] == 1

    def test_exceptions_still_recorded(self):
        prof = _WorkProfiler()
        prof.enable()
        try:
            with pytest.raises(RuntimeError):
                _Work().boom()
        finally:
            prof.disable()
        assert prof.summary()["work.boom"]["calls"] == 1

    def test_disable_restores_the_plain_function(self):
        prof = _WorkProfiler()
        prof.enable()
        try:
            wrapped = _Work.__dict__["add"]
            assert wrapped is not _PLAIN_ADD
            assert wrapped.__wrapped__ is _PLAIN_ADD
            assert wrapped.__name__ == "add"
        finally:
            prof.disable()
        assert _Work.__dict__["add"] is _PLAIN_ADD

    def test_enable_and_disable_are_idempotent(self):
        prof = _WorkProfiler()
        prof.enable()
        prof.enable()
        try:
            _Work().add(1, 1)
        finally:
            prof.disable()
        prof.disable()
        assert _Work.__dict__["add"] is _PLAIN_ADD
        assert prof.summary()["work.add"]["calls"] == 1


def _summary_workload():
    """Touch every hot path at least once: an indexed network."""
    scenario = stock_market_scenario(num_subscriptions=24, num_events=6, order=6, seed=3)
    schema = scenario.schema
    subscriptions = [
        Subscription(schema, constraints, sub_id=f"s{i}")
        for i, constraints in enumerate(scenario.subscriptions)
    ]
    events = [Event(schema, values, event_id=f"e{i}") for i, values in enumerate(scenario.events)]
    network = BrokerNetwork.from_topology(
        schema, tree_topology(3), covering="approximate", seed=1,
        metrics=MetricsRegistry(),
    )
    # Every table indexes from its first subscription, so a probe reaches the index.
    with patch.object(InterfaceTable, "SCAN_LIMIT", 0):
        for i, subscription in enumerate(subscriptions):
            network.subscribe(i % 3, f"c{i}", subscription)
    for i, event in enumerate(events):
        network.publish(i % 3, event)
    return network


class TestGlobalProfiler:
    def test_env_gate_matches_import_state(self):
        assert isinstance(PROFILER, HotPathProfiler)
        assert PROF_ENV == "REPRO_PROF"
        assert PROFILER.hot_paths == HOT_PATHS

    def test_hot_path_table_names_the_four(self):
        assert {path.name for path in HOT_PATHS} == FOUR
        assert len(HOT_PATHS) == len(FOUR)

    def test_off_every_hot_path_is_the_plain_function(self, profiler_off):
        for owner, attr, stored in _owner_attrs():
            assert not hasattr(stored, "__wrapped__"), (owner, attr)
            assert stored.__qualname__ == f"{owner.__name__}.{attr}"

    def test_disable_restores_plain_functions_by_identity(self, profiler_off):
        plain = _owner_attrs()
        PROFILER.enable()
        try:
            for (owner, attr, original), (_, _, now) in zip(plain, _owner_attrs()):
                assert now is not original and now.__wrapped__ is original, attr
        finally:
            PROFILER.disable()
        for (_, attr, original), (_, _, now) in zip(plain, _owner_attrs()):
            assert now is original, attr

    def test_summary_holds_the_four_names(self, global_profiler):
        _summary_workload()
        summary = global_profiler.summary()
        assert set(summary) == FOUR
        assert all(row["calls"] > 0 for row in summary.values())

    def test_repro_prof_env_enables_at_import(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import repro\n"
            "from repro.obs.profiler import PROFILER\n"
            "from repro.pubsub.match_index import MatchIndex\n"
            "print(PROFILER.enabled, hasattr(MatchIndex.any_match, '__wrapped__'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src), PROF_ENV: "1"}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["True", "True"]
        env[PROF_ENV] = "0"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "False"]

    def test_profiling_requested_reads_the_env(self, monkeypatch):
        monkeypatch.setenv(PROF_ENV, "1")
        assert profiling_requested()
        monkeypatch.setenv(PROF_ENV, "0")
        assert not profiling_requested()
        monkeypatch.delenv(PROF_ENV)
        assert not profiling_requested()


def _lockstep(transport_kind):
    """A scripted churn storm on an indexed tree; what it delivered and left behind."""
    scenario = stock_market_scenario(num_subscriptions=40, num_events=16, order=8, seed=7)
    script = subscription_churn_script(scenario, list(range(7)), seed=3)
    transport = (
        SimTransport(UniformJitterLatency(0.05, 0.2), seed=5)
        if transport_kind == "sim"
        else None
    )
    network = BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(7),
        covering="approximate",
        config=IndexConfig(),
        transport=transport,
        seed=2,
    )
    with patch.object(InterfaceTable, "SCAN_LIMIT", 0):
        run_scripted_lockstep(network, script)
    return list(network.deliveries), network.routing_state(), network.transport.stats.as_dict()


class TestBehaviourNeutral:
    @pytest.mark.parametrize("transport_kind", ["sync", "sim"])
    def test_profiled_lockstep_equals_unprofiled(self, transport_kind, profiler_off):
        plain = _lockstep(transport_kind)
        PROFILER.enable()
        try:
            profiled_run = _lockstep(transport_kind)
            assert PROFILER.summary()["match_index.any_match"]["calls"] > 0
        finally:
            PROFILER.disable()
            PROFILER.clear()
        assert plain[0], "the script must deliver something"
        assert profiled_run == plain


class TestHotPathScrape:
    def test_disabled_profiler_adds_no_series(self, profiler_off):
        assert "hot_path" not in _summary_workload().scrape()

    def test_enabled_profiler_exports_summary(self, global_profiler):
        network = _summary_workload()
        text = network.scrape()
        summary = global_profiler.summary()
        for path in FOUR:
            assert f'repro_hot_path_calls_total{{path="{path}"}}' in text
            assert f'repro_hot_path_seconds_total{{path="{path}"}}' in text
        calls = network.metrics.get("hot_path_calls_total")
        assert calls.value(path="broker.covering_check") == summary["broker.covering_check"]["calls"]

    def test_series_leave_the_scrape_when_the_profiler_is_disabled(self, global_profiler):
        network = _summary_workload()
        assert "hot_path" in network.scrape()
        global_profiler.disable()
        assert "hot_path" not in network.scrape()
        assert network.metrics.get("hot_path_calls_total") is None
        global_profiler.enable()
        assert "hot_path" in network.scrape()

    def test_cleared_paths_leave_the_scrape(self, global_profiler):
        network = _summary_workload()
        network.scrape()
        global_profiler.clear()
        values = stock_market_scenario(num_subscriptions=1, num_events=1, order=6, seed=3).events[0]
        network.publish(0, Event(network.schema, values, event_id="after-clear"))
        text = network.scrape()
        assert 'path="flat_store.rebuild"' not in text
        assert 'path="broker.covering_check"' not in text
        calls = network.metrics.get("hot_path_calls_total")
        assert calls.value(path="match_index.any_match") == (
            global_profiler.summary()["match_index.any_match"]["calls"]
        )
