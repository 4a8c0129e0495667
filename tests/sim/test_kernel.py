"""Tests for the discrete-event kernel: ordering, determinism, clock rules."""

from __future__ import annotations

import pytest

from repro.sim.kernel import EventKernel


class TestScheduling:
    def test_runs_in_time_order(self):
        kernel = EventKernel(seed=0)
        order = []
        kernel.schedule_at(3.0, lambda: order.append("c"))
        kernel.schedule_at(1.0, lambda: order.append("a"))
        kernel.schedule_at(2.0, lambda: order.append("b"))
        kernel.run()
        assert order == ["a", "b", "c"]
        assert kernel.now == 3.0

    def test_relative_schedule_uses_current_time(self):
        kernel = EventKernel(seed=0)
        times = []
        kernel.schedule(1.0, lambda: kernel.schedule(1.5, lambda: times.append(kernel.now)))
        kernel.run()
        assert times == [2.5]

    def test_cannot_schedule_in_the_past(self):
        kernel = EventKernel(seed=0)
        kernel.schedule_at(1.0, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        kernel = EventKernel(seed=0)
        with pytest.raises(ValueError):
            kernel.schedule(-0.1, lambda: None)

    def test_actions_may_schedule_more_actions(self):
        kernel = EventKernel(seed=0)
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                kernel.schedule(1.0, lambda: chain(n + 1))

        kernel.schedule(0.0, lambda: chain(0))
        kernel.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert kernel.pending == 0


class TestDeterminism:
    def _tie_order(self, seed):
        kernel = EventKernel(seed=seed)
        order = []
        for label in "abcdefgh":
            kernel.schedule_at(1.0, lambda label=label: order.append(label))
        kernel.run()
        return order

    def test_same_seed_same_tie_breaking(self):
        assert self._tie_order(42) == self._tie_order(42)

    def test_schedule_equals_schedule_at_now_plus_delay(self):
        # schedule() pushes its own heap entry rather than calling
        # schedule_at(); both must draw the same tie-breaks in the same order.
        def run(relative):
            kernel = EventKernel(seed=11)
            order = []
            kernel.schedule_at(0.5, lambda: None)
            kernel.run()
            delays = [1.0, 0.0, 1.0, 2.5, 0.0, 1.0, 2.5, 1.0] * 3
            for i, delay in enumerate(delays):
                if relative:
                    kernel.schedule(delay, order.append, i)
                else:
                    kernel.schedule_at(kernel.now + delay, order.append, i)
            kernel.run()
            return order, kernel.now, kernel.executed

        assert run(relative=True) == run(relative=False)

    def test_different_seed_can_reorder_ties(self):
        # Seeded tie-breaking means simultaneous actions are not FIFO-biased:
        # across seeds the order of identical timestamps varies.
        orders = {tuple(self._tie_order(seed)) for seed in range(8)}
        assert len(orders) > 1


class TestBoundedRuns:
    def test_run_until_stops_and_advances_clock(self):
        kernel = EventKernel(seed=0)
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append(1))
        kernel.schedule_at(5.0, lambda: seen.append(5))
        steps = kernel.run(until=2.0)
        assert steps == 1 and seen == [1]
        assert kernel.now == 2.0
        assert kernel.pending == 1
        kernel.run()
        assert seen == [1, 5]

    def test_max_steps(self):
        kernel = EventKernel(seed=0)
        for i in range(10):
            kernel.schedule_at(float(i), lambda: None)
        assert kernel.run(max_steps=4) == 4
        assert kernel.pending == 6
