"""The four workloads: what is set up, what one window of timed ops holds, why.

Sizes were fitted on a 2-core box to the benchmark contract's time cap (70
runs of the three gated workloads inside 57 minutes, so about 35 s per run,
set-up included): set-up loads ``preload`` subscriptions in bulk three times
over; the timed phase then runs *windows*, each a seeded shuffle of the same
number of subscribes, unsubscribes (of one of the oldest live subscriptions)
and publishes, so the table stays at ``preload`` entries and every window is
the same kind of work.

The first ``fixed_windows`` windows always run — the *fixed section*, equal
work on any machine, over which every count is taken — and further windows
follow until ``--seconds`` have passed.  ``fixed_windows`` is sized so the
fixed section alone gives each reported percentile at least ten samples
beyond it (100 subscribes for p90, 200 publishes for p95).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SECONDS", "SMOKE_DIVISOR"]

#: ``run_seconds`` of BENCHMARK.json: how long the timed phase of one run lasts.
DEFAULT_SECONDS = 25

#: ``--smoke`` divides every size by this (and runs the fixed section only).
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overlay: str
    transport: str
    scenario: str
    #: Subscriptions bulk-loaded by set-up (``subscribe_batch`` per broker).
    preload: int
    #: Ops of each kind in one window.
    subscribes: int
    unsubscribes: int
    publishes: int
    #: Windows that always run; counts are taken over exactly these.
    fixed_windows: int
    #: Extra publishes after the timed phase, every one checked, none timed.
    audit_publishes: int = 200
    #: Listed in BENCHMARK.json, i.e. run by the driver that gates changes.
    gated: bool = True

    def smoke(self) -> "Workload":
        """The same workload at 1/20 of the size, for tests."""

        def shrink(value: int, floor: int) -> int:
            return max(floor, value // SMOKE_DIVISOR)

        return replace(
            self,
            preload=shrink(self.preload, 4),
            subscribes=shrink(self.subscribes, 2),
            unsubscribes=shrink(self.unsubscribes, 2),
            publishes=shrink(self.publishes, 5),
            fixed_windows=2,
            audit_publishes=shrink(self.audit_publishes, 10),
        )


_ALL: List[Workload] = [
    Workload(
        name="sub-tree7-sync",
        why="Write path: decomposition, covering check, profile cache and MatchIndex.add "
        "do ~all the work; matching and transport almost none.",
        overlay="tree7",
        transport="sync",
        scenario="stock",
        preload=50,
        subscribes=24,
        unsubscribes=24,
        publishes=150,
        fixed_windows=12,
    ),
    Workload(
        name="pub-chain3-sync",
        why="Read-heavy: 98% of the ops and about half of the time are publishes; the local "
        "delivery scan, keying, MatchIndex stab and forwarding carry them. Writes keep the table churning.",
        overlay="chain3",
        transport="sync",
        scenario="stock",
        preload=80,
        subscribes=12,
        unsubscribes=12,
        publishes=1200,
        fixed_windows=24,
    ),
    Workload(
        name="churn-grid12-sim",
        why="Same layers used differently: removes and promotions beside adds, reads between "
        "writes, on the event kernel; a subscribe gain paid back on unsubscribe shows here.",
        overlay="grid12",
        transport="sim",
        scenario="sensor",
        preload=64,
        subscribes=20,
        unsubscribes=20,
        publishes=100,
        fixed_windows=16,
    ),
    Workload(
        name="pub-tree7-net",
        why="Loopback TCP: transport and wire codec dominate a publish; a codec or "
        "quiescence win shows here and nowhere else.",
        overlay="tree7",
        transport="net",
        scenario="stock",
        preload=40,
        subscribes=13,
        unsubscribes=13,
        publishes=400,
        fixed_windows=12,
        # Its publish latency is cross-thread hand-offs over loopback, and this
        # host has two regimes for those, minutes long and 66 % apart (ten runs
        # at 0.72 ms median, ten more a quarter of an hour later at 1.20 ms,
        # the sync workloads unmoved): no bound of 25 % or less can gate it.
        gated=False,
    ),
]

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _ALL}
