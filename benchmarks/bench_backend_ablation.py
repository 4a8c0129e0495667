"""Ablation — SFC-array backend choice (flat array vs skip list vs AVL vs sorted list).

DESIGN.md lists the ordered-map backend as a design choice worth ablating: the
paper only requires "any dynamic unidimensional data structure".  The first
bench measures a mixed insert/probe workload against each ordered-map backend
(``BACKEND_NAMES`` now includes the flattened sorted array that is the
default) so the default can be justified with numbers; the second measures a
mixed subscribe/publish/withdraw workload at the :class:`MatchIndex` level,
where the flattened segment store and its sharded composite are additional
backends.
"""

from __future__ import annotations

import random

import pytest

from repro.geometry.universe import Universe
from repro.index.backends import BACKEND_NAMES
from repro.index.config import MATCH_BACKEND_NAMES, IndexConfig
from repro.index.sfc_array import SFCArray
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.sharded_index import ShardedMatchIndex
from repro.sfc.zorder import ZOrderCurve


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_mixed_workload(benchmark, backend):
    universe = Universe(dims=4, order=10)
    curve = ZOrderCurve(universe)
    rng = random.Random(7)
    inserts = [tuple(rng.randint(0, 1023) for _ in range(4)) for _ in range(2_000)]
    probes = []
    for _ in range(2_000):
        lo = rng.randint(0, universe.max_key)
        probes.append((lo, min(universe.max_key, lo + (1 << 22))))

    def workload():
        array = SFCArray(curve, backend=backend, seed=1)
        hits = 0
        for i, point in enumerate(inserts):
            array.add(i, point)
            if array.first_in_key_range(probes[i]) is not None:
                hits += 1
        for i in range(0, len(inserts), 4):
            array.remove(i)
        for key_range in probes[len(inserts):]:
            if array.first_in_key_range(key_range) is not None:
                hits += 1
        return hits

    benchmark(workload)


@pytest.mark.parametrize("backend", MATCH_BACKEND_NAMES + ("sharded",))
def test_match_index_mixed_workload(benchmark, backend):
    """Subscribe / publish / withdraw churn per match-index backend.

    Same workload for every backend (including the sharded composite, run
    with inline workers so the bench measures partitioning rather than IPC);
    answers are identical by the parity suite, so the only thing this bench
    can show is speed.
    """
    schema = AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=8
    )
    side = 1 << 8
    rng = random.Random(11)
    subs = []
    for sid in range(1_500):
        lo_x, lo_y = rng.randrange(side), rng.randrange(side)
        subs.append(
            (
                sid,
                (
                    (lo_x, min(side - 1, lo_x + rng.randrange(24))),
                    (lo_y, min(side - 1, lo_y + rng.randrange(24))),
                ),
            )
        )
    events = [(rng.randrange(side), rng.randrange(side)) for _ in range(1_500)]

    def workload():
        if backend == "sharded":
            index = ShardedMatchIndex(schema, config=IndexConfig(shards=4), workers="inline")
        else:
            index = MatchIndex(schema, config=IndexConfig(backend=backend))
        index.add_batch(subs[: len(subs) // 2])
        matches = 0
        for sid, ranges in subs[len(subs) // 2 :]:
            index.add(sid, ranges)
        for cells in events:
            matches += len(index.matching_ids(cells))
        for sid in range(0, len(subs), 3):
            index.remove(sid)
        matches += sum(index.any_match_batch(events))
        return matches

    benchmark(workload)
