#!/usr/bin/env bash
# Tier-1 test suite plus a tiny-size smoke pass of the pub/sub benchmarks so
# the benchmark drivers cannot silently rot between full benchmark runs.
#
# Hypothesis effort is profile-driven (tests/conftest.py): the tier-1 pass
# digs deep with the "ci" profile; export HYPOTHESIS_PROFILE=smoke for a
# near-instant property-test pass during quick local loops.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

cleanup() {
    if [ -n "${SERVE_PID:-}" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    if [ -n "${SERVE_LOG:-}" ]; then rm -f "$SERVE_LOG"; fi
    if [ -n "${METRICS_DIR:-}" ]; then rm -rf "$METRICS_DIR"; fi
}
trap cleanup EXIT

# Wall-clock per stage: `stage NAME` closes the stage before it (bash's
# SECONDS at its start and end) and opens the next; the table at the end is
# what an argument about dropping or merging a pass (ROADMAP 4(f)) starts from.
STAGE_NAMES=()
STAGE_TIMES=()
STAGE_NAME=""
stage() {
    if [ -n "$STAGE_NAME" ]; then
        local took=$((SECONDS - STAGE_START))
        STAGE_NAMES+=("$STAGE_NAME")
        STAGE_TIMES+=("$took")
        echo "-- ${STAGE_NAME}: ${took} s"
    fi
    STAGE_NAME="$1"
    STAGE_START=$SECONDS
    if [ -n "$1" ]; then echo "== $1 =="; fi
}

stage "tier-1 tests (hypothesis profile: ${HYPOTHESIS_PROFILE:-ci})"
# Includes the cross-curve differential suite
# (tests/pubsub/test_curve_differential.py): identical scripted workloads
# under zorder/hilbert/gray must match the linear-scan flat oracle.
# Profiling is pinned here too (tests/obs/test_profiler.py): with the
# profiler wrapping its hot paths, sync and sim lockstep scripts deliver and
# route exactly as without it, and disabling it restores the plain functions.
# --durations=5 only adds output: every log names the five slowest tests.
HYPOTHESIS_PROFILE="${HYPOTHESIS_PROFILE:-ci}" python -m pytest -x -q --durations=5 tests
# The docstring examples under src/ (among them the packed rectangle tests of
# repro.geometry.universe and first_covering's scan).
python -m pytest -q --doctest-modules src

stage "benchmark smoke (tiny sizes) + full-size sim tables"
# bench_subscription_churn times the batch subscribe/withdraw APIs (loops
# over the per-call path) against sequential calls; the driver raises unless
# the two leave byte-identical routing state and equal broker counters — any
# divergence fails CI here.
# bench_ablation_visit_order and bench_index_throughput have no smoke size
# (a few seconds each at full size) and run here so their drivers keep
# running against the covering index's API.
# bench_curve_ablation's smoke pass asserts the per-event delivery sets are
# identical under every curve (the driver raises on any divergence) and that
# Hilbert needs fewer key runs than Z on the Fig. 1-style rectangle family.
# bench_match_scale's smoke pass still runs the full parity phase: the match
# index under every curve must agree with a brute-force rectangle oracle
# before anything is timed.
# The paper-figure benches have no smoke size (each full size takes a few
# seconds) and assert the paper's claims on what they measure: Fig. 1's run
# counts, Fig. 2's query regions, Theorem 3.1's bound, Lemma 3.2's retained
# volume, Theorem 4.1's lower bound, the dimensionality / aspect-ratio sweep,
# approximate vs exhaustive cost, and recall: the ε-search must stay sound,
# and at the product budget the detector's profile entry point
# (find_covering_profile, no longer on any broker's path: a link scans) must
# find every cover of a store it compares and never fewer than the plan alone
# where it probes.
# A smoke pass writes its tables to a temporary directory
# (benchmarks/conftest.py): the tracked full-size tables must come out of it
# byte-identical, whether or not they carry uncommitted re-recordings.
# The simulated-transport tables carry no timings, so their benches run only
# at full size (a few seconds) and rewrite their tracked tables in place
# (sim_latency, sim_rolling_failures, topology_scale, topology_netsplit and
# their BENCH_*.json): the same check fails if any of them no longer
# regenerates byte for byte.  That run asserts what a smoke pass would: the
# topology classes (skewed tree / scale-free / grid-of-clusters) including
# the region netsplit -> per-partition traffic -> heal scenario, with the
# partition-aware audit clean in every phase.
results_listing() { find benchmarks/results -type f -exec cksum {} + | sort -k3; }
RESULTS_BEFORE=$(results_listing)
REPRO_BENCH_SMOKE=1 python -m pytest -q \
    benchmarks/bench_pubsub_propagation.py \
    benchmarks/bench_event_matching.py \
    benchmarks/bench_subscription_churn.py \
    benchmarks/bench_curve_ablation.py \
    benchmarks/bench_match_scale.py \
    benchmarks/bench_fig1_runs_hilbert_vs_z.py \
    benchmarks/bench_fig2_query_examples.py \
    benchmarks/bench_thm31_upper_bound.py \
    benchmarks/bench_lem32_volume_coverage.py \
    benchmarks/bench_thm41_lower_bound.py \
    benchmarks/bench_dimensionality_aspect.py \
    benchmarks/bench_approx_vs_exhaustive.py \
    benchmarks/bench_recall_vs_epsilon.py \
    benchmarks/bench_ablation_visit_order.py \
    benchmarks/bench_index_throughput.py
python -m pytest -q benchmarks/bench_sim_latency.py benchmarks/bench_topology_scale.py
# The micro-operation benches (the detector's constructor among them), each
# body run once untimed, so they keep running against the API they time.
python -m pytest -q benchmarks/bench_micro_ops.py --benchmark-disable
if [ "$RESULTS_BEFORE" != "$(results_listing)" ]; then
    echo "ci.sh: a benchmark pass changed files under benchmarks/results/" \
        "(a smoke table leaked, or a full-size table no longer regenerates)" >&2
    exit 1
fi
# The flat store's cost table and the cost model's unit costs, at two small
# sizes: a 1-bit table and a 2-bit one (the gated tables' grid) with slots
# staged, so the script keeps running against the store's API.
python experiments/flat_store_costs.py --slots 4 32 --repeat 1 > /dev/null
# The same-process A/B of subscribes, as an A/A smoke: the committed HEAD
# (extracted as a second package) against the working tree, two rounds, so
# the script keeps running; it exits non-zero when the two sides' routing
# state differs.  The publish run on grid12 keeps the simulated side going:
# there the sides must also agree on the kernel's executed steps, the
# delivered messages and the delivery count after every round.
python experiments/op_ab.py --base HEAD --rounds 2 > /dev/null
python experiments/op_ab.py --base HEAD --overlay grid12 --ops pub --rounds 2 > /dev/null
# The in-process soak at its smallest size: the warm-up alone wraps the
# delivery log several times; audits must stay clean, every per-operation log
# within RETENTION and the traced heap flat (exits non-zero otherwise).
python experiments/soak.py --deliveries 20000 > /dev/null
# The repository benchmark's own harness at --smoke size: exact declared
# metric names, failed == 0, and same-seed runs agreeing on every count.
python -m pytest -q experiments/e2e/test_harness.py

stage "metrics / exposition smoke"
# The observability layer end to end: a seeded tree scenario must produce
# Prometheus text that the structural validator accepts (the CLI validates
# before printing and exits non-zero otherwise) plus a metrics.prom /
# BENCH_metrics.json pair carrying every counter family the scrape publishes.
METRICS_DIR=$(mktemp -d)
python -m repro.analysis.cli metrics --seed 17 --output "$METRICS_DIR" > /dev/null
test -s "$METRICS_DIR/metrics.prom"
test -s "$METRICS_DIR/BENCH_metrics.json"
python - "$METRICS_DIR" <<'PY'
import json, pathlib, sys
out = pathlib.Path(sys.argv[1])
from repro.obs.exposition import validate_prometheus_text
samples = validate_prometheus_text((out / "metrics.prom").read_text())
assert "repro_network_counter_total" in samples, "missing delivery counters"
assert "repro_broker_counter_total" in samples, "missing per-broker counters"
assert "repro_transport_counter_total" in samples, "missing transport counters"
assert "repro_hop_latency_seconds_bucket" in samples, "missing hop latency buckets"
json.loads((out / "BENCH_metrics.json").read_text())
PY

stage "networked loopback smoke (serve + wire protocol + /metrics)"
# Boot a 3-broker tree on ephemeral loopback ports, run the full lifecycle
# through the client library (subscribe, publish, scrape, withdraw), validate
# the Prometheus text structurally, then shut down gracefully: the serve
# process must exit 0.
SERVE_LOG=$(mktemp)
python -m repro.analysis.cli serve --topology tree --brokers 3 > "$SERVE_LOG" &
SERVE_PID=$!
python - "$SERVE_LOG" <<'PY'
import pathlib, sys, time

from repro.net import NetClient, fetch_metrics
from repro.obs.exposition import validate_prometheus_text

log = pathlib.Path(sys.argv[1])
deadline = time.time() + 30.0
addresses = {}
while time.time() < deadline:
    lines = log.read_text().splitlines()
    if "SERVING" in lines:
        for line in lines:
            if line.startswith("BROKER "):
                _, broker_id, host, port = line.split()
                addresses[int(broker_id)] = (host, int(port))
        break
    time.sleep(0.1)
assert len(addresses) == 3, f"serve never became ready: {addresses}"
with NetClient(*addresses[1]) as sub, NetClient(*addresses[2]) as pub:
    sub.subscribe("alice", {"price": (10.0, 50.0)}, sub_id="a1")
    event = {"price": 25.0, "volume": 100.0, "change_pct": 0.0}
    assert pub.publish(event, event_id="e1") == {"alice"}
    for host, port in addresses.values():
        samples = validate_prometheus_text(fetch_metrics(host, port))
        assert "repro_transport_counter_total" in samples, "missing transport counters"
        assert "repro_broker_counter_total" in samples, "missing per-broker counters"
        assert "repro_routing_table_entries" in samples, "missing routing-table gauge"
    assert sub.unsubscribe("alice", "a1") is True
    assert pub.publish(event, event_id="e2") == set()
    sub.shutdown()
PY
wait "$SERVE_PID"   # graceful shutdown: serve exits 0 or this line fails CI
SERVE_PID=""

stage "example smoke (tiny sizes)"
for example in examples/*.py; do
    REPRO_BENCH_SMOKE=1 python "$example" > /dev/null
done

stage ""
echo "== wall-clock per stage =="
for i in "${!STAGE_NAMES[@]}"; do
    printf '%6d s  %s\n' "${STAGE_TIMES[$i]}" "${STAGE_NAMES[$i]}"
done
printf '%6d s  %s\n' "$SECONDS" "total"
# The size of the product: ROADMAP aim 2 keeps it in view.
printf '%6d    %s\n' "$(find src -name '*.py' -exec cat {} + | wc -l)" "lines in src/ (*.py)"
echo "ci.sh: all checks passed"
