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
HYPOTHESIS_PROFILE="${HYPOTHESIS_PROFILE:-ci}" python -m pytest -x -q tests

stage "benchmark smoke (tiny sizes)"
# bench_subscription_churn times the batch subscribe/withdraw APIs against
# sequential calls on the one engine; the driver raises unless the two leave
# byte-identical routing state — any divergence fails CI here.
# bench_curve_ablation's smoke pass asserts the per-event delivery sets are
# identical under every curve (the driver raises on any divergence) and that
# Hilbert needs fewer key runs than Z on the Fig. 1-style rectangle family.
# bench_match_scale's smoke pass still runs the full parity phase: every
# match backend (flat/avl/skiplist/sortedlist/sharded) under every curve must
# agree with a brute-force rectangle oracle before anything is timed.
# bench_topology_scale's smoke pass runs the generated internet-scale
# topology classes (skewed tree / scale-free / grid-of-clusters) at tiny node
# counts, including the region netsplit -> per-partition traffic -> heal
# scenario, and asserts the partition-aware audit is clean in every phase.
# bench_auto_tuning's smoke pass asserts the offline config recommendation
# does no more matching work than the best static config for at least 2 of
# the 3 scenarios, and the driver raises on any recommended-vs-static
# delivery divergence.
# The paper-figure benches have no smoke size (each full size takes a few
# seconds) and assert the paper's claims on what they measure: Fig. 1's run
# counts, Fig. 2's query regions, Theorem 3.1's bound, Lemma 3.2's retained
# volume, Theorem 4.1's lower bound, the dimensionality / aspect-ratio sweep,
# approximate vs exhaustive cost, and recall: the ε-search must stay sound,
# and at the product budget the routing entry point must find every cover of
# a link it compares and never fewer than the plan alone where it probes.
# A smoke pass writes its tables to a temporary directory
# (benchmarks/conftest.py): the tracked full-size tables must come out of it
# byte-identical, whether or not they carry uncommitted re-recordings.
results_listing() { find benchmarks/results -type f -exec cksum {} + | sort -k3; }
RESULTS_BEFORE=$(results_listing)
REPRO_BENCH_SMOKE=1 python -m pytest -q \
    benchmarks/bench_pubsub_propagation.py \
    benchmarks/bench_event_matching.py \
    benchmarks/bench_subscription_churn.py \
    benchmarks/bench_curve_ablation.py \
    benchmarks/bench_auto_tuning.py \
    benchmarks/bench_sim_latency.py \
    benchmarks/bench_match_scale.py \
    benchmarks/bench_topology_scale.py \
    benchmarks/bench_fig1_runs_hilbert_vs_z.py \
    benchmarks/bench_fig2_query_examples.py \
    benchmarks/bench_thm31_upper_bound.py \
    benchmarks/bench_lem32_volume_coverage.py \
    benchmarks/bench_thm41_lower_bound.py \
    benchmarks/bench_dimensionality_aspect.py \
    benchmarks/bench_approx_vs_exhaustive.py \
    benchmarks/bench_recall_vs_epsilon.py
if [ "$RESULTS_BEFORE" != "$(results_listing)" ]; then
    echo "ci.sh: the benchmark smoke pass rewrote files under benchmarks/results/" >&2
    exit 1
fi
# The flat store's cost table (what its staging thresholds are sized from) at
# its smallest size: the script must keep running against the store's API.
python experiments/flat_store_costs.py --slots 4 --repeat 1 > /dev/null
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
# BENCH_metrics.json pair.
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
    assert sub.unsubscribe("alice", "a1") is True
    assert pub.publish(event, event_id="e2") == set()
    sub.shutdown()
PY
wait "$SERVE_PID"   # graceful shutdown: serve exits 0 or this line fails CI
SERVE_PID=""

stage "profiled tier-1 (REPRO_PROF=1)"
# Hot-path profiling hooks must be behaviour-neutral: the whole tier-1 suite
# runs once with the profiler collecting (smoke hypothesis profile — this
# pass is about the instrumented code paths, not new counterexamples).
REPRO_PROF=1 HYPOTHESIS_PROFILE=smoke python -m pytest -x -q tests

stage "numpy-free fallback tier-1 (REPRO_NO_NUMPY=1)"
# The vectorized keying and flat-store sweep paths must stay bit-identical to
# their pure-python fallbacks; pin the fallbacks by running tier-1 once with
# numpy deliberately unavailable (smoke hypothesis profile — the deep
# property pass already ran above, this pass is about the fallback code
# paths, not about finding new counterexamples).
REPRO_NO_NUMPY=1 HYPOTHESIS_PROFILE=smoke python -m pytest -x -q tests

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
echo "ci.sh: all checks passed"
