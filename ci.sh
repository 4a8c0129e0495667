#!/usr/bin/env bash
# Tier-1 test suite plus a pass over every experiments/ script (in place or
# at smoke size) so the experiments cannot silently rot between full runs.
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
# Includes the differential suite (tests/pubsub/test_curve_differential.py):
# scripted workloads on the Z-keyed match index must match the linear-scan
# flat oracle.
# Profiling is pinned here too (tests/obs/test_profiler.py): with the
# profiler wrapping its hot paths, sync and sim lockstep scripts deliver and
# route exactly as without it, and disabling it restores the plain functions.
# --durations=5 only adds output: every log names the five slowest tests.
HYPOTHESIS_PROFILE="${HYPOTHESIS_PROFILE:-ci}" python -m pytest -x -q --durations=5 tests
# The docstring examples under src/ (among them the packed rectangle tests of
# repro.geometry.universe and first_covering's scan).
python -m pytest -q --doctest-modules src
# The product's import footprint in a fresh interpreter: peak RSS, seconds,
# whether numpy or networkx came with it (neither should: numpy loads with
# the first array build, networkx is a test-only oracle), how many repro
# modules loaded and which of the paper's layer are among them (none should:
# tests/test_public_surface.py declares the layers).
python - <<'PY'
import resource, sys, time
started = time.perf_counter()
import repro, repro.analysis.cli, repro.index, repro.net, repro.obs, repro.pubsub, repro.sim, repro.workloads
took = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
loaded = [name for name in ("numpy", "networkx") if name in sys.modules]
own = [name for name in sys.modules if name.partition(".")[0] == "repro"]
sys.path.insert(0, "tests")
from test_public_surface import PAPER_MODULES
paper = sorted(set(own) & set(PAPER_MODULES))
print(f"import footprint: {rss:.1f} MB peak RSS, {took:.2f} s; numpy/networkx loaded: {loaded or 'neither'}; "
      f"{len(own)} repro modules, paper modules among them: {paper or 'none'}")
PY

stage "experiments: paper and sim tables in place, timed ones at smoke size"
# Every table under benchmarks/results/ is written by one experiments/ script
# that holds its sizes and seeds as constants and asserts its claims in
# check() after writing; a failed claim exits non-zero.  The scripts whose
# tables carry no timings rewrite them in place at full size (a few seconds
# each); the ones with a timed column run --smoke (tiny sizes, nothing
# written, the timing claims of event_matching skipped).
# - paper.py: the ten paper tables (fig1, fig2, thm31, lem32, thm41,
#   dimensionality_aspect, recall_vs_epsilon, recall_at_product_budget,
#   curve_ablation, ablation_run_merging).  Checks Fig. 1's 3 / 2 runs,
#   Fig. 2's 1 / 385 runs, Theorem 3.1's bound and the approximate cost
#   levelling off, Lemma 3.2's retained volume, Theorem 4.1's lower bound,
#   the bound over every dimensionality row, a sound ε-search with recall
#   >= 0.5, the profile entry point never finding fewer covers than the plan
#   alone on both sides of its crossover, Hilbert needing fewer runs than Z,
#   and run merging answering alike with fewer runs.
# - sim_latency.py, topology_scale.py: the simulated-transport tables.  Check
#   that no delivery is missed under latency, bounded queues, rolling
#   failures, or on a topology class in the flash crowd and in every phase
#   of the region netsplit.
# - covering_cost.py: E-COST / E-THROUGHPUT at the recorded full sizes
#   (about 3 s), its check called directly so the timed tables are not
#   rewritten.  Checks ε = 0.05 probing under a quarter of the exhaustive
#   runs at recall >= 0.85, the range tree's storage, a sound detector and a
#   throughput that does not collapse.
# - pubsub_propagation.py --smoke: covering shrinks routing state and
#   traffic, and no covering kind misses an audited event.
# - subscription_churn.py --smoke: the batch APIs leave byte-identical
#   routing state and equal broker counters to the per-call path, and the
#   post-churn audit misses nothing on tree / chain / star x sync / sim.
# - event_matching.py --smoke: the match index agrees with the scan on every
#   event.
# - match_scale.py --smoke: the parity phase, the match index against a
#   brute-force rectangle oracle, before anything is timed.
# - micro_ops.py --smoke: each primitive's body once, so it keeps running
#   against the API it times.
# The checksum check fails if a pass changed a file under
# benchmarks/results/: a smoke run wrote, or an in-place table no longer
# regenerates byte for byte.
results_listing() { find benchmarks/results -type f -exec cksum {} + | sort -k3; }
RESULTS_BEFORE=$(results_listing)
python experiments/paper.py > /dev/null
python experiments/sim_latency.py > /dev/null
python experiments/topology_scale.py > /dev/null
PYTHONPATH=experiments python -c 'import covering_cost as c; c.check(c.approx_vs_exhaustive(*c.FULL[0]), c.throughput(*c.FULL[1]))'
for script in pubsub_propagation subscription_churn event_matching match_scale micro_ops; do
    python "experiments/$script.py" --smoke > /dev/null
done
if [ "$RESULTS_BEFORE" != "$(results_listing)" ]; then
    echo "ci.sh: a benchmark pass changed files under benchmarks/results/" \
        "(a smoke table leaked, or a full-size table no longer regenerates)" >&2
    exit 1
fi
# The flat store's cost table and the cost model's unit costs, at two small
# sizes: a 1-bit table and a 2-bit one (the gated tables' grid) with slots
# staged, so the script keeps running against the store's API.
python experiments/flat_store_costs.py --slots 4 32 --repeat 1 > /dev/null
# Where an interface table's index starts to beat its scan (SCAN_LIMIT's
# crossover), at two small sizes, so the script keeps running against the
# table's API; tests/index/test_flat_store_costs.py pins its arithmetic.
python experiments/scan_crossover.py --sizes 8 16 --repeat 1 > /dev/null
# The probes per write that crossover is read at, counted on the gated e2e
# workloads' tables at their smoke sizes, so the script keeps running
# against the benchmark's runner.
python experiments/table_traffic.py --smoke --seconds 0 > /dev/null
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
# Run a script as __main__ with numpy and networkx refused at import: a
# broker network that only scans needs neither.
without_numpy_networkx() {
    python - "$@" <<'PY'
import runpy, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "networkx"):
            raise ImportError(f"{name} is refused: this run must not load it")
        return None

sys.meta_path.insert(0, Refuse())
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
PY
}
for example in examples/*.py; do
    case "$example" in
        examples/quickstart.py) without_numpy_networkx "$example" > /dev/null ;;
        examples/sim_latency_churn.py) without_numpy_networkx "$example" --smoke > /dev/null ;;
        examples/broker_network_simulation.py) python "$example" --smoke > /dev/null ;;
        *) python "$example" > /dev/null ;;
    esac
done

stage ""
echo "== wall-clock per stage =="
for i in "${!STAGE_NAMES[@]}"; do
    printf '%6d s  %s\n' "${STAGE_TIMES[$i]}" "${STAGE_NAMES[$i]}"
done
printf '%6d s  %s\n' "$SECONDS" "total"
# The size of the product and how many values it lets a caller set: ROADMAP
# aim 2 keeps both in view (tests/test_public_surface.py counts the options).
printf '%6d    %s\n' "$(find src -name '*.py' -exec cat {} + | wc -l)" "lines in src/ (*.py)"
# Assigned first so that a failing count stops the script under set -e.
options=$(python -c 'import sys; sys.path.insert(0, "tests"); from test_public_surface import options; print(len(options()))')
printf '%6d    %s\n' "$options" "options in src/ (defaulted parameters and dataclass fields)"
echo "ci.sh: all checks passed"
