#!/usr/bin/env sh
# Tier-1 gate: hermetic build + tests + formatting, no network, no registry.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Allocator truth: a model's deep_bytes() against the counting allocator's
# live heap. The test needs the alloc-stats feature, which the plain run
# above leaves off (so it skips the test).
cargo test -q --offline -p krr-core --features alloc-stats --test alloc_truth
# The benchmark is its own workspace (yardstick/): its smoke tests run
# every workload's checks and pin the printed metric names to
# BENCHMARK.json.
cargo test -q --release --offline --manifest-path yardstick/Cargo.toml
# Doctests, explicitly: documentation examples are part of the API
# contract and must keep compiling and passing on their own.
cargo test -q --offline --workspace --doc
cargo fmt --check
# Lint gate: clippy across every target (tests, benches, examples too),
# warnings are errors.
cargo clippy -q --offline --workspace --all-targets -- -D warnings
# `--all-targets` skips benches whose `required-features` are off; lint
# the bench-ext ones (baselines, simulators, spatial) too.
cargo clippy -q --offline -p krr-bench --features bench-ext --all-targets -- -D warnings
# Documentation gate: every public item documented, no broken intra-doc
# links, rendered cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Markdown link gate: every relative link target in the handbook set must
# exist on disk (fragments are stripped; external schemes are skipped).
# Keeps README/docs cross-references from rotting as files move.
link_errors=0
for doc in README.md EXPERIMENTS.md DESIGN.md ROADMAP.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    for link in $(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//'); do
        case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "ci: dead link in $doc -> $link" >&2
            link_errors=$((link_errors + 1))
        fi
    done
done
[ "$link_errors" -eq 0 ] || { echo "ci: $link_errors dead doc link(s)" >&2; exit 1; }

# Live-exposition smoke on the default build: the example profiles a
# drifting-Zipf trace while scraping its own /metrics (it asserts inside
# that footprint gauges are nonzero and scrapes are # EOF-terminated);
# here we additionally pin the §5.7 space table to the output.
cargo run --release --offline -q -p krr --example live_scrape > /tmp/krr_live_scrape.out
grep -q "krr / olken space ratio" /tmp/krr_live_scrape.out
grep -q "serving live metrics on http://" /tmp/krr_live_scrape.out

# Loopback load smoke: the flash-crowd example replays a burst schedule
# over real RESP connections against a profiled mini-Redis while scraping
# /metrics, and asserts inside (zero errors, complete histograms, the
# burst tail no better than steady state).
cargo run --release --offline -q -p krr --example flash_crowd > /tmp/krr_flash_crowd.out
grep -q "flash crowd amplified p99" /tmp/krr_flash_crowd.out
grep -q "errors 0" /tmp/krr_flash_crowd.out

# Artifact gate: every committed BENCH_*.json / krr-*-v* document must
# carry a known schema tag and its required keys (`krr doctor --offline`
# exits nonzero on any validation failure; its diagnoses are advisory
# and never gate).
cargo run --release --offline -q -p krr --bin krr -- doctor --offline . > /tmp/krr_doctor.out
grep -q "BENCH_pipeline.json (krr-bench-pipeline-v3)" /tmp/krr_doctor.out

# Metrics round trip through the CLI: checkpoint (with METR) a run over a
# trace prefix, --resume it over the whole trace, and require the MRC of an
# uninterrupted run, carried-over counters and a valid krr-metrics-v1.
smoke=$(mktemp -d)
krr() { cargo run --release --offline -q -p krr --bin krr -- "$@"; }
krr generate --workload zipf:0.9:5000 --requests 50000 --out "$smoke/trace.csv" > /dev/null
# Pipelined load end to end: 64-deep pipelines make the server batch its
# replies (one write per drained read buffer); every request must succeed.
krr load --qps 20000 --connections 2 --pipeline 64 "$smoke/trace.csv" > "$smoke/load.out"
grep -q "errors 0" "$smoke/load.out"
head -n 30000 "$smoke/trace.csv" > "$smoke/prefix.csv"
krr model --shards 4 --threads 2 "$smoke/trace.csv" > "$smoke/mrc.csv"
krr model --shards 4 --threads 2 --metrics-out "$smoke/krr-metrics.json" \
    --checkpoint-every 10000 --checkpoint-out "$smoke/ck" "$smoke/prefix.csv" > /dev/null
krr model --shards 4 --threads 2 --resume "$smoke/ck" \
    --metrics-out "$smoke/krr-metrics.json" "$smoke/trace.csv" > "$smoke/resumed.csv"
cmp "$smoke/mrc.csv" "$smoke/resumed.csv"
grep -q '"accesses":50000' "$smoke/krr-metrics.json"
krr doctor --offline "$smoke" > "$smoke/doctor.out"
grep -q "valid .*krr-metrics.json (krr-metrics-v1)" "$smoke/doctor.out"
# Sampled round trip: the pipeline router drops unsampled references, so
# the MRC must not depend on the worker count and the metrics must still
# count every reference of the trace.
krr model --rate 0.01 --shards 8 --threads 1 "$smoke/trace.csv" > "$smoke/sampled-1.csv"
krr model --rate 0.01 --shards 8 --threads 4 \
    --metrics-out "$smoke/sampled-metrics.json" "$smoke/trace.csv" > "$smoke/sampled-4.csv"
cmp "$smoke/sampled-1.csv" "$smoke/sampled-4.csv"
grep -q '"accesses":50000' "$smoke/sampled-metrics.json"
# The other trace subcommands on the same trace: each must exit 0 and
# print what it reports.
krr stats "$smoke/trace.csv" > "$smoke/stats.out"
grep -q "^requests: *50000$" "$smoke/stats.out"
krr simulate --policy klru:5 "$smoke/trace.csv" > "$smoke/simulate.out"
grep -q "^cache_size,miss_ratio$" "$smoke/simulate.out"
krr simulate --policy lru "$smoke/trace.csv" > "$smoke/simulate-lru.out"
grep -q "^cache_size,miss_ratio$" "$smoke/simulate-lru.out"
krr simulate --policy klru:5 --bytes "$smoke/trace.csv" > "$smoke/simulate-bytes.out"
grep -q "^cache_size,miss_ratio$" "$smoke/simulate-bytes.out"
# Sampled LFU is reached only through this CLI path; K = 0 must fail.
krr simulate --policy klfu:5 "$smoke/trace.csv" > "$smoke/simulate-klfu.out"
grep -q "^cache_size,miss_ratio$" "$smoke/simulate-klfu.out"
krr simulate --policy klfu:0 "$smoke/trace.csv" > /dev/null 2>&1 &&
    { echo "ci: krr simulate accepted --policy klfu:0" >&2; exit 1; }
krr compare "$smoke/trace.csv" > "$smoke/compare.out"
grep -q "^cache_size,simulated,krr,abs_err$" "$smoke/compare.out"
krr analyze "$smoke/trace.csv" > "$smoke/analyze.out"
grep -q "^requests: *50000$" "$smoke/analyze.out"
krr plot "$smoke/mrc.csv" "$smoke/sampled-1.csv" > "$smoke/plot.out"
# Fleet mode runs the same loop: its per-tenant curves feed `krr partition`
# and --trace-out works there too. A flag the chosen mode cannot honour,
# or one the subcommand does not read, must fail the run.
krr model --tenants 8 --mrc-out "$smoke/mrcs" --trace-out "$smoke/fleet-trace.json" \
    "$smoke/trace.csv" > "$smoke/fleet.csv"
grep -q '"name":"router"' "$smoke/fleet-trace.json"
krr partition --budget 2000 "$smoke"/mrcs/tenant-*.csv > "$smoke/partition.out"
grep -q "tenant *greedy *optimal$" "$smoke/partition.out"
krr model --tenants 4 --checkpoint-out "$smoke/x" "$smoke/trace.csv" 2> /dev/null &&
    { echo "ci: krr model --tenants accepted --checkpoint-out" >&2; exit 1; }
krr model --thread 2 "$smoke/trace.csv" 2> /dev/null &&
    { echo "ci: krr model accepted the unknown flag --thread" >&2; exit 1; }
rm -rf "$smoke"

# Optional perf tracking: KRR_CI_BENCH=1 refreshes BENCH_pipeline.json
# (sequential loop vs route-once pipeline at 1/2/4/8 workers in one run;
# exits nonzero if any worker count falls below 0.8x the sequential
# loop), BENCH_obs.json
# (flight-recorder off vs on; exits nonzero if tracing costs more than its
# 5% budget), and BENCH_space.json (KRR vs Olken/SHARDS deep
# footprint at M=1e6 — exits nonzero unless KRR < Olken — plus the
# /metrics scrape-overhead gate, also 5%) and BENCH_load.json (open-loop
# RESP load A/B: five off/on passes alternating which side runs first;
# the median p99 and median p999 with MRC profiling + live scraping on vs
# off must stay within a 10% tail budget or an absolute slack — exits
# nonzero otherwise, and its "load gate: pass" verdict line must print)
# and BENCH_fleet.json (1000+-tenant
# arena in one process: aggregate /metrics scrape overhead under the same
# 5% budget, per-tenant Footprint bytes within 1.1x of the allocator's
# count, mean resident bytes per tenant at most 12,216).
if [ "${KRR_CI_BENCH:-0}" = "1" ]; then
    cargo bench -q --offline -p krr-bench --bench pipeline
    cargo bench -q --offline -p krr-bench --bench obs
    cargo bench -q --offline -p krr-bench --bench space
    load_out=$(cargo bench -q --offline -p krr-bench --bench load)
    echo "$load_out"
    echo "$load_out" | grep -q '^load gate: pass (median of'
    cargo bench -q --offline -p krr-bench --bench fleet
fi

echo "ci: OK"
