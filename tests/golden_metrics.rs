//! Byte goldens for every metrics surface.
//!
//! One registry with every section populated — 3 shards, 2 ring workers,
//! 2 tenant rows (one shadowed), all four histograms non-empty, a
//! footprint publish and watchdog values — is rendered through each
//! export path and compared against pinned output:
//!
//! * `render_info` and `to_json`: exact bytes;
//! * the `METR` checkpoint payload from `save_state`: exact bytes, pinned
//!   as the little-endian `u64` words the codec writes;
//! * `render_openmetrics`: the document as a sorted multiset of lines, so
//!   families may be reordered (scrapers treat them as unordered) but no
//!   line may change, appear or disappear.
//!
//! The registry is built only through the public counter, gauge and
//! histogram fields, `publish_footprint` and `absorb`, so the goldens pin
//! what the surfaces emit, not how the registry records.

use krr::core::checkpoint::{Dec, Enc};
use krr::core::expo::render_openmetrics;
use krr::core::footprint::FootprintReport;
use krr::core::metrics::TenantRow;
use krr::core::{MetricsRegistry, MetricsSnapshot};

fn golden_snapshot() -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    // Per-shard and per-worker vectors and tenant rows first: absorb also
    // overwrites gauges, which are set below.
    let mut lists = MetricsRegistry::new().snapshot();
    lists.shard_accesses = vec![400, 350, 250];
    lists.pipeline_queue_hwm = vec![4, 2, 3];
    lists.shard_resident = vec![120, 110, 90];
    lists.shard_depth_hwm = vec![97, 88, 60];
    lists.pipeline_ring_hwm = vec![5, 3];
    lists.tenant_rows = vec![
        TenantRow {
            id: 3,
            refs: 700,
            resident: 120,
            resident_bytes: 9_600,
            miss_ratio_ppm: 412_000,
            drift_events: 0,
            mae_ppm: 0,
            shadowed: false,
        },
        TenantRow {
            id: 11,
            refs: 300,
            resident: 80,
            resident_bytes: 6_400,
            miss_ratio_ppm: 250_500,
            drift_events: 2,
            mae_ppm: 15_300,
            shadowed: true,
        },
    ];
    reg.absorb(&lists);

    reg.accesses.add(1_000);
    reg.spatial_rejected.add(50);
    reg.hits.add(600);
    reg.cold_misses.add(350);
    for v in [0, 1, 3, 9, 40] {
        reg.chain_len.record(v);
    }
    for v in [2, 5, 17, 130] {
        reg.positions_scanned.record(v);
    }
    for v in [90, 250, 1_300, 70_000] {
        reg.access_ns.record(v);
    }
    reg.merges.add(3);
    reg.merge_ns.add(45_000);
    reg.evictions.add(7);
    for v in [1, 64, 5_000] {
        reg.candidate_age.record(v);
    }
    reg.pipeline_batches.add(40);
    reg.pipeline_stalls.add(2);
    reg.pipeline_keys_hashed.add(1_000);
    reg.pipeline_router_busy_ns.add(812_345);
    reg.pipeline_worker_busy_ns.add(2_345_678);
    reg.pipeline_router_parks.add(1);
    reg.pipeline_worker_parks.add(9);
    reg.pipeline_ring_wraps.add(4);
    reg.watchdog_checks.add(12);
    reg.watchdog_shadow_refs.add(4_000);
    reg.watchdog_drift_events.add(2);
    reg.watchdog_mae_ppm.set(15_300);
    reg.server_commands.add(200);
    reg.server_reply_flushes.add(9);
    reg.server_profile_drains.add(3);
    reg.expo_request_timeouts.add(1);

    reg.footprint_pipeline_bytes.set(3_072);
    let mut report = FootprintReport::new();
    report
        .add("stack_entries", 4_096)
        .add("stack_index", 2_048)
        .add("stack_scratch", 128)
        .add("histogram", 512)
        .add("size_array", 256)
        .add("shadow_tree", 1_024);
    reg.publish_footprint(&report);
    // A pipeline run after the publish grows its gauge past the stored
    // total: the snapshot must report max(stored, sum of parts).
    reg.footprint_pipeline_bytes.set(8_192);
    // Fixed heap readings, independent of the allocator in use.
    reg.heap_live_bytes.set(65_536);
    reg.heap_peak_bytes.set(131_072);
    reg.snapshot()
}

fn metr_payload(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut enc = Enc::new();
    snap.save_state(&mut enc);
    enc.into_bytes()
}

/// `render_info()` bytes, one INFO line per row.
const INFO: &str = concat!(
    "# model\r\n",
    "accesses:1000\r\n",
    "spatial_rejected:50\r\n",
    "hits:600\r\n",
    "cold_misses:350\r\n",
    "# updater\r\n",
    "chain_len_count:5\r\n",
    "chain_len_mean:10.60\r\n",
    "chain_len_p99:40\r\n",
    "chain_len_max:40\r\n",
    "chain_len_buckets:0=1,1=1,3=1,15=1,63=1\r\n",
    "positions_scanned_count:4\r\n",
    "positions_scanned_mean:38.50\r\n",
    "positions_scanned_p99:130\r\n",
    "positions_scanned_max:130\r\n",
    "positions_scanned_buckets:3=1,7=1,31=1,255=1\r\n",
    "# latency\r\n",
    "access_ns_count:4\r\n",
    "access_ns_mean:17910.00\r\n",
    "access_ns_p99:70000\r\n",
    "access_ns_max:70000\r\n",
    "access_ns_buckets:127=1,255=1,2047=1,131071=1\r\n",
    "# shards\r\n",
    "shard_count:3\r\n",
    "merges:3\r\n",
    "merge_ns:45000\r\n",
    "shard_accesses:400,350,250\r\n",
    "shard_imbalance:0.2500\r\n",
    "shard_resident:120,110,90\r\n",
    "shard_depth_hwm:97,88,60\r\n",
    "# pipeline\r\n",
    "batches:40\r\n",
    "stalls:2\r\n",
    "keys_hashed:1000\r\n",
    "router_busy_ns:812345\r\n",
    "worker_busy_ns:2345678\r\n",
    "queue_depth_hwm:4,2,3\r\n",
    "ring_wraps:4\r\n",
    "ring_router_parks:1\r\n",
    "ring_worker_parks:9\r\n",
    "ring_depth_hwm:5,3\r\n",
    "# watchdog\r\n",
    "checks:12\r\n",
    "shadow_refs:4000\r\n",
    "drift_events:2\r\n",
    "mae_ppm:15300\r\n",
    "# tenant\r\n",
    "count:2\r\n",
    "refs:1000\r\n",
    "drifted:1\r\n",
    "shadowed:1\r\n",
    "# memory\r\n",
    "stack_bytes:6272\r\n",
    "hist_bytes:512\r\n",
    "sizes_bytes:256\r\n",
    "pipeline_bytes:8192\r\n",
    "shadow_bytes:1024\r\n",
    "total_bytes:16256\r\n",
    "heap_live_bytes:65536\r\n",
    "heap_peak_bytes:131072\r\n",
    "tenant_count:2\r\n",
    "tenant_total_bytes:16000\r\n",
    "tenant_mean_bytes:8000\r\n",
    "tenant_max_bytes:9600\r\n",
    "# eviction\r\n",
    "evictions:7\r\n",
    "candidate_age_count:3\r\n",
    "candidate_age_mean:1688.33\r\n",
    "candidate_age_p99:5000\r\n",
    "candidate_age_max:5000\r\n",
    "candidate_age_buckets:1=1,127=1,8191=1\r\n",
    "# server\r\n",
    "commands:200\r\n",
    "reply_flushes:9\r\n",
    "profile_drains:3\r\n",
    "# expo\r\n",
    "request_timeouts:1\r\n",
);

/// `to_json()` bytes, split at top-level keys.
const JSON: &str = concat!(
    "{\"schema\":\"krr-metrics-v1\",",
    "\"model\":{\"accesses\":1000,\"spatial_rejected\":50,\"hits\":600,\"cold_misses\":350},",
    "\"updater\":{\"chain_len\":{\"count\":5,\"sum\":53,\"max\":40,\"mean\":10.600,\"p99\":40,\"buckets\":[[0,1],[1,1],[3,1],[15,1],[63,1]]},\"positions_scanned\":{\"count\":4,\"sum\":154,\"max\":130,\"mean\":38.500,\"p99\":130,\"buckets\":[[3,1],[7,1],[31,1],[255,1]]}},",
    "\"latency\":{\"access_ns\":{\"count\":4,\"sum\":71640,\"max\":70000,\"mean\":17910.000,\"p99\":70000,\"buckets\":[[127,1],[255,1],[2047,1],[131071,1]]}},",
    "\"shards\":{\"merges\":3,\"merge_ns\":45000,\"accesses\":[400,350,250],\"resident\":[120,110,90],\"depth_hwm\":[97,88,60]},",
    "\"pipeline\":{\"batches\":40,\"stalls\":2,\"keys_hashed\":1000,\"router_busy_ns\":812345,\"worker_busy_ns\":2345678,\"queue_depth_hwm\":[4,2,3],\"ring\":{\"wraps\":4,\"router_parks\":1,\"worker_parks\":9,\"depth_hwm\":[5,3]}},",
    "\"watchdog\":{\"checks\":12,\"shadow_refs\":4000,\"drift_events\":2,\"mae_ppm\":15300},",
    "\"tenant\":{\"count\":2,\"refs\":1000,\"drifted\":1,\"shadowed\":1,\"rows\":[{\"id\":3,\"refs\":700,\"resident\":120,\"resident_bytes\":9600,\"miss_ratio_ppm\":412000,\"drift_events\":0,\"mae_ppm\":0,\"shadowed\":false},{\"id\":11,\"refs\":300,\"resident\":80,\"resident_bytes\":6400,\"miss_ratio_ppm\":250500,\"drift_events\":2,\"mae_ppm\":15300,\"shadowed\":true}]},",
    "\"memory\":{\"stack_bytes\":6272,\"hist_bytes\":512,\"sizes_bytes\":256,\"pipeline_bytes\":8192,\"shadow_bytes\":1024,\"total_bytes\":16256,\"heap_live_bytes\":65536,\"heap_peak_bytes\":131072,\"tenant\":{\"count\":2,\"total_bytes\":16000,\"mean_bytes\":8000,\"max_bytes\":9600}},",
    "\"eviction\":{\"evictions\":7,\"candidate_age\":{\"count\":3,\"sum\":5065,\"max\":5000,\"mean\":1688.333,\"p99\":5000,\"buckets\":[[1,1],[127,1],[8191,1]]}},",
    "\"server\":{\"commands\":200,\"reply_flushes\":9,\"profile_drains\":3},",
    "\"expo\":{\"request_timeouts\":1}}",
);

/// The `METR` payload as the little-endian `u64` words `save_state` writes.
const METR_WORDS: &[u64] = &[
    1000, 50, 600, 350, 5, 53, 40, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 154, 130, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 71640, 70000, 0, 0, 0, 0, 0, 0, 0, 1,
    1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 45000, 7, 3,
    5065, 5000, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 3, 400, 350, 250, 40, 2, 1000, 812345, 2345678, 3, 4, 2, 3, 12, 4000, 2, 15300,
    3, 120, 110, 90, 3, 97, 88, 60, 6272, 512, 256, 8192, 1024, 16256, 65536, 131072, 2, 3, 700,
    120, 9600, 412000, 0, 0, 0, 11, 300, 80, 6400, 250500, 2, 15300, 1, 1, 9, 4, 2, 5, 3, 200, 9,
    1, 3,
];

/// `render_openmetrics()` lines, sorted.
const OPENMETRICS_LINES: &[&str] = &[
    "# EOF",
    "# HELP krr_access_ns Sampled per-access latency in nanoseconds (~1/64 of accesses).",
    "# HELP krr_accesses References offered to the model (`KrrModel::access` calls).",
    "# HELP krr_candidate_age Idle time (age) of sampled eviction candidates.",
    "# HELP krr_chain_len Swap-chain length per stack update.",
    "# HELP krr_cold_misses First references (cold misses).",
    "# HELP krr_evictions Evictions performed by a simulator or store.",
    "# HELP krr_expo_request_timeouts Exposition HTTP requests cut off at the whole-request deadline (answered 408).",
    "# HELP krr_footprint_hist_bytes Deep bytes of the stack-distance histograms, summed across shards.",
    "# HELP krr_footprint_pipeline_bytes Resident bytes of the streaming pipeline's routing buffers, set when a pipeline run starts and kept from the most recent run.",
    "# HELP krr_footprint_shadow_bytes Deep bytes of the accuracy watchdog's shadow Olken profiler.",
    "# HELP krr_footprint_sizes_bytes Deep bytes of the byte-level size arrays (0 in uniform-size mode).",
    "# HELP krr_footprint_stack_bytes Deep bytes of every KRR stack (entries + key index), summed across shards and refreshed at footprint publish points.",
    "# HELP krr_footprint_tenant_max_bytes Resident bytes of the largest tenant model.",
    "# HELP krr_footprint_tenant_mean_bytes Mean resident bytes of a tenant model.",
    "# HELP krr_footprint_tenant_total_bytes Resident bytes of all tenant models.",
    "# HELP krr_footprint_total_bytes The profiler's modeled space cost: the larger of the last published total and the sum of the five component gauges.",
    "# HELP krr_heap_live_bytes Live heap bytes from the counting allocator (0 unless the `alloc-stats` feature is on and its allocator is installed).",
    "# HELP krr_heap_peak_bytes Peak heap bytes from the counting allocator (same caveat).",
    "# HELP krr_hits Re-references (finite stack distance).",
    "# HELP krr_merge_ns Total nanoseconds spent merging shard histograms.",
    "# HELP krr_merges Histogram merges performed by `ShardedKrr::mrc`.",
    "# HELP krr_pipeline_batches Batches handed to shard workers by the pipeline router.",
    "# HELP krr_pipeline_keys_hashed Keys hashed while routing: the route-once pipeline hashes each reference exactly once, so after a run this equals the reference count.",
    "# HELP krr_pipeline_ring_wraps Completed queue cycles summed over the router→worker batch queues (sends / capacity per queue).",
    "# HELP krr_pipeline_router_busy_ns Nanoseconds the router thread spent hashing, batching and sending.",
    "# HELP krr_pipeline_router_parks Router sends that blocked on a full worker queue (equals `pipeline.stalls`; near zero when healthy).",
    "# HELP krr_pipeline_stalls Times the router found a worker's ring full and had to block until the worker drained a batch (back-pressure).",
    "# HELP krr_pipeline_worker_busy_ns Nanoseconds workers spent draining batches into shard models, summed.",
    "# HELP krr_pipeline_worker_parks Times a worker blocked on an empty batch queue (the router could not keep it fed).",
    "# HELP krr_positions_scanned Stack positions examined per update (the updater's work).",
    "# HELP krr_ring_depth_hwm Deepest occupancy each worker's batch queue reached, recorded when a pipeline run finishes.",
    "# HELP krr_server_commands Commands the mini-Redis server has answered.",
    "# HELP krr_server_profile_drains Drains of the mini-Redis profile queue that applied at least one GET to the profiler (profiled GETs / drains is GETs per drain).",
    "# HELP krr_server_reply_flushes Socket writes of buffered mini-Redis replies: one per command for request/reply traffic, one per drained input buffer under pipelining (commands / flushes is replies per write).",
    "# HELP krr_shard_accesses References routed to each shard.",
    "# HELP krr_shard_depth_hwm Deepest 1-based stack position a re-reference has hit on each shard.",
    "# HELP krr_shard_queue_depth_hwm Batches in flight for each shard after a router send, high-water mark.",
    "# HELP krr_shard_resident Distinct objects each shard's KRR stack tracks, published at batch boundaries (after every access on the sequential path).",
    "# HELP krr_spatial_rejected References rejected by the spatial filter.",
    "# HELP krr_tenant_count Tenants hosted by the fleet arena.",
    "# HELP krr_tenant_drift_events Watchdog drift events recorded against this tenant.",
    "# HELP krr_tenant_drifted Tenants with at least one drift event.",
    "# HELP krr_tenant_mae_ppm Latest watchdog MAE for this tenant, in parts per million (0 when the tenant is not shadowed).",
    "# HELP krr_tenant_miss_ratio_ppm Modeled miss ratio at the fleet's budget, in parts per million.",
    "# HELP krr_tenant_refs References routed to this tenant's model.",
    "# HELP krr_tenant_resident Distinct sampled objects resident in the tenant's model.",
    "# HELP krr_tenant_resident_bytes Deep bytes of the tenant's model (footprint accounting).",
    "# HELP krr_tenant_shadowed Whether the accuracy watchdog currently shadows this tenant (only the top-K tenants by traffic are).",
    "# HELP krr_watchdog_checks Shadow-vs-KRR comparisons performed by the accuracy watchdog.",
    "# HELP krr_watchdog_drift_events Checks whose MAE exceeded the configured drift threshold.",
    "# HELP krr_watchdog_mae_ppm Latest MAE between the KRR MRC and the shadow Olken MRC, in parts per million of miss ratio (MAE 0.0123 → 12300).",
    "# HELP krr_watchdog_shadow_refs References admitted into the watchdog's shadow Olken profiler.",
    "# TYPE krr_access_ns histogram",
    "# TYPE krr_accesses counter",
    "# TYPE krr_candidate_age histogram",
    "# TYPE krr_chain_len histogram",
    "# TYPE krr_cold_misses counter",
    "# TYPE krr_evictions counter",
    "# TYPE krr_expo_request_timeouts counter",
    "# TYPE krr_footprint_hist_bytes gauge",
    "# TYPE krr_footprint_pipeline_bytes gauge",
    "# TYPE krr_footprint_shadow_bytes gauge",
    "# TYPE krr_footprint_sizes_bytes gauge",
    "# TYPE krr_footprint_stack_bytes gauge",
    "# TYPE krr_footprint_tenant_max_bytes gauge",
    "# TYPE krr_footprint_tenant_mean_bytes gauge",
    "# TYPE krr_footprint_tenant_total_bytes gauge",
    "# TYPE krr_footprint_total_bytes gauge",
    "# TYPE krr_heap_live_bytes gauge",
    "# TYPE krr_heap_peak_bytes gauge",
    "# TYPE krr_hits counter",
    "# TYPE krr_merge_ns counter",
    "# TYPE krr_merges counter",
    "# TYPE krr_pipeline_batches counter",
    "# TYPE krr_pipeline_keys_hashed counter",
    "# TYPE krr_pipeline_ring_wraps counter",
    "# TYPE krr_pipeline_router_busy_ns counter",
    "# TYPE krr_pipeline_router_parks counter",
    "# TYPE krr_pipeline_stalls counter",
    "# TYPE krr_pipeline_worker_busy_ns counter",
    "# TYPE krr_pipeline_worker_parks counter",
    "# TYPE krr_positions_scanned histogram",
    "# TYPE krr_ring_depth_hwm gauge",
    "# TYPE krr_server_commands counter",
    "# TYPE krr_server_profile_drains counter",
    "# TYPE krr_server_reply_flushes counter",
    "# TYPE krr_shard_accesses counter",
    "# TYPE krr_shard_depth_hwm gauge",
    "# TYPE krr_shard_queue_depth_hwm gauge",
    "# TYPE krr_shard_resident gauge",
    "# TYPE krr_spatial_rejected counter",
    "# TYPE krr_tenant_count gauge",
    "# TYPE krr_tenant_drift_events counter",
    "# TYPE krr_tenant_drifted gauge",
    "# TYPE krr_tenant_mae_ppm gauge",
    "# TYPE krr_tenant_miss_ratio_ppm gauge",
    "# TYPE krr_tenant_refs counter",
    "# TYPE krr_tenant_resident gauge",
    "# TYPE krr_tenant_resident_bytes gauge",
    "# TYPE krr_tenant_shadowed gauge",
    "# TYPE krr_watchdog_checks counter",
    "# TYPE krr_watchdog_drift_events counter",
    "# TYPE krr_watchdog_mae_ppm gauge",
    "# TYPE krr_watchdog_shadow_refs counter",
    "# UNIT krr_access_ns ns",
    "# UNIT krr_footprint_hist_bytes bytes",
    "# UNIT krr_footprint_pipeline_bytes bytes",
    "# UNIT krr_footprint_shadow_bytes bytes",
    "# UNIT krr_footprint_sizes_bytes bytes",
    "# UNIT krr_footprint_stack_bytes bytes",
    "# UNIT krr_footprint_tenant_max_bytes bytes",
    "# UNIT krr_footprint_tenant_mean_bytes bytes",
    "# UNIT krr_footprint_tenant_total_bytes bytes",
    "# UNIT krr_footprint_total_bytes bytes",
    "# UNIT krr_heap_live_bytes bytes",
    "# UNIT krr_heap_peak_bytes bytes",
    "# UNIT krr_merge_ns ns",
    "# UNIT krr_pipeline_router_busy_ns ns",
    "# UNIT krr_pipeline_worker_busy_ns ns",
    "# UNIT krr_tenant_mae_ppm ppm",
    "# UNIT krr_tenant_miss_ratio_ppm ppm",
    "# UNIT krr_tenant_resident_bytes bytes",
    "# UNIT krr_watchdog_mae_ppm ppm",
    "krr_access_ns_bucket{le=\"+Inf\"} 4",
    "krr_access_ns_bucket{le=\"127\"} 1",
    "krr_access_ns_bucket{le=\"131071\"} 4",
    "krr_access_ns_bucket{le=\"2047\"} 3",
    "krr_access_ns_bucket{le=\"255\"} 2",
    "krr_access_ns_count 4",
    "krr_access_ns_sum 71640",
    "krr_accesses_total 1000",
    "krr_candidate_age_bucket{le=\"+Inf\"} 3",
    "krr_candidate_age_bucket{le=\"1\"} 1",
    "krr_candidate_age_bucket{le=\"127\"} 2",
    "krr_candidate_age_bucket{le=\"8191\"} 3",
    "krr_candidate_age_count 3",
    "krr_candidate_age_sum 5065",
    "krr_chain_len_bucket{le=\"+Inf\"} 5",
    "krr_chain_len_bucket{le=\"0\"} 1",
    "krr_chain_len_bucket{le=\"1\"} 2",
    "krr_chain_len_bucket{le=\"15\"} 4",
    "krr_chain_len_bucket{le=\"3\"} 3",
    "krr_chain_len_bucket{le=\"63\"} 5",
    "krr_chain_len_count 5",
    "krr_chain_len_sum 53",
    "krr_cold_misses_total 350",
    "krr_evictions_total 7",
    "krr_expo_request_timeouts_total 1",
    "krr_footprint_hist_bytes 512",
    "krr_footprint_pipeline_bytes 8192",
    "krr_footprint_shadow_bytes 1024",
    "krr_footprint_sizes_bytes 256",
    "krr_footprint_stack_bytes 6272",
    "krr_footprint_tenant_max_bytes 9600",
    "krr_footprint_tenant_mean_bytes 8000",
    "krr_footprint_tenant_total_bytes 16000",
    "krr_footprint_total_bytes 16256",
    "krr_heap_live_bytes 65536",
    "krr_heap_peak_bytes 131072",
    "krr_hits_total 600",
    "krr_merge_ns_total 45000",
    "krr_merges_total 3",
    "krr_pipeline_batches_total 40",
    "krr_pipeline_keys_hashed_total 1000",
    "krr_pipeline_ring_wraps_total 4",
    "krr_pipeline_router_busy_ns_total 812345",
    "krr_pipeline_router_parks_total 1",
    "krr_pipeline_stalls_total 2",
    "krr_pipeline_worker_busy_ns_total 2345678",
    "krr_pipeline_worker_parks_total 9",
    "krr_positions_scanned_bucket{le=\"+Inf\"} 4",
    "krr_positions_scanned_bucket{le=\"255\"} 4",
    "krr_positions_scanned_bucket{le=\"3\"} 1",
    "krr_positions_scanned_bucket{le=\"31\"} 3",
    "krr_positions_scanned_bucket{le=\"7\"} 2",
    "krr_positions_scanned_count 4",
    "krr_positions_scanned_sum 154",
    "krr_ring_depth_hwm{worker=\"0\"} 5",
    "krr_ring_depth_hwm{worker=\"1\"} 3",
    "krr_server_commands_total 200",
    "krr_server_profile_drains_total 3",
    "krr_server_reply_flushes_total 9",
    "krr_shard_accesses_total{shard=\"0\"} 400",
    "krr_shard_accesses_total{shard=\"1\"} 350",
    "krr_shard_accesses_total{shard=\"2\"} 250",
    "krr_shard_depth_hwm{shard=\"0\"} 97",
    "krr_shard_depth_hwm{shard=\"1\"} 88",
    "krr_shard_depth_hwm{shard=\"2\"} 60",
    "krr_shard_queue_depth_hwm{shard=\"0\"} 4",
    "krr_shard_queue_depth_hwm{shard=\"1\"} 2",
    "krr_shard_queue_depth_hwm{shard=\"2\"} 3",
    "krr_shard_resident{shard=\"0\"} 120",
    "krr_shard_resident{shard=\"1\"} 110",
    "krr_shard_resident{shard=\"2\"} 90",
    "krr_spatial_rejected_total 50",
    "krr_tenant_count 2",
    "krr_tenant_drift_events_total{tenant=\"11\"} 2",
    "krr_tenant_drift_events_total{tenant=\"3\"} 0",
    "krr_tenant_drifted 1",
    "krr_tenant_mae_ppm{tenant=\"11\"} 15300",
    "krr_tenant_mae_ppm{tenant=\"3\"} 0",
    "krr_tenant_miss_ratio_ppm{tenant=\"11\"} 250500",
    "krr_tenant_miss_ratio_ppm{tenant=\"3\"} 412000",
    "krr_tenant_refs_total{tenant=\"11\"} 300",
    "krr_tenant_refs_total{tenant=\"3\"} 700",
    "krr_tenant_resident_bytes{tenant=\"11\"} 6400",
    "krr_tenant_resident_bytes{tenant=\"3\"} 9600",
    "krr_tenant_resident{tenant=\"11\"} 80",
    "krr_tenant_resident{tenant=\"3\"} 120",
    "krr_tenant_shadowed 1",
    "krr_tenant_shadowed{tenant=\"11\"} 1",
    "krr_tenant_shadowed{tenant=\"3\"} 0",
    "krr_watchdog_checks_total 12",
    "krr_watchdog_drift_events_total 2",
    "krr_watchdog_mae_ppm 15300",
    "krr_watchdog_shadow_refs_total 4000",
];

#[test]
fn info_bytes_are_pinned() {
    assert_eq!(golden_snapshot().render_info(), INFO);
}

#[test]
fn json_bytes_are_pinned() {
    assert_eq!(golden_snapshot().to_json(), JSON);
}

#[test]
fn metr_payload_bytes_are_pinned() {
    let expected: Vec<u8> = METR_WORDS.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(metr_payload(&golden_snapshot()), expected);
}

#[test]
fn openmetrics_line_multiset_is_pinned() {
    let text = render_openmetrics(&golden_snapshot());
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, OPENMETRICS_LINES);
}

/// Older `METR` layouts: the one written before the ring-transport rows
/// existed ends right after the tenant rows, the one written before
/// the server and exposition rows ends right after the ring rows, and the
/// one written before `server.profile_drains` ends right after those. Each
/// loads with the rows added since at zero, while a payload cut anywhere
/// else is rejected.
#[test]
fn pre_ring_metr_layout_loads_and_other_cuts_fail() {
    let full: Vec<u8> = METR_WORDS.iter().flat_map(|w| w.to_le_bytes()).collect();
    // The last row: profile_drains.
    let pre_drains = full.len() - 8;
    // The server and exposition tail before it: commands, reply_flushes,
    // request_timeouts.
    let pre_server = pre_drains - 3 * 8;
    // The ring tail before it: router_parks, worker_parks, wraps, then
    // depth_hwm as its length (2) and two values.
    let pre_ring = pre_server - 6 * 8;
    for cut in 0..full.len() {
        let loaded = MetricsSnapshot::load_state(&mut Dec::new(&full[..cut]));
        assert_eq!(
            loaded.is_ok(),
            cut == pre_ring || cut == pre_server || cut == pre_drains,
            "payload cut at byte {cut}"
        );
    }
    let golden = golden_snapshot();
    let late = MetricsSnapshot::load_state(&mut Dec::new(&full[..pre_drains])).unwrap();
    assert_eq!(late.server_profile_drains, 0);
    let with_drains = |snap: MetricsSnapshot| MetricsSnapshot {
        server_profile_drains: golden.server_profile_drains,
        ..snap
    };
    assert_eq!(metr_payload(&with_drains(late)), full);
    let mid = MetricsSnapshot::load_state(&mut Dec::new(&full[..pre_server])).unwrap();
    assert_eq!(mid.server_commands, 0);
    assert_eq!(mid.server_reply_flushes, 0);
    assert_eq!(mid.expo_request_timeouts, 0);
    let with_server = |snap: MetricsSnapshot| MetricsSnapshot {
        server_commands: golden.server_commands,
        server_reply_flushes: golden.server_reply_flushes,
        expo_request_timeouts: golden.expo_request_timeouts,
        ..with_drains(snap)
    };
    // Everything before the tail decodes as written.
    assert_eq!(metr_payload(&with_server(mid)), full);
    let old = MetricsSnapshot::load_state(&mut Dec::new(&full[..pre_ring])).unwrap();
    assert_eq!(old.pipeline_router_parks, 0);
    assert_eq!(old.pipeline_worker_parks, 0);
    assert_eq!(old.pipeline_ring_wraps, 0);
    assert!(old.pipeline_ring_hwm.is_empty());
    assert_eq!(old.server_commands, 0);
    let restored = MetricsSnapshot {
        pipeline_router_parks: golden.pipeline_router_parks,
        pipeline_worker_parks: golden.pipeline_worker_parks,
        pipeline_ring_wraps: golden.pipeline_ring_wraps,
        pipeline_ring_hwm: golden.pipeline_ring_hwm.clone(),
        ..with_server(old)
    };
    assert_eq!(metr_payload(&restored), full);
}
