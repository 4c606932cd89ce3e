//! Property-based tests over the core invariants: stack permutation
//! safety, histogram/MRC consistency, probability identities, sizeArray
//! exactness, and cache capacity enforcement.
//!
//! Runs on the in-tree deterministic harness in `support` (see its module
//! docs) rather than proptest, so the suite needs no registry access.
//! Cases that proptest once shrank to minimal counterexamples are kept as
//! pinned `#[test]` regressions at the bottom.

mod support;

use krr::prelude::*;
use krr::trace::Request;
use support::check;

/// The KRR stack stays a permutation of the referenced keys with a
/// consistent index, for any access sequence, K and updater.
#[test]
fn stack_permutation_invariant() {
    check("stack_permutation_invariant", 64, |g| {
        let keys = g.vec(1, 400, |g| g.u64(0, 200));
        let k = g.f64(1.0, 40.0);
        let updater = UpdaterKind::ALL[g.usize(0, 3)];
        let seed = g.any_u64();
        let mut stack = krr::core::KrrStack::new(k, updater, seed);
        let mut seen = std::collections::HashSet::new();
        for &key in &keys {
            stack.access(key, 1);
            seen.insert(key);
            assert_eq!(stack.position_of(key), Some(1));
        }
        assert_eq!(stack.len(), seen.len());
        let mut on_stack = std::collections::HashSet::new();
        for (i, e) in stack.iter().enumerate() {
            assert!(on_stack.insert(e.key));
            assert_eq!(stack.position_of(e.key), Some(i as u64 + 1));
        }
        assert_eq!(on_stack, seen);
    });
}

/// Histogram-derived MRCs are monotone non-increasing and bounded in
/// [0, 1] for arbitrary recorded distances.
#[test]
fn mrc_monotone_and_bounded() {
    check("mrc_monotone_and_bounded", 64, |g| {
        let distances = g.vec(1, 500, |g| g.u64(1, 100_000));
        let colds = g.u64(0, 50);
        let bin_width = g.u64(1, 512);
        let mut h = krr::core::SdHistogram::new(bin_width);
        for &d in &distances {
            h.record(d);
        }
        for _ in 0..colds {
            h.record_cold();
        }
        let mrc = Mrc::from_histogram(&h, 1.0);
        let mut prev = f64::INFINITY;
        for &(_, m) in mrc.points() {
            assert!((0.0..=1.0).contains(&m));
            assert!(m <= prev + 1e-12);
            prev = m;
        }
        // At infinite capacity only colds miss.
        let total = distances.len() as u64 + colds;
        let expect = colds as f64 / total as f64;
        assert!((mrc.eval(1e18) - expect).abs() < 1e-9);
    });
}

/// Eviction probabilities (Prop. 1) form a distribution and the CDF
/// inverse roundtrips for random parameters.
#[test]
fn eviction_probability_identities() {
    check("eviction_probability_identities", 64, |g| {
        let c = g.u64(1, 2_000);
        let k = g.f64(1.0, 64.0);
        let sum: f64 = (1..=c)
            .map(|d| krr::core::prob::eviction_prob_with_replacement(d, c, k))
            .sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Inverse CDF lands within the CDF bracket.
        for r in [0.001, 0.37, 0.82, 1.0] {
            let x = krr::core::prob::sample_eviction_position(r, c, k);
            assert!(x >= 1 && x <= c);
            let lo = krr::core::prob::eviction_position_cdf(x - 1, c, k);
            let hi = krr::core::prob::eviction_position_cdf(x, c, k);
            assert!(r >= lo - 1e-9 && r <= hi + 1e-9, "r={r} not in [{lo},{hi}]");
        }
    });
}

/// sizeArray boundary sums remain exact prefix sums under arbitrary
/// reference sequences with resizes.
#[test]
fn sizearray_exactness() {
    check("sizearray_exactness", 64, |g| {
        let ops = g.vec(1, 600, |g| (g.u64(0, 100), g.u32(1, 1_000)));
        let base = g.u64(2, 6);
        let seed = g.any_u64();
        let mut stack = krr::core::KrrStack::new(4.0, UpdaterKind::Backward, seed);
        let mut sa = krr::core::SizeArray::new(base);
        for &(key, size) in &ops {
            match stack.position_of(key) {
                Some(phi) => {
                    let old = stack.entry_at(phi).unwrap().size;
                    sa.on_resize(phi, old, size);
                    let acc = stack.access(key, size);
                    sa.apply(
                        stack.last_chain(),
                        stack.last_chain_sizes(),
                        acc.phi(),
                        size,
                    );
                }
                None => {
                    let acc = stack.access(key, size);
                    sa.on_insert(size);
                    sa.apply(
                        stack.last_chain(),
                        stack.last_chain_sizes(),
                        acc.phi(),
                        size,
                    );
                }
            }
        }
        let sizes: Vec<u64> = stack.iter().map(|e| u64::from(e.size)).collect();
        let mut bound = 1u64;
        let mut t = 0u32;
        while bound <= sizes.len() as u64 {
            let naive: u64 = sizes[..bound as usize].iter().sum();
            assert_eq!(sa.distance(bound), naive);
            t += 1;
            bound = base.pow(t);
        }
        assert_eq!(sa.total_bytes(), sizes.iter().sum::<u64>());
    });
}

fn assert_caches_enforce_capacity(reqs: &[(u64, u32)], cap: u64, k: u32) {
    let mut klru = KLruCache::new(Capacity::Bytes(cap), k, 1);
    let mut lru = ExactLru::new(Capacity::Bytes(cap));
    for &(key, size) in reqs {
        let r = Request::get(key, size);
        klru.access(&r);
        lru.access(&r);
        assert!(klru.used_bytes() <= cap, "K-LRU over budget");
        assert!(lru.used_bytes() <= cap, "LRU over budget");
    }
    let st = klru.stats();
    assert_eq!(st.hits + st.misses, reqs.len() as u64);
}

/// Caches never exceed capacity and never lie about hits.
#[test]
fn caches_enforce_capacity() {
    check("caches_enforce_capacity", 64, |g| {
        let reqs = g.vec(1, 800, |g| (g.u64(0, 300), g.u32(1, 200)));
        let cap = g.u64(1, 5_000);
        let k = g.u32(1, 16);
        assert_caches_enforce_capacity(&reqs, cap, k);
    });
}

/// Spatial filtering is a pure function of the key: two filters with
/// the same rate agree, and admitted fraction ~= rate.
#[test]
fn spatial_filter_determinism() {
    check("spatial_filter_determinism", 64, |g| {
        let rate = g.u64(1, 1000) as f64 / 1000.0;
        let a = krr::core::SpatialFilter::with_rate(rate);
        let b = krr::core::SpatialFilter::with_rate(rate);
        let n = 20_000u64;
        let mut admitted = 0u64;
        for key in 0..n {
            assert_eq!(a.admits(key), b.admits(key));
            if a.admits(key) {
                admitted += 1;
            }
        }
        let got = admitted as f64 / n as f64;
        assert!(
            (got - rate).abs() < 0.02 + rate * 0.2,
            "rate {rate} got {got}"
        );
    });
}

/// The mini-Redis store never exceeds maxmemory and SET-then-GET always
/// hits immediately.
#[test]
fn mini_redis_memory_safety() {
    check("mini_redis_memory_safety", 64, |g| {
        let reqs = g.vec(1, 500, |g| (g.u64(0, 200), g.u32(1, 500)));
        let mem = g.u64(1_000, 50_000);
        let mut store = MiniRedis::new(mem, 5, 3);
        for &(key, size) in &reqs {
            store.set(key, size);
            assert!(store.used_memory() <= mem);
            if u64::from(size) <= mem {
                assert!(store.get(key), "SET-then-GET must hit");
            }
        }
    });
}

/// Zipf sampling stays in range, is deterministic per seed, and its
/// head is at least as popular as deep ranks.
#[test]
fn zipf_sampler_properties() {
    check("zipf_sampler_properties", 32, |g| {
        use krr::core::rng::Xoshiro256;
        let n = g.u64(2, 20_000);
        let s_tenths = g.u32(0, 25);
        let seed = g.any_u64();
        let s = f64::from(s_tenths) / 10.0;
        let z = krr::trace::Zipf::new(n, s);
        let mut a = Xoshiro256::seed_from_u64(seed);
        let mut b = Xoshiro256::seed_from_u64(seed);
        let mut head = 0u32;
        let mut deep = 0u32;
        for _ in 0..400 {
            let x = z.sample(&mut a);
            assert_eq!(x, z.sample(&mut b), "determinism");
            assert!(x < n);
            if x == 0 {
                head += 1;
            }
            if x >= n / 2 {
                deep += 1;
            }
        }
        if s_tenths >= 10 && n >= 100 {
            // Strong skew: item 0 alone should outdraw the entire deep
            // half often enough to register.
            assert!(head + 5 >= deep / 10, "head {head} deep {deep}");
        }
    });
}

/// Size distributions respect their bounds for arbitrary parameters.
#[test]
fn size_distributions_bounded() {
    check("size_distributions_bounded", 32, |g| {
        use krr::core::rng::Xoshiro256;
        use krr::trace::dist::SizeDist;
        let lo = g.u32(1, 1_000);
        let span = g.u32(0, 10_000);
        let shape_tenths = g.u32(10, 40);
        let seed = g.any_u64();
        let hi = lo + span;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let u = SizeDist::Uniform { lo, hi };
        let p = SizeDist::Pareto {
            scale: f64::from(lo),
            shape: f64::from(shape_tenths) / 10.0,
            cap: hi,
        };
        for _ in 0..200 {
            let s = u.sample(&mut rng);
            assert!(s >= lo && s <= hi);
            let s = p.sample(&mut rng);
            assert!(s >= 1 && s <= hi.max(1));
        }
    });
}

/// Trace CSV IO roundtrips arbitrary traces.
#[test]
fn trace_io_roundtrip() {
    check("trace_io_roundtrip", 32, |g| {
        use krr::trace::{io, Op, Request};
        let trace: Vec<Request> = g.vec(0, 200, |g| Request {
            key: g.any_u64(),
            size: g.u32(1, 1_000_000),
            op: if g.bool() { Op::Set } else { Op::Get },
        });
        let mut buf = Vec::new();
        io::write_csv(&mut buf, &trace).unwrap();
        let back = io::read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    });
}

/// Histogram merge is commutative and totals add up.
#[test]
fn histogram_merge_commutes() {
    check("histogram_merge_commutes", 32, |g| {
        let xs = g.vec(0, 100, |g| g.u64(1, 10_000));
        let ys = g.vec(0, 100, |g| g.u64(1, 10_000));
        let width = g.u64(1, 32);
        let build = |ds: &[u64]| {
            let mut h = krr::core::SdHistogram::new(width);
            for &d in ds {
                h.record(d);
            }
            h
        };
        let mut ab = build(&xs);
        ab.merge(&build(&ys));
        let mut ba = build(&ys);
        ba.merge(&build(&xs));
        assert_eq!(ab.total(), ba.total());
        for b in 0..ab.num_bins().max(ba.num_bins()) {
            assert_eq!(ab.bin(b), ba.bin(b), "bin {b}");
        }
    });
}

/// OPT never loses to LRU (Belady optimality smoke test on random
/// small traces).
#[test]
fn opt_dominates_lru() {
    check("opt_dominates_lru", 32, |g| {
        use krr::sim::opt::{next_use_times, simulate_opt};
        let keys = g.vec(50, 400, |g| g.u64(0, 60));
        let cap = g.u64(2, 40);
        let trace: Vec<Request> = keys.iter().map(|&k| Request::unit(k)).collect();
        let next = next_use_times(&trace);
        let opt = simulate_opt(&trace, &next, cap).miss_ratio();
        let mut lru = ExactLru::new(Capacity::Objects(cap));
        for r in &trace {
            lru.access(r);
        }
        assert!(opt <= lru.stats().miss_ratio() + 1e-9);
    });
}

/// Regression pinned from the proptest era (`.proptest-regressions` case
/// cc230302): byte capacity smaller than every object size — the cache
/// must keep evicting down to empty rather than loop or overshoot. The
/// shrunken essence is `cap = 8` with all sizes in [28, 200).
#[test]
fn regression_capacity_below_every_object_size() {
    let reqs: Vec<(u64, u32)> = vec![
        (40, 87),
        (94, 114),
        (199, 175),
        (254, 135),
        (45, 104),
        (208, 86),
        (247, 160),
        (136, 24),
        (139, 105),
        (78, 191),
        (142, 33),
        (228, 98),
        (275, 24),
        (67, 41),
        (155, 73),
        (3, 106),
        (264, 153),
        (15, 137),
        (201, 152),
        (147, 164),
        (154, 138),
        (263, 33),
        (112, 38),
        (58, 64),
        (20, 109),
        (155, 164),
        (248, 171),
        (118, 149),
        (206, 158),
        (31, 121),
        (231, 121),
        (250, 152),
        (190, 115),
        (179, 72),
        (154, 31),
        (100, 101),
        (98, 11),
        (110, 195),
        (182, 45),
        (86, 13),
        (59, 150),
        (185, 167),
        (229, 103),
        (159, 127),
        (41, 1),
        (156, 78),
        (105, 159),
        (36, 85),
        (291, 131),
        (279, 73),
        (230, 100),
        (66, 22),
        (76, 45),
        (100, 164),
        (11, 109),
        (248, 2),
        (141, 133),
        (97, 32),
        (88, 24),
        (264, 118),
        (97, 93),
        (228, 140),
        (132, 72),
        (79, 180),
        (41, 64),
        (13, 28),
        (140, 130),
        (139, 136),
        (250, 98),
        (254, 180),
        (202, 5),
        (221, 6),
        (43, 184),
        (76, 78),
        (20, 143),
        (245, 131),
        (221, 149),
        (44, 84),
        (63, 120),
        (281, 45),
        (249, 6),
        (182, 99),
        (81, 5),
        (2, 159),
        (251, 11),
        (294, 126),
        (102, 73),
        (124, 74),
        (260, 98),
        (72, 134),
        (87, 91),
        (160, 135),
        (253, 119),
        (62, 179),
        (71, 156),
        (187, 174),
        (209, 15),
        (30, 8),
        (222, 59),
        (100, 166),
        (98, 30),
        (281, 46),
        (101, 196),
        (156, 121),
        (274, 149),
        (58, 75),
        (182, 190),
        (110, 13),
        (140, 129),
        (55, 51),
        (169, 63),
        (66, 9),
        (66, 187),
        (260, 114),
        (152, 152),
        (104, 189),
        (212, 167),
        (51, 75),
        (51, 182),
        (79, 28),
        (65, 7),
        (51, 49),
        (119, 134),
        (15, 60),
        (169, 41),
        (296, 72),
        (298, 65),
        (33, 155),
        (263, 101),
        (204, 20),
        (177, 112),
        (98, 84),
        (98, 120),
        (157, 73),
        (276, 162),
        (213, 107),
        (17, 105),
        (64, 60),
        (188, 70),
        (243, 51),
        (14, 168),
        (90, 70),
        (44, 29),
        (200, 196),
        (57, 107),
        (1, 73),
        (120, 32),
        (37, 164),
        (254, 49),
        (202, 137),
        (168, 156),
        (169, 58),
        (256, 193),
        (10, 23),
        (120, 178),
        (291, 75),
        (114, 169),
        (44, 12),
        (29, 1),
        (129, 162),
        (195, 94),
        (172, 168),
        (260, 86),
        (283, 101),
        (291, 163),
        (221, 85),
        (262, 68),
        (299, 128),
        (55, 32),
        (29, 148),
        (202, 130),
        (257, 80),
        (277, 110),
        (169, 106),
        (232, 151),
        (72, 57),
        (118, 94),
        (79, 166),
        (86, 75),
        (286, 1),
        (213, 91),
        (42, 129),
        (291, 122),
        (157, 23),
        (200, 118),
        (123, 196),
        (68, 28),
        (88, 124),
        (290, 87),
        (253, 142),
        (232, 21),
        (266, 99),
        (143, 154),
        (270, 50),
        (42, 199),
        (18, 179),
        (128, 113),
        (84, 55),
        (68, 78),
        (22, 140),
        (194, 50),
        (170, 93),
        (295, 33),
        (194, 123),
        (279, 32),
        (33, 23),
        (21, 193),
        (43, 151),
        (285, 113),
        (96, 53),
        (40, 61),
        (111, 35),
        (94, 145),
        (81, 36),
        (32, 135),
        (143, 56),
        (14, 113),
        (13, 133),
        (244, 89),
        (48, 153),
        (203, 128),
        (29, 23),
        (179, 114),
        (91, 165),
        (278, 175),
        (187, 56),
        (191, 167),
        (136, 39),
        (129, 56),
        (193, 191),
        (47, 183),
        (275, 51),
        (247, 164),
        (282, 54),
        (234, 55),
        (126, 61),
        (193, 48),
        (264, 110),
        (30, 42),
        (124, 187),
        (267, 93),
        (2, 136),
        (249, 116),
        (34, 118),
        (230, 92),
        (226, 81),
        (297, 32),
        (182, 194),
        (126, 14),
        (87, 161),
        (43, 6),
        (279, 181),
        (59, 1),
        (33, 132),
        (35, 4),
        (177, 59),
        (272, 148),
        (185, 96),
        (79, 143),
        (72, 58),
        (42, 87),
        (269, 77),
        (150, 170),
        (205, 32),
        (167, 28),
        (115, 99),
    ];
    assert_caches_enforce_capacity(&reqs, 8, 7);
    // The same shape across every sampling size, including K larger than
    // the (always-zero) resident population.
    for k in [1, 2, 7, 15] {
        assert_caches_enforce_capacity(&reqs, 8, k);
    }
}

/// `bucket_of`/`bucket_bound` round-trip: every value lands in the bucket
/// whose bound range contains it, and bounds are monotone.
#[test]
fn histogram_bucket_roundtrip() {
    use krr::core::metrics::{bucket_bound, bucket_of, LOG_BUCKETS};
    check("histogram_bucket_roundtrip", 256, |g| {
        let v = match g.usize(0, 3) {
            0 => g.u64(0, 1 << 10),
            1 => g.any_u64(),
            // Powers of two and their neighbours: the bucket edges.
            _ => {
                let p = 1u64 << g.u32(0, 64);
                p.saturating_add(g.u64(0, 3)).saturating_sub(1)
            }
        };
        let b = bucket_of(v);
        assert!(b < LOG_BUCKETS, "bucket index {b} out of range for {v}");
        assert!(
            v <= bucket_bound(b),
            "{v} above its bucket bound {}",
            bucket_bound(b)
        );
        if b > 0 {
            assert!(
                v > bucket_bound(b - 1),
                "{v} also fits the previous bucket (bound {})",
                bucket_bound(b - 1)
            );
        }
    });
    // Exhaustive edge sweep: bounds are strictly increasing and each
    // bound maps back into its own bucket.
    for b in 0..LOG_BUCKETS {
        assert_eq!(bucket_of(bucket_bound(b)), b.min(64));
        if b > 0 {
            assert!(bucket_bound(b) > bucket_bound(b - 1));
        }
    }
}

/// Percentile estimates stay within bucket resolution of the true order
/// statistic: for any recorded multiset, `percentile(p)` is an upper
/// bound of the bucket holding the true p-quantile, and never exceeds
/// the recorded max.
#[test]
fn histogram_percentile_brackets_true_quantile() {
    use krr::core::metrics::{bucket_of, LogHistogram};
    check("histogram_percentile_brackets_true_quantile", 128, |g| {
        let mut values = g.vec(1, 300, |g| {
            if g.bool() {
                g.u64(0, 1 << 12)
            } else {
                g.any_u64() >> g.u32(0, 40)
            }
        });
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.max, *values.last().unwrap());
        for p in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = snap.percentile(p);
            // The true order statistic under the same ceil(p*n) (min 1)
            // rank convention.
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            assert!(est <= snap.max, "p{p}: estimate {est} above max");
            assert!(
                est >= truth,
                "p{p}: estimate {est} below the true quantile {truth}"
            );
            // Same bucket (or clipped to max): bucket resolution is the
            // promised error bound.
            assert!(
                bucket_of(est) == bucket_of(truth) || est == snap.max,
                "p{p}: estimate {est} left the true quantile's bucket ({truth})"
            );
        }
    });
}

/// Percentile boundary behaviour: empty histograms report 0 for every p,
/// and a single-value histogram reports that value's bucket bound
/// (clipped to the value itself, since max == value) for all p.
#[test]
fn histogram_percentile_boundaries() {
    use krr::core::metrics::LogHistogram;
    let empty = LogHistogram::new().snapshot();
    for p in [0.0, 0.5, 1.0] {
        assert_eq!(empty.percentile(p), 0);
    }
    check("histogram_percentile_boundaries", 128, |g| {
        let v = g.any_u64() >> g.u32(0, 63);
        let h = LogHistogram::new();
        h.record(v);
        let snap = h.snapshot();
        // One sample: every percentile, including p=0 (clamped to rank 1)
        // and p=1, is that sample, reported exactly thanks to the max
        // clip.
        for p in [0.0, 0.25, 1.0] {
            assert_eq!(snap.percentile(p), v, "single-value histogram at p{p}");
        }
        // Delta against itself empties the window but keeps the absolute
        // max, so percentiles collapse to 0-count behaviour.
        let d = snap.delta(&snap);
        assert_eq!(d.count, 0);
        assert_eq!(d.percentile(0.99), 0);
    });
}
