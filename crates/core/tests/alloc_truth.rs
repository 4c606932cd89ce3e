//! Allocator truth for the §5.6 space numbers: a model's
//! [`Footprint::deep_bytes`] must match the heap it really holds.
//!
//! The test installs [`CountingAlloc`] as the global allocator and needs
//! the `alloc-stats` feature for it to count:
//!
//! ```sh
//! cargo test -p krr-core --features alloc-stats --test alloc_truth
//! ```

use krr_core::footprint::Footprint;
use krr_core::heap::{live_bytes, CountingAlloc};
use krr_core::rng::Xoshiro256;
use krr_core::{KrrConfig, KrrModel};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Feeds a model every one of `keys` keys once, then `2·keys` uniformly
/// random re-references, and returns `(deep_bytes, live-heap growth)`
/// across its lifetime.
fn measure(config: KrrConfig, keys: u64) -> (usize, u64) {
    // Shared per-K tables are cached process-wide on first use; build them
    // before the baseline so only the model's own heap is counted.
    drop(KrrModel::new(config.clone()));
    let before = live_bytes();
    let mut m = KrrModel::new(config);
    let mut rng = Xoshiro256::seed_from_u64(17);
    let size = |key: u64| 16 + (key % 977) as u32;
    for key in 0..keys {
        m.access(key, size(key));
    }
    for _ in 0..2 * keys {
        let key = rng.below(keys);
        m.access(key, size(key));
    }
    assert_eq!(m.stats().distinct, keys);
    let grown = live_bytes() - before;
    (m.deep_bytes(), grown)
}

#[test]
fn deep_bytes_match_live_heap_growth() {
    // 100K keys is a deep stack; 210 is a typical fleet tenant, where
    // growth slack and fixed costs weigh most. 1 KiB byte-level bins keep
    // the histogram from dwarfing the stack, so leaving out any per-object
    // array, the index or the histogram misses by over 10%.
    for keys in [100_000, 210] {
        for (name, config) in [
            ("uniform", KrrConfig::new(5.0).seed(3)),
            (
                "byte-level",
                KrrConfig::new(5.0).seed(3).byte_level(2, 1024),
            ),
        ] {
            let (modeled, measured) = measure(config, keys);
            let ratio = modeled as f64 / measured as f64;
            println!(
                "{name}, {keys} keys: deep_bytes {modeled}, \
                 live heap growth {measured}, ratio {ratio:.4}"
            );
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{name}, {keys} keys: deep_bytes {modeled} vs live heap growth {measured}"
            );
        }
    }
}
