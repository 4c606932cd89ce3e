//! Online accuracy watchdog: a spatially-sampled shadow [`OlkenLru`]
//! profiler that runs beside a KRR model and periodically measures how far
//! the KRR MRC sits from the shadow's exact-LRU MRC.
//!
//! KRR models a *K-LRU* cache, so the distance to exact LRU is not an
//! error per se — for the paper's Type A workloads and small K it is the
//! entire point. What a production deployment needs is the *trajectory* of
//! that distance: under a stationary workload the KRR-vs-shadow MAE is
//! stable (and shrinks with K, since K-LRU → LRU as K grows), so a jump
//! past a configured threshold means the workload shifted in a way the
//! K′ = K^1.4 correction no longer tracks, and the profile deserves a
//! fresh warm-up or a human look.
//!
//! Cost model: the shadow admits keys through the same SHARDS spatial
//! filter machinery as KRR ([`SpatialFilter`], low 24 hash bits at rate
//! `R`), so it pays Olken's O(logM) only on ~`R·N` references, and its MRC
//! is expanded by `1/R` back to full-trace scale before comparison.
//! Results publish into the shared [`MetricsRegistry`] (`# watchdog` INFO
//! section / `"watchdog"` JSON object): check count, shadow reference
//! count, a live MAE gauge in ppm, and a monotone drift-event counter.
//!
//! ```
//! use krr_baselines::watchdog::{AccuracyWatchdog, WatchdogConfig};
//! use krr_core::{KrrConfig, KrrModel};
//!
//! let mut model = KrrModel::new(KrrConfig::new(5.0));
//! let mut dog = AccuracyWatchdog::new(WatchdogConfig {
//!     rate: 1.0, // sample everything (tiny example)
//!     check_every: 1_000,
//!     ..WatchdogConfig::default()
//! });
//! for key in (0..500u64).chain(0..500) {
//!     model.access_key(key);
//!     dog.observe(key);
//!     if dog.check_due() {
//!         let report = dog.check(&model.mrc());
//!         assert!(report.mae < 0.5);
//!     }
//! }
//! ```

use krr_core::hashing::hash_key;
use krr_core::metrics::MetricsRegistry;
use krr_core::mrc::{even_sizes, Mrc};
use krr_core::sampling::SpatialFilter;
use std::sync::Arc;

use crate::olken::OlkenLru;

/// Tuning for an [`AccuracyWatchdog`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Spatial sampling rate of the shadow profiler (default 0.01: the
    /// shadow sees ~1% of references, cutting its O(logM) cost and memory
    /// by 100× at the usual SHARDS accuracy).
    pub rate: f64,
    /// References observed between shadow comparisons (default 100 000).
    pub check_every: u64,
    /// MAE (in miss-ratio units) at or above which a check counts as a
    /// drift event (default 0.08).
    pub mae_threshold: f64,
    /// Cache sizes on the comparison grid (default 32, evenly spaced up to
    /// the larger of the two curves' max size).
    pub eval_points: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            rate: 0.01,
            check_every: 100_000,
            mae_threshold: 0.08,
            eval_points: 32,
        }
    }
}

/// Outcome of one shadow comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogReport {
    /// Mean absolute error between the KRR MRC and the shadow MRC.
    pub mae: f64,
    /// Whether `mae` reached the configured drift threshold.
    pub drifted: bool,
    /// Comparisons performed so far (including this one).
    pub checks: u64,
    /// References the shadow profiler has admitted so far.
    pub shadow_refs: u64,
}

/// The shadow profiler plus its comparison schedule. See the module docs.
#[derive(Debug)]
pub struct AccuracyWatchdog {
    config: WatchdogConfig,
    filter: SpatialFilter,
    shadow: OlkenLru,
    observed: u64,
    shadow_refs: u64,
    checks: u64,
    next_check: u64,
    last: Option<WatchdogReport>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl AccuracyWatchdog {
    /// Creates a watchdog; `config.rate` must lie in `(0, 1]`.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Self {
        assert!(
            config.rate > 0.0 && config.rate <= 1.0,
            "shadow sampling rate must be in (0, 1]"
        );
        let filter = if config.rate >= 1.0 {
            SpatialFilter::all()
        } else {
            SpatialFilter::with_rate(config.rate)
        };
        let next_check = config.check_every.max(1);
        Self {
            config,
            filter,
            shadow: OlkenLru::new(),
            observed: 0,
            shadow_refs: 0,
            checks: 0,
            next_check,
            last: None,
            metrics: None,
        }
    }

    /// Publishes check results into `metrics` (`watchdog_*` fields).
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Offers one reference; the spatial filter decides whether the shadow
    /// profiler sees it. Returns whether it was admitted.
    pub fn observe(&mut self, key: u64) -> bool {
        self.observed += 1;
        if !self.filter.admits_hashed(hash_key(key)) {
            return false;
        }
        self.shadow.access_key(key);
        self.shadow_refs += 1;
        if let Some(m) = &self.metrics {
            m.watchdog_shadow_refs.inc();
        }
        true
    }

    /// Whether enough references have been observed since the last check.
    #[must_use]
    pub fn check_due(&self) -> bool {
        self.observed >= self.next_check
    }

    /// References observed so far (admitted or not).
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The most recent report, if a check has run.
    #[must_use]
    pub fn last_report(&self) -> Option<WatchdogReport> {
        self.last
    }

    /// Compares `krr` against the shadow's scaled exact-LRU MRC, publishes
    /// the result to the attached metrics registry, and reschedules the
    /// next check. An idle shadow (nothing admitted yet) reports MAE 0.
    pub fn check(&mut self, krr: &Mrc) -> WatchdogReport {
        let scale = 1.0 / self.filter.rate();
        let shadow = self.shadow.mrc_scaled(scale);
        let max = shadow.max_size().max(krr.max_size());
        let mae = if self.shadow_refs == 0 || max <= 0.0 {
            0.0
        } else {
            let sizes = even_sizes(max, self.config.eval_points.max(2));
            krr.mae(&shadow, &sizes)
        };
        self.checks += 1;
        let drifted = mae >= self.config.mae_threshold;
        let report = WatchdogReport {
            mae,
            drifted,
            checks: self.checks,
            shadow_refs: self.shadow_refs,
        };
        if let Some(m) = &self.metrics {
            m.watchdog_checks.inc();
            m.watchdog_mae_ppm.set((mae * 1e6).round() as u64);
            if drifted {
                m.watchdog_drift_events.inc();
            }
            m.publish_footprint(&krr_core::footprint::Footprint::footprint(self));
        }
        self.next_check =
            (self.observed / self.config.check_every.max(1) + 1) * self.config.check_every.max(1);
        self.last = Some(report);
        report
    }
}

impl krr_core::footprint::Footprint for AccuracyWatchdog {
    /// The shadow profiler's entire footprint under a single `shadow_olken`
    /// label, so [`MetricsRegistry::publish_footprint`] routes it to the
    /// `footprint_shadow_bytes` gauge without disturbing the model gauges.
    fn footprint(&self) -> krr_core::footprint::FootprintReport {
        let mut r = krr_core::footprint::FootprintReport::new();
        r.add("shadow_olken", self.shadow.deep_bytes());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krr_core::rng::Xoshiro256;
    use krr_core::{KrrConfig, KrrModel};

    fn drive(model: &mut KrrModel, dog: &mut AccuracyWatchdog, keys: u64, n: usize, seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..n {
            let u = rng.unit();
            let key = (u * u * keys as f64) as u64;
            model.access_key(key);
            dog.observe(key);
            if dog.check_due() {
                let mrc = model.mrc();
                dog.check(&mrc);
            }
        }
    }

    #[test]
    fn stationary_workload_stays_under_threshold() {
        // Large K: K-LRU is close to LRU, so KRR should track the exact
        // shadow closely and no drift events should fire.
        let mut model = KrrModel::new(KrrConfig::new(64.0));
        let mut dog = AccuracyWatchdog::new(WatchdogConfig {
            rate: 0.2,
            check_every: 20_000,
            mae_threshold: 0.08,
            eval_points: 32,
        });
        let reg = Arc::new(MetricsRegistry::new());
        dog.set_metrics(Arc::clone(&reg));
        drive(&mut model, &mut dog, 20_000, 120_000, 9);
        let report = dog.last_report().expect("checks ran");
        assert!(report.checks >= 5, "expected periodic checks");
        assert!(
            report.mae < 0.08,
            "stationary large-K MAE should be small, got {}",
            report.mae
        );
        let snap = reg.snapshot();
        assert_eq!(snap.watchdog_checks, report.checks);
        assert_eq!(snap.watchdog_drift_events, 0);
        assert_eq!(snap.watchdog_mae_ppm, (report.mae * 1e6).round() as u64);
        assert!(snap.watchdog_shadow_refs > 0);
    }

    #[test]
    fn shadow_sampling_reduces_shadow_work() {
        let mut dog = AccuracyWatchdog::new(WatchdogConfig {
            rate: 0.05,
            ..WatchdogConfig::default()
        });
        for key in 0..50_000u64 {
            dog.observe(key);
        }
        let admitted = dog.shadow_refs;
        // 50K distinct keys at rate 0.05: expect ~2500, generous 3σ band.
        assert!(
            (1_800..=3_200).contains(&(admitted as i64)),
            "admitted {admitted}"
        );
        assert_eq!(dog.observed(), 50_000);
    }

    #[test]
    fn divergent_model_raises_drift_event() {
        // Compare a deliberately tiny-K model (coarse K-LRU) against the
        // shadow on a reuse-heavy workload with a tight threshold: the MAE
        // must land above it and increment the drift counter.
        let mut model = KrrModel::new(KrrConfig::new(1.0).raw_k());
        let mut dog = AccuracyWatchdog::new(WatchdogConfig {
            rate: 1.0,
            check_every: 10_000,
            mae_threshold: 0.01,
            eval_points: 32,
        });
        let reg = Arc::new(MetricsRegistry::new());
        dog.set_metrics(Arc::clone(&reg));
        drive(&mut model, &mut dog, 2_000, 40_000, 5);
        let report = dog.last_report().expect("checks ran");
        assert!(report.drifted, "K=1 vs exact LRU must exceed MAE 0.01");
        assert!(reg.snapshot().watchdog_drift_events >= 1);
    }

    #[test]
    fn idle_shadow_reports_zero_without_panicking() {
        let mut dog = AccuracyWatchdog::new(WatchdogConfig::default());
        let model = KrrModel::new(KrrConfig::new(5.0));
        let report = dog.check(&model.mrc());
        assert_eq!(report.mae, 0.0);
        assert!(!report.drifted);
        assert_eq!(report.shadow_refs, 0);
    }

    #[test]
    fn check_schedule_advances_past_observed_count() {
        let mut dog = AccuracyWatchdog::new(WatchdogConfig {
            rate: 1.0,
            check_every: 100,
            ..WatchdogConfig::default()
        });
        let model = KrrModel::new(KrrConfig::new(5.0));
        for key in 0..250u64 {
            dog.observe(key);
        }
        assert!(dog.check_due());
        dog.check(&model.mrc());
        // 250 observed, window 100 -> next boundary is 300.
        assert!(!dog.check_due());
        for key in 0..50u64 {
            dog.observe(key);
        }
        assert!(dog.check_due());
    }
}
