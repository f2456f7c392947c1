//! The counter/histogram registry: cheap when disabled, rich when on.
//!
//! The pipeline carries one [`Counters`] value. In the default
//! [`Counters::disabled`] state every recording site reduces to a single
//! branch on [`Counters::is_enabled`], so the hot cycle loop pays nothing
//! measurable (`obs.counters_overhead` in the `hpabench` per-layer
//! record tracks it). Enabling the
//! registry must never perturb timing: recording reads simulator state
//! but writes only into this struct, and the differential suite asserts
//! bit-identical `SimStats` and retire streams either way.

use crate::cpi::{CpiCategory, CpiStack};
use crate::json::Json;
use std::fmt;

/// Number of buckets in a [`Histogram`]; values at or above
/// `BUCKETS - 1` land in the last (overflow) bucket.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A small fixed-bucket histogram of non-negative integer samples.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of the *unclamped* samples, so the mean stays exact even when
    /// samples overflow into the last bucket.
    sum: u64,
}

impl Histogram {
    /// Records one sample (clamped into the overflow bucket).
    pub fn record(&mut self, value: u64) {
        let ix = (value as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[ix] += 1;
        self.sum += value;
    }

    /// The count in bucket `ix` (callers index `0..HISTOGRAM_BUCKETS`).
    #[must_use]
    pub fn bucket(&self, ix: usize) -> u64 {
        self.buckets[ix]
    }

    /// Total recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of the recorded samples (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.samples();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Zeroes the histogram in place.
    pub fn reset_in_place(&mut self) {
        *self = Histogram::default();
    }

    /// The bucket counts as a JSON array.
    fn buckets_json(&self) -> Json {
        Json::Arr(self.buckets.iter().map(|&b| Json::from(b)).collect())
    }
}

/// The per-run observability registry: a CPI stack plus the penalty
/// counters and distributions the half-price analysis needs.
///
/// Construct with [`Counters::enabled`] or [`Counters::disabled`]; the
/// flag is immutable for the life of the value so a run is either fully
/// observed or fully unobserved.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counters {
    on: bool,
    /// Issue-slot attribution (see [`CpiStack`] for the invariant).
    pub cpi: CpiStack,
    /// Cycles between an instruction's last operand wakeup (its effective
    /// ready cycle) and the cycle it was finally selected — the
    /// issue-to-wakeup delay distribution.
    pub wakeup_to_select: Histogram,
    /// Per-cycle count of operand wakeups delivered on the slow bus
    /// (recorded only under sequential wakeup): slow-bus occupancy.
    pub slow_bus_occupancy: Histogram,
    /// Sequential-register-access issues that needed the second port read
    /// (read-port re-reads; mirrors `SimStats::seq_rf_accesses` from the
    /// registry side so the differential suite can cross-check).
    pub rf_rereads: u64,
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::disabled()
    }
}

impl Counters {
    /// A recording registry.
    #[must_use]
    pub fn enabled() -> Counters {
        Counters {
            on: true,
            cpi: CpiStack::default(),
            wakeup_to_select: Histogram::default(),
            slow_bus_occupancy: Histogram::default(),
            rf_rereads: 0,
        }
    }

    /// The zero-overhead path: recording sites see `is_enabled() ==
    /// false` and skip all work.
    #[must_use]
    pub fn disabled() -> Counters {
        Counters { on: false, ..Counters::enabled() }
    }

    /// Whether recording sites should do any work.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Zeroes every counter in place (warmup boundary), preserving the
    /// enabled flag.
    pub fn reset_in_place(&mut self) {
        self.cpi.reset_in_place();
        self.wakeup_to_select.reset_in_place();
        self.slow_bus_occupancy.reset_in_place();
        self.rf_rereads = 0;
    }

    /// The registry as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cpi = CpiCategory::ALL.iter().map(|&cat| (cat.key(), Json::from(self.cpi.get(cat))));
        Json::obj(vec![
            ("enabled", Json::from(self.on)),
            ("cpi_stack", Json::obj(cpi.collect())),
            ("cpi_total_slots", Json::from(self.cpi.total())),
            ("wakeup_to_select", self.wakeup_to_select.buckets_json()),
            ("wakeup_to_select_mean", Json::fixed(self.wakeup_to_select.mean(), 4)),
            ("slow_bus_occupancy", self.slow_bus_occupancy.buckets_json()),
            ("rf_rereads", Json::from(self.rf_rereads)),
        ])
    }
}

/// Text rendering: one line per CPI category with percentages, then the
/// registry counters — the `hpa sim --cpi-stack --counters` view.
impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.on {
            return writeln!(f, "counters disabled");
        }
        writeln!(f, "CPI stack ({} issue slots attributed):", self.cpi.total())?;
        for cat in CpiCategory::ALL {
            let slots = self.cpi.get(cat);
            if slots == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<24} {:>12}  {:>6.2}%",
                cat.label(),
                slots,
                100.0 * self.cpi.fraction(cat)
            )?;
        }
        writeln!(
            f,
            "wakeup-to-select delay: mean {:.3} cycles over {} issues",
            self.wakeup_to_select.mean(),
            self.wakeup_to_select.samples()
        )?;
        writeln!(
            f,
            "slow-bus occupancy:     mean {:.3} wakeups/cycle over {} cycles",
            self.slow_bus_occupancy.mean(),
            self.slow_bus_occupancy.samples()
        )?;
        writeln!(f, "RF re-reads:            {}", self.rf_rereads)
    }
}

/// The simulation-service observability registry: cache effectiveness,
/// queue pressure and job latency for one `hpa serve` daemon.
///
/// Deliberately a separate struct from [`Counters`]: that registry's
/// debug formatting is pinned by golden digests per simulated run, while
/// this one aggregates over the daemon's lifetime and is free to grow.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ServeCounters {
    /// Result-cache hits: job cells served from the content-addressed
    /// store without simulating.
    pub cache_hits: u64,
    /// Result-cache misses: job cells that had to simulate.
    pub cache_misses: u64,
    /// Jobs that reached `done`.
    pub jobs_done: u64,
    /// Jobs that reached `failed`.
    pub jobs_failed: u64,
    /// Jobs that reached `expired`.
    pub jobs_expired: u64,
    /// Submissions bounced by admission control (`--max-queue`) with 429.
    pub jobs_rejected: u64,
    /// Result-cache entries evicted by the entry/byte bounds.
    pub cache_evictions: u64,
    /// Corrupt/truncated journal records skipped during startup replay.
    pub journal_records_skipped: u64,
    /// Incomplete journaled jobs re-enqueued during startup replay.
    pub journal_jobs_requeued: u64,
    /// Terminal journaled jobs rehydrated into the table during replay.
    pub journal_jobs_rehydrated: u64,
    /// Cache disk entries dropped at startup for carrying another model
    /// fingerprint.
    pub cache_stale_dropped: u64,
    /// Journaled `done` records dropped at replay for carrying another
    /// model fingerprint (their jobs re-run).
    pub journal_stale_dropped: u64,
    /// Queue depth observed at each submission (pressure distribution).
    pub queue_depth: Histogram,
    /// Submit-to-terminal-state latency per job, as `log2(1 + ms)` — the
    /// 16 buckets then span 1 ms to ~9 hours.
    pub job_latency_log2_ms: Histogram,
    /// Exact sum of per-job latencies, so `retry_after_ms` hints can use
    /// a true mean rather than a log-bucket approximation.
    pub latency_ms_total: u64,
}

impl ServeCounters {
    /// Records a finished job's submit-to-terminal latency.
    pub fn record_latency_ms(&mut self, ms: u64) {
        self.job_latency_log2_ms.record(u64::from(64 - (ms + 1).leading_zeros() - 1));
        self.latency_ms_total = self.latency_ms_total.saturating_add(ms);
    }

    /// Mean observed job latency in ms (`None` before any job finishes).
    #[must_use]
    pub fn mean_latency_ms(&self) -> Option<u64> {
        let n = self.job_latency_log2_ms.samples();
        (n > 0).then(|| self.latency_ms_total / n)
    }

    /// Cache hit rate in `[0, 1]` (`0.0` before any lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The registry as a JSON object (served by `/health`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("serve_cache_hits", Json::from(self.cache_hits)),
            ("serve_cache_misses", Json::from(self.cache_misses)),
            ("hit_rate", Json::fixed(self.hit_rate(), 4)),
            ("jobs_done", Json::from(self.jobs_done)),
            ("jobs_failed", Json::from(self.jobs_failed)),
            ("jobs_expired", Json::from(self.jobs_expired)),
            ("jobs_rejected", Json::from(self.jobs_rejected)),
            ("cache_evictions", Json::from(self.cache_evictions)),
            ("journal_records_skipped", Json::from(self.journal_records_skipped)),
            ("journal_jobs_requeued", Json::from(self.journal_jobs_requeued)),
            ("journal_jobs_rehydrated", Json::from(self.journal_jobs_rehydrated)),
            ("cache_stale_dropped", Json::from(self.cache_stale_dropped)),
            ("journal_stale_dropped", Json::from(self.journal_stale_dropped)),
            ("mean_latency_ms", Json::from(self.mean_latency_ms().unwrap_or(0))),
            ("queue_depth", self.queue_depth.buckets_json()),
            ("queue_depth_mean", Json::fixed(self.queue_depth.mean(), 4)),
            ("job_latency_log2_ms", self.job_latency_log2_ms.buckets_json()),
        ])
    }
}

impl fmt::Display for ServeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cache: {} hit(s) / {} miss(es) ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate()
        )?;
        writeln!(
            f,
            "jobs:  {} done, {} failed, {} expired, {} rejected",
            self.jobs_done, self.jobs_failed, self.jobs_expired, self.jobs_rejected
        )?;
        writeln!(f, "cache evictions:        {}", self.cache_evictions)?;
        writeln!(
            f,
            "journal replay:         {} requeued, {} rehydrated, {} skipped",
            self.journal_jobs_requeued, self.journal_jobs_rehydrated, self.journal_records_skipped
        )?;
        writeln!(
            f,
            "stale results dropped:  {} cached, {} journaled",
            self.cache_stale_dropped, self.journal_stale_dropped
        )?;
        writeln!(
            f,
            "queue depth at submit:  mean {:.2} over {} submission(s)",
            self.queue_depth.mean(),
            self.queue_depth.samples()
        )?;
        write!(
            f,
            "job latency:            mean log2(ms) {:.2} over {} job(s)",
            self.job_latency_log2_ms.mean(),
            self.job_latency_log2_ms.samples()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_and_keeps_exact_mean() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(100); // overflow bucket
        assert_eq!(h.samples(), 3);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(HISTOGRAM_BUCKETS - 1), 1);
        assert!((h.mean() - 103.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_is_default_and_reset_preserves_flag() {
        let mut c = Counters::default();
        assert!(!c.is_enabled());
        c = Counters::enabled();
        c.cpi.add(CpiCategory::Committing, 4);
        c.rf_rereads = 7;
        c.reset_in_place();
        assert!(c.is_enabled());
        assert_eq!(c.cpi.total(), 0);
        assert_eq!(c.rf_rereads, 0);
    }

    #[test]
    fn json_contains_every_category_key() {
        let mut c = Counters::enabled();
        c.cpi.add(CpiCategory::SeqWakeupDelay, 2);
        c.wakeup_to_select.record(1);
        let j = crate::json::parse(&c.to_json().render()).expect("valid JSON");
        let stack = j.get("cpi_stack").expect("cpi_stack");
        for cat in CpiCategory::ALL {
            let want = if cat == CpiCategory::SeqWakeupDelay { 2 } else { 0 };
            assert_eq!(stack.get(cat.key()).and_then(Json::as_u64), Some(want), "{j:?}");
        }
        assert_eq!(j.get("cpi_total_slots").and_then(Json::as_u64), Some(2), "{j:?}");
        assert_eq!(j.get("rf_rereads").and_then(Json::as_u64), Some(0), "{j:?}");
    }

    #[test]
    fn display_skips_empty_categories() {
        let mut c = Counters::enabled();
        c.cpi.add(CpiCategory::Committing, 10);
        let s = c.to_string();
        assert!(s.contains("issued"), "{s}");
        assert!(!s.contains("squash restart"), "{s}");
    }

    #[test]
    fn serve_counters_latency_buckets_are_logarithmic() {
        let mut s = ServeCounters::default();
        s.record_latency_ms(0); // log2(1) = 0
        s.record_latency_ms(1); // log2(2) = 1
        s.record_latency_ms(1023); // log2(1024) = 10
        s.record_latency_ms(u64::MAX / 2); // clamps into the overflow bucket
        assert_eq!(s.job_latency_log2_ms.bucket(0), 1);
        assert_eq!(s.job_latency_log2_ms.bucket(1), 1);
        assert_eq!(s.job_latency_log2_ms.bucket(10), 1);
        assert_eq!(s.job_latency_log2_ms.bucket(HISTOGRAM_BUCKETS - 1), 1);
    }

    #[test]
    fn serve_counters_hit_rate_and_json() {
        let mut s = ServeCounters::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.jobs_done = 4;
        s.queue_depth.record(2);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let j = s.to_json().render();
        assert!(j.contains("\"serve_cache_hits\":3"), "{j}");
        assert!(j.contains("\"serve_cache_misses\":1"), "{j}");
        assert!(j.contains("\"jobs_done\":4"), "{j}");
        assert!(j.contains("\"queue_depth_mean\":2.0000"), "{j}");
        assert!(j.contains("\"jobs_rejected\":0"), "{j}");
        assert!(j.contains("\"journal_records_skipped\":0"), "{j}");
    }

    #[test]
    fn serve_counters_mean_latency_is_exact_not_bucketed() {
        let mut s = ServeCounters::default();
        assert_eq!(s.mean_latency_ms(), None, "no samples yet");
        s.record_latency_ms(100);
        s.record_latency_ms(300);
        assert_eq!(s.mean_latency_ms(), Some(200));
        assert!(s.to_json().render().contains("\"mean_latency_ms\":200"));
    }
}
