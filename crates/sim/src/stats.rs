//! Simulation statistics, including every characterization the paper's
//! figures and tables report.

use hpa_bpred::LastArrivalStats;
use hpa_cache::HierarchyStats;
use hpa_obs::json::Json;

/// Dynamic-stream format statistics (paper Figures 2 and 3), gathered over
/// fetched instructions (identical to committed instructions in this
/// simulator, which does not fetch wrong paths).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FormatStats {
    /// Instructions whose format carries no source register.
    pub zero_src: u64,
    /// One-source-format instructions.
    pub one_src: u64,
    /// Two-source-format instructions (excluding stores).
    pub two_src: u64,
    /// Stores (reported separately, paper Figure 2).
    pub stores: u64,
    /// 2-source-format alignment nops eliminated at decode.
    pub nops: u64,
    /// Two-source-format instructions with one unique non-zero source.
    pub two_src_one_unique: u64,
    /// Two-source-format instructions with two unique non-zero sources —
    /// the paper's "2-source instructions".
    pub two_src_two_unique: u64,
}

impl FormatStats {
    /// Total dynamic instructions covered.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.zero_src + self.one_src + self.two_src + self.stores + self.nops
    }
}

/// Wakeup-order stability counters (paper Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WakeupOrderStats {
    /// Second wakeup arrived on the same side as the previous dynamic
    /// instance of this PC.
    pub same_as_last: u64,
    /// Opposite side from the previous instance.
    pub diff_from_last: u64,
    /// The left operand arrived last.
    pub last_left: u64,
    /// The right operand arrived last.
    pub last_right: u64,
}

/// All counters produced by one simulation.
///
/// `PartialEq` compares every counter bit-for-bit; the parallel/serial
/// determinism tests rely on it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed (excludes decode-eliminated nops).
    pub committed: u64,
    /// Instructions fetched (includes nops).
    pub fetched: u64,

    /// Figures 2–3.
    pub format: FormatStats,

    /// Figure 4: 2-source instructions by ready operands at insert
    /// (index = number ready).
    pub ready_at_insert: [u64; 3],

    /// Figure 6: wakeup slack of 2-pending-source instructions
    /// (indices 0, 1, 2 and 3+ cycles).
    pub wakeup_slack: [u64; 4],

    /// Table 3.
    pub wakeup_order: WakeupOrderStats,

    /// Figure 7: shadow last-arriving predictors by table size.
    pub last_arrival: Vec<(usize, LastArrivalStats)>,

    /// Figure 10: register-access categories of committed 2-source
    /// instructions.
    pub rf_two_ready: u64,
    /// Issued back-to-back with the final wakeup (≤1 register read).
    pub rf_back_to_back: u64,
    /// Missed the bypass window (two register reads).
    pub rf_non_back_to_back: u64,

    /// Scheme events.
    /// Sequential wakeup: issues delayed because the last arrival landed
    /// on the slow side (mispredictions).
    pub seq_wakeup_slow_last: u64,
    /// Sequential wakeup: simultaneous dual wakeups (always 1-cycle
    /// penalty).
    pub simultaneous_wakeups: u64,
    /// Tag elimination: scoreboard misfires (squash + replay events).
    pub te_misfires: u64,
    /// Sequential register access: issues that read the port twice.
    pub seq_rf_accesses: u64,
    /// Crossbar: select-time deferrals for lack of read ports.
    pub crossbar_deferrals: u64,
    /// Half-price renaming (§6 extension): dispatch-group splits because
    /// the halved map-table ports ran out.
    pub rename_port_stalls: u64,
    /// Half-price bypass (§6 extension): issues deferred because both
    /// operands would need the single bypass input in the same cycle.
    pub bypass_deferrals: u64,

    /// Load-latency mis-speculations (cache misses under speculative
    /// scheduling).
    pub load_miss_replays: u64,
    /// Instructions squashed and re-issued by all replay events.
    pub replayed_insts: u64,

    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub branch_mispredicts: u64,

    /// Memory-hierarchy counters.
    pub hierarchy: HierarchyStats,

    /// Issue-width histogram: `issue_histogram[k]` counts cycles that
    /// issued exactly `k` instructions (length = machine width + 1).
    pub issue_histogram: Vec<u64>,
    /// Sum of window (RUU) occupancy over all cycles; divide by `cycles`
    /// for the average.
    pub window_occupancy_sum: u64,
}

impl SimStats {
    /// Zeroes every counter in place, preserving the `issue_histogram`
    /// allocation — the warmup-boundary reset runs mid-simulation, inside
    /// the otherwise allocation-free cycle loop.
    pub fn reset_in_place(&mut self) {
        let mut histogram = std::mem::take(&mut self.issue_histogram);
        histogram.fill(0);
        *self = SimStats { issue_histogram: histogram, ..SimStats::default() };
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        ratio(self.committed, self.cycles)
    }

    /// Branch misprediction rate in `[0, 1]`.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        ratio(self.branch_mispredicts, self.branches)
    }

    /// Fraction of committed instructions that are 2-source instructions
    /// needing two register-file reads (paper: "less than 4%").
    #[must_use]
    pub fn two_port_fraction(&self) -> f64 {
        ratio(self.rf_two_ready + self.rf_non_back_to_back, self.committed)
    }

    /// Mean RUU occupancy per cycle.
    #[must_use]
    pub fn avg_window_occupancy(&self) -> f64 {
        ratio(self.window_occupancy_sum, self.cycles)
    }

    /// Fraction of cycles that issued nothing.
    #[must_use]
    pub fn idle_issue_fraction(&self) -> f64 {
        ratio(self.issue_histogram.first().copied().unwrap_or(0), self.cycles)
    }

    /// Fraction of 2-pending-source instructions whose operands woke in
    /// the same cycle (paper: "less than 3%").
    #[must_use]
    pub fn simultaneous_fraction(&self) -> f64 {
        ratio(self.wakeup_slack[0], self.wakeup_slack.iter().sum())
    }

    /// The headline counters as a JSON object (used by the serve-layer
    /// result payload and `hpa sim --json`). All-numeric, deterministic
    /// field order; integers stay integers so a `u64` survives a parse
    /// round-trip exactly.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycles", Json::from(self.cycles)),
            ("committed", Json::from(self.committed)),
            ("fetched", Json::from(self.fetched)),
            ("ipc", Json::from(self.ipc())),
            ("branches", Json::from(self.branches)),
            ("branch_mispredicts", Json::from(self.branch_mispredicts)),
            ("load_miss_replays", Json::from(self.load_miss_replays)),
            ("replayed_insts", Json::from(self.replayed_insts)),
            ("seq_wakeup_slow_last", Json::from(self.seq_wakeup_slow_last)),
            ("simultaneous_wakeups", Json::from(self.simultaneous_wakeups)),
            ("te_misfires", Json::from(self.te_misfires)),
            ("seq_rf_accesses", Json::from(self.seq_rf_accesses)),
            ("crossbar_deferrals", Json::from(self.crossbar_deferrals)),
            ("window_occupancy_sum", Json::from(self.window_occupancy_sum)),
            (
                "issue_histogram",
                Json::Arr(self.issue_histogram.iter().map(|&n| Json::from(n)).collect()),
            ),
        ])
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut s = SimStats { cycles: 100, committed: 150, ..SimStats::default() };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.branches = 10;
        s.branch_mispredicts = 1;
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        s.rf_two_ready = 3;
        s.rf_non_back_to_back = 3;
        assert!((s.two_port_fraction() - 0.04).abs() < 1e-12);
        s.wakeup_slack = [1, 2, 3, 4];
        assert!((s.simultaneous_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.two_port_fraction(), 0.0);
        assert_eq!(s.simultaneous_fraction(), 0.0);
        assert_eq!(s.avg_window_occupancy(), 0.0);
        assert_eq!(s.idle_issue_fraction(), 0.0);
        assert_eq!(s.format.total(), 0);
    }

    #[test]
    fn reset_in_place_keeps_the_histogram_allocation() {
        let mut s = SimStats {
            cycles: 10,
            committed: 20,
            window_occupancy_sum: 320,
            issue_histogram: vec![4, 2, 2, 1, 1],
            wakeup_slack: [1, 2, 3, 4],
            ..SimStats::default()
        };
        let ptr = s.issue_histogram.as_ptr();
        s.reset_in_place();
        assert_eq!(s.issue_histogram.as_ptr(), ptr, "no reallocation");
        assert_eq!(s.issue_histogram, vec![0; 5], "zeroed, same length");
        assert_eq!(s, SimStats { issue_histogram: vec![0; 5], ..SimStats::default() });
    }

    #[test]
    fn to_json_is_valid_and_exact() {
        let s = SimStats {
            cycles: 3,
            committed: 6,
            fetched: 7,
            branches: 2,
            branch_mispredicts: 1,
            window_occupancy_sum: u64::MAX,
            issue_histogram: vec![1, 0, 2],
            ..SimStats::default()
        };
        let v = hpa_obs::json::parse(&s.to_json().render()).expect("valid JSON");
        assert_eq!(v.get("cycles").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("ipc").and_then(|x| x.as_f64()), Some(2.0));
        // u64 values above 2^53 survive exactly (numbers keep source text).
        assert_eq!(v.get("window_occupancy_sum").and_then(|x| x.as_u64()), Some(u64::MAX));
        let hist = v.get("issue_histogram").and_then(|x| x.as_arr()).expect("array");
        assert_eq!(hist.iter().map(|x| x.as_u64().unwrap()).collect::<Vec<_>>(), vec![1, 0, 2]);
    }

    #[test]
    fn occupancy_and_issue_histogram() {
        let s = SimStats {
            cycles: 10,
            window_occupancy_sum: 320,
            issue_histogram: vec![4, 2, 2, 1, 1],
            ..SimStats::default()
        };
        assert!((s.avg_window_occupancy() - 32.0).abs() < 1e-12);
        assert!((s.idle_issue_fraction() - 0.4).abs() < 1e-12);
    }
}
