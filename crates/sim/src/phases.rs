//! Per-phase wall-time accounting for the cycle loop.
//!
//! The simulator's six phases (plus observability and end-of-cycle
//! bookkeeping) can each be timed with host stopwatches so a throughput
//! regression is attributable to a phase from the benchmark JSON alone,
//! instead of guessed at from the aggregate number. Timing is off by
//! default — the stopwatch reads would otherwise perturb the measurement
//! they exist to explain — and is enabled per run by
//! [`Simulator::enable_phase_timing`](crate::Simulator::enable_phase_timing).

/// Wall-clock nanoseconds accumulated per pipeline phase over a timed run.
///
/// `fetch`/`insert` are the front end (emulator stepping, branch
/// prediction, rename), `wakeup`/`select` the scheduler, `events` the
/// execute/writeback event wheel (cache access, replay, completion),
/// `commit` retirement, `obs` the CPI-stack attribution (zero unless
/// counters are on), and `other` the end-of-cycle bookkeeping (injection
/// arming and strict-invariant sweeps; zero in normal runs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimes {
    /// Tag-broadcast delivery (the wakeup matrix walk).
    pub wakeup_ns: u64,
    /// Ready-candidate scan, arbitration and issue.
    pub select_ns: u64,
    /// Execute/writeback events: TE verification, cache access, replay,
    /// completion.
    pub events_ns: u64,
    /// In-order retirement (and commit hooks, when attached).
    pub commit_ns: u64,
    /// Front-end fetch: emulator stepping, branch prediction, IL1.
    pub fetch_ns: u64,
    /// Rename and window insertion.
    pub insert_ns: u64,
    /// End-of-cycle CPI attribution (only when counters are enabled).
    pub obs_ns: u64,
    /// Everything else: cycle bookkeeping, injection arming, invariant
    /// sweeps.
    pub other_ns: u64,
    /// Cycles covered by the accumulators.
    pub cycles: u64,
}

impl PhaseTimes {
    /// Phase labels and accumulated nanoseconds, in pipeline order —
    /// the iteration order used by reports and the benchmark JSON.
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 8] {
        [
            ("wakeup", self.wakeup_ns),
            ("select", self.select_ns),
            ("events", self.events_ns),
            ("commit", self.commit_ns),
            ("fetch", self.fetch_ns),
            ("insert", self.insert_ns),
            ("obs", self.obs_ns),
            ("other", self.other_ns),
        ]
    }

    /// Merges another accumulator into this one (for summing timed runs
    /// across workloads or schemes).
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.wakeup_ns += other.wakeup_ns;
        self.select_ns += other.select_ns;
        self.events_ns += other.events_ns;
        self.commit_ns += other.commit_ns;
        self.fetch_ns += other.fetch_ns;
        self.insert_ns += other.insert_ns;
        self.obs_ns += other.obs_ns;
        self.other_ns += other.other_ns;
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_cover_every_accumulator() {
        let t = PhaseTimes {
            wakeup_ns: 1,
            select_ns: 2,
            events_ns: 3,
            commit_ns: 4,
            fetch_ns: 5,
            insert_ns: 6,
            obs_ns: 7,
            other_ns: 8,
            cycles: 9,
        };
        let entries = t.entries();
        assert_eq!(entries.len(), 8);
        assert_eq!(entries.iter().map(|(_, ns)| ns).sum::<u64>(), 36);
    }

    #[test]
    fn accumulate_sums_fieldwise() {
        let mut a = PhaseTimes { wakeup_ns: 1, cycles: 10, ..PhaseTimes::default() };
        let b = PhaseTimes { wakeup_ns: 2, select_ns: 5, cycles: 20, ..PhaseTimes::default() };
        a.accumulate(&b);
        assert_eq!(a.wakeup_ns, 3);
        assert_eq!(a.select_ns, 5);
        assert_eq!(a.cycles, 30);
    }
}
