//! The last-arriving operand predictor (paper §3.2, Figure 7).

use crate::pc_table::PcTable;

/// Which of a 2-source instruction's operands is meant: the left (`ra`) or
/// right (`rb`) source in format order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The left operand (`ra`/`fa`).
    Left,
    /// The right operand (`rb`/`fb`).
    Right,
}

impl Side {
    /// The opposite side.
    #[must_use]
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A PC-indexed, direct-mapped bimodal predictor of which operand arrives
/// last, built from 2-bit saturating counters exactly like a bimodal branch
/// predictor (the design the paper selects in §3.2 after comparing it with
/// more sophisticated alternatives).
///
/// Counter values 0–1 predict [`Side::Left`], 2–3 predict [`Side::Right`];
/// the counter initializes to 2 so an untrained entry predicts `Right`,
/// matching the paper's static fallback configuration.
#[derive(Clone, Debug)]
pub struct LastArrivalPredictor {
    table: PcTable<u8>,
}

impl LastArrivalPredictor {
    /// Builds a predictor with `entries` counters (power of two; the paper
    /// sweeps 128–4096 and evaluates with 1024).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> LastArrivalPredictor {
        LastArrivalPredictor { table: PcTable::new(entries, 2) }
    }

    /// Number of table entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.entries()
    }

    /// Predicts which operand of the instruction at `pc` wakes up last.
    #[must_use]
    pub fn predict(&self, pc: u64) -> Side {
        if *self.table.get(pc) >= 2 {
            Side::Right
        } else {
            Side::Left
        }
    }

    /// Trains on the observed last-arriving side. Simultaneous wakeups do
    /// not call this (there is no meaningful "last" to train toward).
    pub fn update(&mut self, pc: u64, actual: Side) {
        let c = self.table.get_mut(pc);
        match actual {
            Side::Right => *c = (*c + 1).min(3),
            Side::Left => *c = c.saturating_sub(1),
        }
    }
}

/// Accuracy counters for one predictor in a [`LastArrivalBank`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LastArrivalStats {
    /// Predictions where the predicted side actually arrived last.
    pub correct: u64,
    /// Predictions where the other side arrived last.
    pub incorrect: u64,
    /// Cases where both operands woke in the same cycle (reported
    /// separately in Figure 7 — whether they count as hits depends on the
    /// consuming wakeup scheme).
    pub simultaneous: u64,
}

impl LastArrivalStats {
    /// Total observed 2-pending-source wakeup pairs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.correct + self.incorrect + self.simultaneous
    }

    /// Accuracy over non-simultaneous cases, in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let decided = self.correct + self.incorrect;
        if decided == 0 {
            0.0
        } else {
            self.correct as f64 / decided as f64
        }
    }
}

/// A bank of last-arrival predictors of different sizes trained on the same
/// stream, regenerating the paper's Figure 7 table-size sweep from a single
/// simulation run.
#[derive(Clone, Debug)]
pub struct LastArrivalBank {
    predictors: Vec<(LastArrivalPredictor, LastArrivalStats)>,
}

impl LastArrivalBank {
    /// Builds a bank with one predictor per table size.
    #[must_use]
    pub fn new(sizes: &[usize]) -> LastArrivalBank {
        LastArrivalBank {
            predictors: sizes
                .iter()
                .map(|&s| (LastArrivalPredictor::new(s), LastArrivalStats::default()))
                .collect(),
        }
    }

    /// The paper's Figure 7 sweep: 128, 512, 1024 and 4096 entries.
    #[must_use]
    pub fn figure7() -> LastArrivalBank {
        LastArrivalBank::new(&[128, 512, 1024, 4096])
    }

    /// Observes one completed 2-pending-source wakeup pair: the side that
    /// actually arrived last, or `None` for a simultaneous wakeup. Scores
    /// every predictor's prediction, then trains it.
    pub fn observe(&mut self, pc: u64, actual_last: Option<Side>) {
        for (p, stats) in &mut self.predictors {
            match actual_last {
                None => stats.simultaneous += 1,
                Some(actual) => {
                    if p.predict(pc) == actual {
                        stats.correct += 1;
                    } else {
                        stats.incorrect += 1;
                    }
                    p.update(pc, actual);
                }
            }
        }
    }

    /// Zeroes every predictor's accuracy counters and keeps its table
    /// trained (a warmup boundary: measurement restarts, learning does
    /// not).
    pub fn reset_accuracy(&mut self) {
        for (_, stats) in &mut self.predictors {
            *stats = LastArrivalStats::default();
        }
    }

    /// `(table size, stats)` for each predictor in the bank.
    #[must_use]
    pub fn results(&self) -> Vec<(usize, LastArrivalStats)> {
        self.predictors.iter().map(|(p, s)| (p.entries(), *s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_and_predict() {
        let mut p = LastArrivalPredictor::new(8);
        assert_eq!(p.predict(0), Side::Right, "initial bias is Right");
        p.update(0, Side::Left);
        assert_eq!(p.predict(0), Side::Left);
        p.update(0, Side::Left);
        p.update(0, Side::Left); // saturates at 0
        p.update(0, Side::Right);
        assert_eq!(p.predict(0), Side::Left, "hysteresis survives one flip");
        p.update(0, Side::Right);
        assert_eq!(p.predict(0), Side::Right);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = LastArrivalPredictor::new(8);
        p.update(0x00, Side::Left);
        p.update(0x00, Side::Left);
        assert_eq!(p.predict(0x00), Side::Left);
        assert_eq!(p.predict(0x04), Side::Right, "neighbor entry untouched");
    }

    #[test]
    fn aliasing_in_small_tables() {
        let mut p = LastArrivalPredictor::new(2);
        // PCs 0x00 and 0x08 collide in a 2-entry table ((pc>>2) & 1).
        p.update(0x00, Side::Left);
        p.update(0x00, Side::Left);
        assert_eq!(p.predict(0x08), Side::Left, "aliased entry shares state");
    }

    #[test]
    fn bank_scores_before_training() {
        let mut bank = LastArrivalBank::new(&[128, 4096]);
        // First observation at a fresh PC: initial prediction is Right, so
        // observing Left scores a miss everywhere.
        bank.observe(0x40, Some(Side::Left));
        bank.observe(0x40, Some(Side::Left));
        bank.observe(0x40, None);
        for (size, stats) in bank.results() {
            assert_eq!(stats.incorrect, 1, "size {size}");
            assert_eq!(stats.correct, 1, "size {size}: trained after first miss");
            assert_eq!(stats.simultaneous, 1);
            assert_eq!(stats.total(), 3);
            assert_eq!(stats.accuracy(), 0.5);
        }
    }

    #[test]
    fn reset_accuracy_zeroes_the_counters_and_keeps_the_tables() {
        let mut bank = LastArrivalBank::new(&[128]);
        bank.observe(0x40, Some(Side::Left));
        bank.observe(0x40, Some(Side::Left));
        bank.reset_accuracy();
        assert_eq!(bank.results(), [(128, LastArrivalStats::default())]);
        // Trained on Left before the reset, so the next Left is a hit.
        bank.observe(0x40, Some(Side::Left));
        assert_eq!(bank.results()[0].1.correct, 1);
        assert_eq!(bank.results()[0].1.incorrect, 0);
    }

    #[test]
    fn side_other() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
    }
}
