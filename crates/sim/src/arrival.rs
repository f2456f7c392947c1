//! The last-arrival unit (paper §3.2): [`LastArrival`] places an
//! inserting 2-source instruction's operands on the fast (or watched)
//! side, and records each completed wakeup pair — the slack of Figure 6,
//! the order stability of Table 3, the predictor bank of Figure 7 — while
//! training the scheme's own predictor.

use crate::config::{SimConfig, WakeupScheme};
use crate::dyninst::SrcState;
use crate::inject::Injector;
use crate::stats::SimStats;
use hpa_bpred::{LastArrivalBank, LastArrivalPredictor, LastArrivalStats, PcTable, Side};

/// Last-arrival prediction and statistics state (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct LastArrival {
    /// The scheme's predictor: sequential wakeup with a predictor and tag
    /// elimination place operands by it; `None` under the static policy.
    predictor: Option<LastArrivalPredictor>,
    /// The Figure 7 shadow bank, trained on every wakeup pair.
    bank: LastArrivalBank,
    /// Last observed last-arriving side per (direct-mapped) PC, for the
    /// Table 3 wakeup-order stability counters.
    history: PcTable<Option<Side>>,
    /// Sequential wakeup: simultaneous and slow-side arrivals pay the
    /// slow-bus cycle, so they are counted.
    slow_bus: bool,
}

impl LastArrival {
    pub(crate) fn new(config: &SimConfig) -> LastArrival {
        let predictor = match config.wakeup {
            WakeupScheme::SequentialWakeup { predictor_entries: Some(n) }
            | WakeupScheme::TagElimination { predictor_entries: n } => {
                Some(LastArrivalPredictor::new(n))
            }
            _ => None,
        };
        LastArrival {
            predictor,
            bank: LastArrivalBank::figure7(),
            history: PcTable::new(config.pc_table_entries, None),
            slow_bus: config.slow_bus(),
        }
    }

    /// The operand slot an inserting instruction at `pc` puts on the fast
    /// (or watched) side: a lone pending operand always takes it; with
    /// two pending operands the predictor, or else the static right-side
    /// rule, chooses (paper §3.3).
    pub(crate) fn fast_slot(
        &self,
        srcs: &[Option<SrcState>; 2],
        pc: u64,
        injector: &mut Injector,
    ) -> usize {
        let [Some(left), Some(right)] = srcs else { return 0 };
        match (left.ready_at_insert, right.ready_at_insert, &self.predictor) {
            (true, false, _) => 1,
            (false, true, _) => 0,
            // Injection: a bit-flip in the last-arrival predictor table.
            // A wrong prediction is a legal prediction — the machine pays
            // the slow-bus penalty, never produces a wrong value.
            (_, _, Some(predictor)) => {
                usize::from(injector.last_arrival(predictor.predict(pc)) == Side::Right)
            }
            // Static policy: the right operand is assumed last-arriving.
            (_, _, None) => 1,
        }
    }

    /// Records the wakeup pair of a 2-pending-source instruction at `pc`
    /// whose left and right operands broadcast at `left` and `right`,
    /// with `fast_slot` on the fast bus.
    pub(crate) fn record_pair(
        &mut self,
        stats: &mut SimStats,
        pc: u64,
        (left, right): (u64, u64),
        fast_slot: usize,
    ) {
        let slack = left.abs_diff(right);
        stats.wakeup_slack[(slack as usize).min(3)] += 1;
        if slack == 0 {
            self.bank.observe(pc, None);
            if self.slow_bus {
                // A simultaneous dual wakeup always pays the slow-bus cycle
                // (paper §3.3).
                stats.simultaneous_wakeups += 1;
            }
            return;
        }
        let last = if left > right { Side::Left } else { Side::Right };
        self.bank.observe(pc, Some(last));
        match last {
            Side::Left => stats.wakeup_order.last_left += 1,
            Side::Right => stats.wakeup_order.last_right += 1,
        }
        match self.history.get_mut(pc).replace(last) {
            Some(prev) if prev == last => stats.wakeup_order.same_as_last += 1,
            Some(_) => stats.wakeup_order.diff_from_last += 1,
            None => {}
        }
        if let Some(predictor) = self.predictor.as_mut() {
            predictor.update(pc, last);
        }
        if self.slow_bus && usize::from(last == Side::Right) != fast_slot {
            stats.seq_wakeup_slow_last += 1;
        }
    }

    /// The Figure 7 bank's accuracy, `(table size, stats)` per predictor.
    pub(crate) fn results(&self) -> Vec<(usize, LastArrivalStats)> {
        self.bank.results()
    }

    /// Restarts the Figure 7 accuracy counters at the warmup boundary;
    /// every table stays trained.
    pub(crate) fn reset_accuracy(&mut self) {
        self.bank.reset_accuracy();
    }
}
