//! CPI attribution: every issue slot of every cycle charged to exactly one
//! [`CpiCategory`], plus the penalty counters of the observability
//! registry ([`Counters`]). The phases report facts as they happen, one
//! call per fact, and [`Cpi::end_cycle`] charges the cycle's slots once
//! every phase has run. While the registry is disabled (the default) each
//! call is one predictable branch.

use crate::config::SimConfig;
use crate::dyninst::IState;
use crate::pipeline::Simulator;
use crate::window::Window;
use hpa_obs::{Counters, CpiCategory};

impl Simulator {
    /// Turns on the observability registry: CPI-stack attribution of
    /// every issue slot plus the penalty counters and histograms (see
    /// [`Counters`]). Off by default; recording reads pipeline state but
    /// writes only into the registry, so timing and
    /// [`SimStats`](crate::SimStats) are bit-identical either way (the
    /// differential suite enforces this).
    pub fn enable_counters(&mut self) {
        self.cpi.counters = Counters::enabled();
    }

    /// The observability registry (all zeros unless
    /// [`Simulator::enable_counters`] was called).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.cpi.counters
    }
}

/// How select spent the issue slots of one cycle.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SelectTally {
    /// Instructions issued.
    pub(crate) issued: u32,
    /// Issue slots disabled by a previous sequential RF access.
    pub(crate) rf_blocked: u32,
    /// Candidates deferred by crossbar port arbitration or the
    /// single-bypass-input constraint.
    pub(crate) port_deferrals: u32,
    /// Candidates that lost functional-unit arbitration.
    pub(crate) fu_deferrals: u32,
}

/// The observability registry and the per-cycle facts its attribution
/// needs (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Cpi {
    counters: Counters,
    width: u32,
    /// Sequential wakeup: the slow-bus occupancy histogram is sampled.
    slow_bus: bool,
    /// This cycle's select tally, stashed for end-of-cycle attribution
    /// (select's working values are gone by then).
    select: SelectTally,
    /// Where the leftover (unfilled) slots go: `Squash` on a restart
    /// cycle, else select's classification, computed only when slots were
    /// left over.
    stall: Option<CpiCategory>,
    /// Slow-bus wakeup deliveries this cycle.
    slow_wakeups: u32,
}

impl Cpi {
    pub(crate) fn new(config: &SimConfig) -> Cpi {
        Cpi { width: config.width, slow_bus: config.slow_bus(), ..Cpi::default() }
    }

    /// Wakeup delivered `n` operands over the slow bus.
    #[inline]
    pub(crate) fn slow_wakeups(&mut self, n: u32) {
        if self.counters.is_enabled() {
            self.slow_wakeups += n;
        }
    }

    /// Select issued an instruction `delay` cycles after its last operand
    /// woke; `seq_rf` when it reads its single port twice.
    #[inline]
    pub(crate) fn issued(&mut self, delay: u64, seq_rf: bool) {
        if self.counters.is_enabled() {
            self.counters.rf_rereads += u64::from(seq_rf);
            self.counters.wakeup_to_select.record(delay);
        }
    }

    /// A post-squash restart suppressed select this cycle: every slot is
    /// squash overhead.
    #[inline]
    pub(crate) fn select_restart(&mut self) {
        self.select = SelectTally::default();
        self.stall = Some(CpiCategory::Squash);
    }

    /// Select finished with `tally`. Classifies the leftover slots now,
    /// while `window` still shows the select-time view (events, commit
    /// and insert will change it).
    #[inline]
    pub(crate) fn select(&mut self, tally: SelectTally, window: &Window, cycle: u64, spec: u64) {
        if !self.counters.is_enabled() {
            return;
        }
        let used = tally.issued + tally.rf_blocked + tally.port_deferrals + tally.fu_deferrals;
        self.stall = (used < self.width).then(|| classify_stall(window, cycle, spec));
        self.select = tally;
    }

    /// End-of-cycle attribution: every one of the machine's `width` issue
    /// slots is charged to exactly one [`CpiCategory`] via a strict
    /// priority cascade — issued, RF re-read blocks, port conflicts, FU
    /// contention, and finally the select-time stall classification (a
    /// squash restart charges every slot there). The property suite holds
    /// the books to `cpi.total() == cycles × width`. Runs after every
    /// phase, so the warmup-boundary reset inside commit still sees this
    /// cycle attributed exactly once.
    #[inline]
    pub(crate) fn end_cycle(&mut self) {
        if !self.counters.is_enabled() {
            return;
        }
        if self.slow_bus {
            self.counters.slow_bus_occupancy.record(u64::from(self.slow_wakeups));
        }
        self.slow_wakeups = 0;
        let width = u64::from(self.width);
        let cpi = &mut self.counters.cpi;
        let tally = self.select;
        cpi.add(CpiCategory::Committing, u64::from(tally.issued));
        let mut remaining = width.saturating_sub(u64::from(tally.issued));
        let rf = u64::from(tally.rf_blocked).min(remaining);
        cpi.add(CpiCategory::RfRereadStall, rf);
        remaining -= rf;
        let ports = u64::from(tally.port_deferrals).min(remaining);
        cpi.add(CpiCategory::PortConflict, ports);
        remaining -= ports;
        let fu = u64::from(tally.fu_deferrals).min(remaining);
        cpi.add(CpiCategory::FuContention, fu);
        remaining -= fu;
        if remaining > 0 {
            cpi.add(self.stall.unwrap_or(CpiCategory::SchedulerEmpty), remaining);
        }
    }

    /// Restarts the registry at the warmup boundary.
    pub(crate) fn reset(&mut self) {
        if self.counters.is_enabled() {
            self.counters.reset_in_place();
        }
    }
}

/// Why no instruction could fill the remaining issue slots at `cycle`:
/// the tail of the attribution cascade. `spec` is the speculative load
/// latency. Read-only.
fn classify_stall(window: &Window, cycle: u64, spec: u64) -> CpiCategory {
    if window.is_empty() {
        return CpiCategory::FetchStarved;
    }
    let mut mem_wait = false;
    for i in window.iter() {
        match window.state_of(i.seq) {
            // All operands woke but one is still riding the slow bus: the
            // sequential-wakeup +1 in one of its two flavours (paper
            // §3.3). The oldest such instruction decides the cycle.
            Some(IState::Waiting)
                if i.srcs_iter().all(|s| s.ready)
                    && i.srcs_iter().any(|s| s.effective_cycle > cycle) =>
            {
                let simultaneous = matches!(i.srcs, [Some(l), Some(r)]
                    if l.broadcast_cycle == r.broadcast_cycle);
                return if simultaneous {
                    CpiCategory::SeqWakeupDelay
                } else {
                    CpiCategory::LaMispredictDelay
                };
            }
            // An in-flight load past its speculative latency with no
            // broadcast (DL1 miss shadow), or parked on an older store:
            // the window is waiting on memory.
            Some(IState::Issued) => {
                mem_wait |= i.is_load()
                    && (i.load_stalled || (!i.broadcast_done && cycle > i.issue_cycle + spec));
            }
            _ => {}
        }
    }
    if mem_wait {
        CpiCategory::DcacheMissWait
    } else {
        CpiCategory::SchedulerEmpty
    }
}
