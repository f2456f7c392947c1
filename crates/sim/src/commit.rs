//! Retire: the commit hook, the pipeline trace, the commit count and the
//! warmup boundary. [`Retire`] sees each committing instruction in place
//! at the window head, builds the [`CommitRecord`] and [`TraceRecord`]
//! straight from it, and at the warmup boundary restarts every
//! measurement in one place.
//!
//! The commit hook serves lockstep co-simulation oracles. The simulator is execution-driven — architectural state always comes
//! from the functional emulator stepped at fetch — so a timing bug cannot
//! silently corrupt register or memory *values*. What a timing bug *can*
//! do is corrupt the retire stream itself: drop, duplicate or reorder a
//! commit, retire past a halt, or deadlock. A [`CommitHook`] observes
//! every committed instruction in program order and can veto the run by
//! returning an error, which surfaces as
//! [`SimFault::Hook`](crate::SimFault::Hook) with a pipeline-state dump.

use crate::arrival::LastArrival;
use crate::config::SimConfig;
use crate::cpi::Cpi;
use crate::dyninst::{DynInst, RfCategory};
use crate::pipeline::Simulator;
use crate::stats::SimStats;
use crate::trace::{PipeTrace, TraceRecord};
use hpa_isa::{ArchReg, Inst};

/// Everything the simulator knows about one committed instruction, in
/// retirement (program) order.
///
/// The value fields (`dest_value`, `mem_data`) are captured from the
/// functional emulator when the instruction executed, so a hook can check
/// them against an independent shadow emulator without re-deriving them
/// from pipeline state.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CommitRecord {
    /// Global sequence number (program order, nops excluded).
    pub seq: u64,
    /// Cycle the instruction committed.
    pub cycle: u64,
    /// Fetch address.
    pub pc: u64,
    /// The committed instruction.
    pub inst: Inst,
    /// Architectural next PC.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken.
    pub taken: bool,
    /// For loads/stores: the effective byte address.
    pub mem_addr: Option<u64>,
    /// Destination register, if the instruction writes one.
    pub dest: Option<ArchReg>,
    /// Value written to `dest` (f64 results as raw bits).
    pub dest_value: Option<u64>,
    /// For stores: the memory image of the stored bytes (zero-extended to
    /// 64 bits for sub-quad widths).
    pub mem_data: Option<u64>,
}

/// An observer of the retire stream.
///
/// Attached with [`Simulator::set_commit_hook`](crate::Simulator::set_commit_hook)
/// and invoked once per committed instruction, in program order. Returning
/// `Err` stops the simulation at that commit and surfaces the reason as a
/// [`SimFault::Hook`](crate::SimFault::Hook) from
/// [`Simulator::try_run`](crate::Simulator::try_run).
pub trait CommitHook: std::fmt::Debug {
    /// Observes one committed instruction.
    ///
    /// # Errors
    ///
    /// A description of the divergence, if the hook rejects the commit.
    fn on_commit(&mut self, rec: &CommitRecord) -> Result<(), String>;

    /// Clones the hook behind the trait object (`Simulator` is `Clone`).
    fn box_clone(&self) -> Box<dyn CommitHook>;
}

impl Clone for Box<dyn CommitHook> {
    fn clone(&self) -> Box<dyn CommitHook> {
        self.box_clone()
    }
}

impl Simulator {
    /// Attaches a retire-stream observer, called once per committed
    /// instruction in program order. A hook error stops the run with
    /// [`SimFault::Hook`](crate::SimFault::Hook).
    pub fn set_commit_hook(&mut self, hook: Box<dyn CommitHook>) {
        self.retire.hook = Some(hook);
    }

    /// Starts recording a pipeline diagram of the first `capacity`
    /// committed instructions (see [`PipeTrace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.retire.trace = Some(PipeTrace::new(capacity));
    }

    /// The recorded pipeline trace, if [`Simulator::enable_trace`] was
    /// called.
    #[must_use]
    pub fn pipetrace(&self) -> Option<&PipeTrace> {
        self.retire.trace.as_ref()
    }
}

/// The retire stage's state (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Retire {
    /// Retire-stream observer (lockstep oracle); `None` in normal runs.
    hook: Option<Box<dyn CommitHook>>,
    trace: Option<PipeTrace>,
    /// Total commits, warmup included.
    committed: u64,
    /// Commits after which measurement restarts.
    warmup_insts: u64,
    /// Cycle at which measurement last restarted (the warmup boundary).
    measured_from: u64,
}

impl Retire {
    pub(crate) fn new(config: &SimConfig) -> Retire {
        Retire { warmup_insts: config.warmup_insts, ..Retire::default() }
    }

    /// The cycle measurement started from.
    pub(crate) fn measured_from(&self) -> u64 {
        self.measured_from
    }

    /// Retires the window head `i` at `cycle`, counting it in `stats`, and
    /// returns the total commit count. The hook sees `i` first and may
    /// reject it (the reason is returned and nothing is counted). The commit that ends warmup
    /// restarts `stats`, `cpi` and the `arrival` accuracy counters in
    /// place; warm state (caches, predictors, the window) carries over.
    /// The current cycle's CPI attribution runs after this reset, so the
    /// registry covers exactly the cycles `stats` counts.
    pub(crate) fn commit(
        &mut self,
        i: &DynInst,
        cycle: u64,
        stats: &mut SimStats,
        cpi: &mut Cpi,
        arrival: &mut LastArrival,
    ) -> Result<u64, String> {
        if let Some(hook) = self.hook.as_mut() {
            hook.on_commit(&CommitRecord {
                seq: i.seq,
                cycle,
                pc: i.pc,
                inst: i.inst,
                next_pc: i.next_pc,
                taken: i.taken,
                mem_addr: i.mem_addr,
                dest: i.dest,
                dest_value: i.dest_value,
                mem_data: i.mem_data,
            })?;
        }
        stats.committed += 1;
        self.committed += 1;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord {
                seq: i.seq,
                pc: i.pc,
                inst: i.inst,
                insert_cycle: i.insert_cycle,
                wakeup_cycle: i.wakeup_cycle,
                issue_cycle: i.issue_cycle,
                complete_cycle: i.complete_cycle,
                commit_cycle: cycle,
                replays: i.replays,
                seq_rf: i.seq_rf,
            });
        }
        if self.committed == self.warmup_insts {
            stats.reset_in_place();
            cpi.reset();
            arrival.reset_accuracy();
            self.measured_from = cycle;
        }
        // Figure 10 counts committed 2-source instructions by category.
        if i.is_two_source() {
            match i.rf_category {
                Some(RfCategory::TwoReady) => stats.rf_two_ready += 1,
                Some(RfCategory::BackToBack) => stats.rf_back_to_back += 1,
                Some(RfCategory::NonBackToBack) => stats.rf_non_back_to_back += 1,
                None => {}
            }
        }
        Ok(self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::replay_program;
    use crate::{SimConfig, SimFault, Simulator};
    use hpa_isa::Reg;

    /// Records the retire stream, asserting program order.
    #[derive(Clone, Debug, Default)]
    struct Recorder {
        seqs: Vec<u64>,
        cycles: Vec<u64>,
    }

    impl CommitHook for Recorder {
        fn on_commit(&mut self, rec: &CommitRecord) -> Result<(), String> {
            if let Some(&last) = self.seqs.last() {
                if rec.seq != last + 1 {
                    return Err(format!("out-of-order commit: {} after {last}", rec.seq));
                }
            }
            self.seqs.push(rec.seq);
            self.cycles.push(rec.cycle);
            Ok(())
        }
        fn box_clone(&self) -> Box<dyn CommitHook> {
            Box::new(self.clone())
        }
    }

    /// Rejects the nth commit, to exercise the Hook fault path.
    #[derive(Clone, Debug)]
    struct RejectNth {
        n: u64,
        seen: u64,
    }

    impl CommitHook for RejectNth {
        fn on_commit(&mut self, _rec: &CommitRecord) -> Result<(), String> {
            self.seen += 1;
            if self.seen == self.n {
                return Err("synthetic divergence".into());
            }
            Ok(())
        }
        fn box_clone(&self) -> Box<dyn CommitHook> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn commit_hook_observes_the_full_retire_stream_unchanged() {
        let p = replay_program(30);
        // Reference run without a hook.
        let mut plain = Simulator::new(&p, SimConfig::four_wide());
        plain.run();
        // Hooked run: same timing, every commit observed, in order.
        let mut sim = Simulator::new(&p, SimConfig::four_wide());
        sim.set_commit_hook(Box::new(Recorder::default()));
        sim.try_run().expect("no fault");
        assert_eq!(sim.stats().committed, plain.stats().committed);
        assert_eq!(sim.stats().cycles, plain.stats().cycles, "hook must not change timing");
    }

    #[test]
    fn hook_rejection_is_a_localized_fault() {
        let p = replay_program(30);
        let mut sim = Simulator::new(&p, SimConfig::four_wide());
        sim.set_commit_hook(Box::new(RejectNth { n: 5, seen: 0 }));
        let fault = sim.try_run().expect_err("hook rejects commit 5");
        match fault {
            SimFault::Hook { seq, reason, ref dump, .. } => {
                assert_eq!(seq, 4, "5th commit is seq 4");
                assert!(reason.contains("synthetic divergence"));
                assert!(dump.contains("cycle"), "dump present: {dump}");
            }
            other => panic!("wrong fault: {other}"),
        }
        assert!(sim.fault().is_some());
    }

    #[test]
    fn pipetrace_records_commit_order() {
        let p = replay_program(10);
        let mut sim = Simulator::new(&p, SimConfig::four_wide());
        sim.enable_trace(8);
        sim.run();
        let t = sim.pipetrace().expect("enabled");
        assert_eq!(t.records().len(), 8);
        for (k, r) in t.records().iter().enumerate() {
            assert_eq!(r.seq, k as u64, "commit order");
            assert!(r.insert_cycle <= r.issue_cycle);
            assert!(r.issue_cycle <= r.complete_cycle);
            assert!(r.complete_cycle <= r.commit_cycle);
        }
        let diagram = t.render();
        assert!(diagram.lines().count() >= 9, "{diagram}");
    }

    /// The warmup boundary restarts every measurement together: each
    /// Figure 7 bank entry then counts exactly the wakeup pairs the
    /// measured window's slack histogram counts.
    #[test]
    fn warmup_restarts_the_last_arrival_accuracy_with_the_stats() {
        // Two independent loads feed each add: a 2-pending-source pair
        // per iteration, before and after the boundary.
        let mut a = hpa_asm::Asm::new();
        a.li(Reg::R1, 0x1_0000);
        a.li(Reg::R9, 200);
        a.label("loop");
        a.ldq(Reg::R2, Reg::R1, 0);
        a.ldq(Reg::R3, Reg::R1, 8);
        a.add(Reg::R4, Reg::R2, Reg::R3);
        a.sub(Reg::R9, Reg::R9, 1);
        a.bgt(Reg::R9, "loop");
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = Simulator::new(&p, SimConfig::four_wide().with_warmup(500));
        let stats = sim.run();
        let pairs: u64 = stats.wakeup_slack.iter().sum();
        assert!(pairs > 0, "the measured window holds wakeup pairs");
        assert_eq!(stats.last_arrival.len(), 4);
        for (entries, la) in &stats.last_arrival {
            assert_eq!(la.total(), pairs, "{entries}-entry predictor");
        }
    }
}
