//! In-flight instruction state.

use hpa_emu::StepRecord;
use hpa_isa::{ArchReg, FuClass, Inst};

/// Lifecycle of an in-flight instruction inside the window, recorded
/// only in the window's per-slot column (`Window::state`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum IState {
    /// In the window, not (or no longer) issued.
    Waiting,
    /// Selected; executing or waiting for its result.
    Issued,
    /// Result produced; waiting to commit.
    Completed,
}

/// One renamed source operand.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SrcState {
    /// The architectural name.
    pub(crate) reg: ArchReg,
    /// Sequence number of the in-flight producer; `None` if the value was
    /// already architecturally available at insert.
    pub(crate) producer: Option<u64>,
    /// Whether the producing tag has been seen (conventional wakeup
    /// timing). Cleared when the producer is squashed.
    pub(crate) ready: bool,
    /// Cycle at which this operand *effectively* woke up, including the
    /// +1 slow-bus delay under sequential wakeup. Operands ready at insert
    /// use the insert cycle. Only meaningful while `ready`.
    pub(crate) effective_cycle: u64,
    /// Cycle of the raw tag broadcast (no slow-bus adjustment), used by
    /// the wakeup-slack and last-arriving statistics.
    pub(crate) broadcast_cycle: u64,
    /// Whether the operand was ready when the instruction entered the
    /// window (no wakeup needed).
    pub(crate) ready_at_insert: bool,
}

impl SrcState {
    /// The scheduler sources of `inst` (slot 0 = left, slot 1 = right),
    /// before rename: no producer, ready at insert.
    pub(crate) fn unrenamed(inst: Inst) -> [Option<SrcState>; 2] {
        let sources = inst.scheduler_sources();
        [0, 1].map(|slot| {
            sources.get(slot).map(|reg| SrcState {
                reg,
                producer: None,
                ready: true,
                effective_cycle: 0,
                broadcast_cycle: 0,
                ready_at_insert: true,
            })
        })
    }
}

/// Register-read categorization of one committed 2-source instruction
/// (paper Figure 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RfCategory {
    /// Both operands were ready at insert: two register reads.
    TwoReady,
    /// Issued back-to-back with the last wakeup: at least one operand off
    /// the bypass, at most one register read.
    BackToBack,
    /// Woken earlier but issued later: bypass window missed, two reads.
    NonBackToBack,
}

/// One instruction in flight.
#[derive(Clone, Debug)]
pub(crate) struct DynInst {
    /// Global sequence number (program order).
    pub(crate) seq: u64,
    /// Fetch address.
    pub(crate) pc: u64,
    /// The decoded instruction.
    pub(crate) inst: Inst,
    /// Effective address for loads/stores.
    pub(crate) mem_addr: Option<u64>,
    /// Functional-unit class.
    pub(crate) fu: FuClass,
    /// Base execution latency (loads: address generation only).
    pub(crate) base_latency: u32,
    /// Whether the FU is pipelined for this op.
    pub(crate) fu_pipelined: bool,

    /// Renamed scheduler sources (slot 0 = left, slot 1 = right).
    pub(crate) srcs: [Option<SrcState>; 2],
    /// Which slot sits on the fast wakeup bus (sequential wakeup) or is
    /// watched (tag elimination).
    pub(crate) fast_slot: usize,
    /// Destination register, if any.
    pub(crate) dest: Option<ArchReg>,
    /// Producer of a store's data operand.
    pub(crate) store_data_producer: Option<u64>,

    /// Bumped whenever the instruction is squashed; stale scheduled events
    /// compare epochs and drop themselves.
    pub(crate) epoch: u32,
    /// Cycle the instruction entered the window.
    pub(crate) insert_cycle: u64,
    /// Most recent issue cycle (meaningful once issued at least once).
    pub(crate) issue_cycle: u64,
    /// Effective cycle of the last operand wakeup at the most recent
    /// (successful) issue, clamped into `[insert_cycle, issue_cycle]`;
    /// feeds the trace export and the issue-to-wakeup delay histogram.
    pub(crate) wakeup_cycle: u64,
    /// Cycle the result is produced (execution completes).
    pub(crate) complete_cycle: u64,
    /// Whether the destination tag has been broadcast (and not
    /// invalidated since).
    pub(crate) broadcast_done: bool,
    /// Number of times this instruction was squashed and replayed.
    pub(crate) replays: u32,

    /// Branch state: direction/target misprediction detected at fetch.
    pub(crate) mispredicted: bool,
    /// Fetch has already been redirected by this branch's resolution
    /// (replays do not redirect again).
    pub(crate) resume_done: bool,
    /// The architectural next PC (for branch bookkeeping).
    pub(crate) next_pc: u64,
    /// Whether the control transfer was taken.
    pub(crate) taken: bool,

    /// Load state: the load was found to stall on an older store and is
    /// waiting to retry its memory access.
    pub(crate) load_stalled: bool,
    /// Store state: address generated (LSQ entry resolved).
    pub(crate) addr_resolved: bool,

    /// Tag elimination: after a misfire, require both operands verified
    /// ready before re-requesting issue.
    pub(crate) te_verified_wait: bool,
    /// Whether the last issue required a sequential register access.
    pub(crate) seq_rf: bool,
    /// Figure 10 category of the most recent issue (2-source insts only).
    pub(crate) rf_category: Option<RfCategory>,
    /// Statistics flag: the second pending operand's wakeup has been
    /// recorded (slack/predictor stats fire once per instruction).
    pub(crate) wakeup_pair_recorded: bool,

    /// Value written to the destination register, captured from the
    /// emulator at fetch (f64 results as raw bits); for commit hooks.
    pub(crate) dest_value: Option<u64>,
    /// For stores: the stored bytes as memory holds them after the step;
    /// for commit hooks.
    pub(crate) mem_data: Option<u64>,
}

impl DynInst {
    /// Builds the in-flight record from a functional step.
    pub(crate) fn from_step(seq: u64, step: &StepRecord) -> DynInst {
        let inst = step.inst;
        let latency = inst.latency();
        DynInst {
            seq,
            pc: step.pc,
            inst,
            mem_addr: step.mem_addr,
            fu: inst.fu_class(),
            base_latency: latency.cycles,
            fu_pipelined: latency.pipelined,
            srcs: SrcState::unrenamed(inst),
            fast_slot: 1,
            dest: inst.dest(),
            store_data_producer: None,
            epoch: 0,
            insert_cycle: 0,
            issue_cycle: 0,
            wakeup_cycle: 0,
            complete_cycle: 0,
            broadcast_done: false,
            replays: 0,
            mispredicted: false,
            resume_done: false,
            next_pc: step.next_pc,
            taken: step.taken,
            load_stalled: false,
            addr_resolved: false,
            te_verified_wait: false,
            seq_rf: false,
            rf_category: None,
            wakeup_pair_recorded: false,
            dest_value: None,
            mem_data: None,
        }
    }

    /// Whether this is a load.
    pub(crate) fn is_load(&self) -> bool {
        self.inst.is_load()
    }

    /// Whether this is a store.
    pub(crate) fn is_store(&self) -> bool {
        self.inst.is_store()
    }

    /// Whether this occupies an LSQ entry.
    pub(crate) fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether select gives it the high (load/branch) priority group
    /// (paper §2.1).
    pub(crate) fn high_priority(&self) -> bool {
        self.is_load() || self.inst.is_control()
    }

    /// Whether this instruction has two scheduler sources (a "2-source
    /// instruction" in the paper's terms; stores are excluded because the
    /// scheduler only tracks their address operand).
    pub(crate) fn is_two_source(&self) -> bool {
        self.srcs.iter().all(Option::is_some)
    }

    /// Both operands pending at insert (the population of Figures 6/7 and
    /// Table 3).
    pub(crate) fn two_pending_at_insert(&self) -> bool {
        self.is_two_source() && self.srcs.iter().flatten().all(|s| !s.ready_at_insert)
    }

    /// Iterates over present sources.
    pub(crate) fn srcs_iter(&self) -> impl Iterator<Item = &SrcState> {
        self.srcs.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_isa::{AluOp, MemWidth, Reg};

    fn step(inst: Inst) -> StepRecord {
        StepRecord { pc: 0x40, inst, next_pc: 0x44, taken: false, mem_addr: None }
    }

    #[test]
    fn two_source_classification() {
        let add = DynInst::from_step(1, &step(Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3)));
        assert!(add.is_two_source());
        assert_eq!(add.srcs_iter().count(), 2);
        assert!(!add.is_load());

        let addi = DynInst::from_step(2, &step(Inst::op(AluOp::Add, Reg::R1, 5, Reg::R3)));
        assert!(!addi.is_two_source());
        assert_eq!(addi.dest, Some(Reg::R3.into()));
    }

    #[test]
    fn stores_have_one_scheduler_source() {
        let st = DynInst::from_step(
            3,
            &step(Inst::Store { width: MemWidth::Quad, rt: Reg::R1, base: Reg::R2, disp: 0 }),
        );
        assert!(st.is_store());
        assert!(st.is_mem());
        assert_eq!(st.srcs_iter().count(), 1);
        assert!(!st.is_two_source());
        assert_eq!(st.dest, None);
    }

    #[test]
    fn priority_groups() {
        let ld = DynInst::from_step(
            4,
            &step(Inst::Load { width: MemWidth::Quad, rt: Reg::R1, base: Reg::R2, disp: 0 }),
        );
        assert!(ld.high_priority());
        let add = DynInst::from_step(5, &step(Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3)));
        assert!(!add.high_priority());
        let br = DynInst::from_step(
            6,
            &step(Inst::Branch { cond: hpa_isa::BranchCond::Eq, ra: Reg::R1, disp: 1 }),
        );
        assert!(br.high_priority());
    }
}
