//! The fetch engine: branch prediction, IL1 access, fetch-group breaking
//! and the front-end latency pipe.
//!
//! The simulator is execution-driven along the *correct* path: the
//! functional emulator is stepped at fetch time and mispredicted branches
//! stall fetch until they resolve (wrong-path instructions are not
//! fetched — see `DESIGN.md` §5 for the divergence note).

use crate::stats::SimStats;
use hpa_bpred::{Btb, CombinedPredictor, Ras};
use hpa_cache::Hierarchy;
use hpa_emu::{EmuError, Emulator, StepRecord};
use hpa_isa::{FormatClass, Inst, JumpKind, MemWidth, INST_BYTES};
use std::collections::VecDeque;

/// One fetched instruction waiting in the front-end pipe.
#[derive(Clone, Copy, Debug)]
pub struct FetchedInst {
    /// The functional step.
    pub step: StepRecord,
    /// Earliest cycle the instruction may enter the window.
    pub ready_cycle: u64,
    /// Whether fetch mispredicted this (control) instruction and is now
    /// stalled waiting for it to resolve.
    pub mispredicted: bool,
    /// Value the instruction wrote to its destination register, captured
    /// from the emulator at the fetch-time step (f64 results as raw bits).
    pub dest_value: Option<u64>,
    /// For stores: the stored bytes as memory holds them after the step.
    pub mem_data: Option<u64>,
}

/// The front end's branch-prediction tables, and the one place they are
/// trained.
///
/// Sampled simulation fast-forwards in the functional emulator between
/// detailed windows; branch predictor tables hold history spanning far
/// more instructions than a window's warmup can rebuild, so they are
/// *functionally warmed* during the fast-forward instead. Fetch and
/// fast-forward train through the same [`Self::observe`]; fetch only
/// reads its predictions from the tables first.
#[derive(Clone, Debug)]
pub struct BranchWarmth {
    direction: CombinedPredictor,
    btb: Btb,
    ras: Ras,
}

impl Default for BranchWarmth {
    fn default() -> BranchWarmth {
        BranchWarmth::cold()
    }
}

impl BranchWarmth {
    /// Untrained tables — the state a [`Simulator::new`](crate::Simulator::new)
    /// front end starts from.
    #[must_use]
    pub fn cold() -> BranchWarmth {
        BranchWarmth {
            direction: CombinedPredictor::table1(),
            btb: Btb::table1(),
            ras: Ras::table1(),
        }
    }

    /// Trains the tables on one executed instruction: conditional
    /// branches update the direction predictor, indirect jumps the BTB,
    /// calls push and returns pop the RAS.
    #[inline]
    pub fn observe(&mut self, step: &StepRecord) {
        let fallthrough = step.pc + INST_BYTES;
        match step.inst {
            Inst::Branch { .. } | Inst::FBranch { .. } | Inst::BranchCmp { .. } => {
                self.direction.update(step.pc, step.taken);
            }
            Inst::Br { ra, .. } if !ra.is_zero() => {
                self.ras.push(fallthrough);
            }
            Inst::Jump { kind, rt, .. } => {
                match kind {
                    JumpKind::Ret => {
                        self.ras.pop();
                    }
                    JumpKind::Jmp | JumpKind::Jsr => {
                        self.btb.update(step.pc, step.next_pc);
                    }
                }
                if kind == JumpKind::Jsr || (kind == JumpKind::Jmp && !rt.is_zero()) {
                    self.ras.push(fallthrough);
                }
            }
            _ => {}
        }
    }
}

/// The fetch engine and front-end pipe.
#[derive(Clone, Debug)]
pub struct FrontEnd {
    emu: Emulator,
    warmth: BranchWarmth,
    queue: VecDeque<FetchedInst>,
    queue_cap: usize,
    width: u32,
    depth: u32,
    /// Fetch is stalled on an unresolved mispredicted branch.
    stalled: bool,
    /// Fetch resumes at this cycle (mispredict resolution or IL1 miss).
    resume_cycle: u64,
    /// The emulator ran out of instructions (halted).
    done: bool,
}

impl FrontEnd {
    /// Builds the front end around a loaded emulator, its predictor
    /// tables trained by `warmth` (cold, or warmed by a fast-forward).
    #[must_use]
    pub fn new(emu: Emulator, width: u32, depth: u32, warmth: BranchWarmth) -> FrontEnd {
        FrontEnd {
            emu,
            warmth,
            queue: VecDeque::new(),
            queue_cap: (width * depth) as usize,
            width,
            depth,
            stalled: false,
            resume_cycle: 0,
            done: false,
        }
    }

    /// The underlying functional machine (architectural state oracle).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Whether the emulator has halted and the pipe is drained.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.done && self.queue.is_empty()
    }

    /// Resume fetching (mispredicted branch resolved) at `cycle`.
    pub fn resolve_branch(&mut self, cycle: u64) {
        self.stalled = false;
        self.resume_cycle = self.resume_cycle.max(cycle);
    }

    /// The next instruction eligible to enter the window this cycle, if
    /// any. `pop` after the caller confirms window/LSQ space.
    #[must_use]
    pub fn peek_insertable(&self, cycle: u64) -> Option<&FetchedInst> {
        self.queue.front().filter(|f| f.ready_cycle <= cycle)
    }

    /// Removes the head of the front-end pipe.
    pub fn pop(&mut self) -> Option<FetchedInst> {
        self.queue.pop_front()
    }

    /// Runs one fetch cycle.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors (a kernel bug, not a simulator state).
    pub fn run_cycle(
        &mut self,
        cycle: u64,
        hierarchy: &mut Hierarchy,
        stats: &mut SimStats,
    ) -> Result<(), EmuError> {
        if self.done || self.stalled || cycle < self.resume_cycle {
            return Ok(());
        }
        let line_bytes = hierarchy.il1_line_bytes();
        let mut fetched = 0u32;
        let mut line: Option<u64> = None;
        while fetched < self.width && self.queue.len() < self.queue_cap {
            let pc = self.emu.pc();
            let pc_line = pc & !(line_bytes - 1);
            match line {
                None => {
                    // First access of this cycle: touch the IL1.
                    let lat = hierarchy.inst_fetch(pc);
                    let hit = hierarchy.il1_hit_latency(); // pipelined into fetch
                    if lat > hit {
                        // Miss: the line is now being filled; retry when
                        // the fill completes.
                        self.resume_cycle = cycle + u64::from(lat - hit);
                        return Ok(());
                    }
                    line = Some(pc_line);
                }
                Some(l) if l != pc_line => break, // one line per cycle
                Some(_) => {}
            }

            let Some(step) = self.emu.step()? else {
                self.done = true;
                break;
            };
            fetched += 1;
            stats.fetched += 1;
            record_format_stats(&step.inst, stats);

            if step.inst.is_nop() {
                // Eliminated by the decoder without execution (paper §2.3);
                // consumes a fetch slot only.
                continue;
            }
            if step.inst == Inst::Halt {
                self.done = true;
            }

            let mut mispredicted = false;
            if step.inst.is_control() {
                mispredicted = self.predict(&step, stats);
            }
            self.queue.push_back(FetchedInst {
                step,
                ready_cycle: cycle + u64::from(self.depth),
                mispredicted,
                dest_value: step.inst.dest().map(|d| self.emu.arch_value(d)),
                mem_data: store_image(&self.emu, &step),
            });
            if mispredicted {
                self.stalled = true;
                break;
            }
            if step.inst == Inst::Halt {
                break;
            }
            if step.taken {
                // Fetch stops at the first (predicted-)taken branch in a
                // cycle (paper Table 1).
                break;
            }
        }
        Ok(())
    }

    /// Predicts one control instruction, then trains the tables on it;
    /// returns whether fetch goes wrong.
    fn predict(&mut self, step: &StepRecord, stats: &mut SimStats) -> bool {
        let tables = &self.warmth;
        let wrong = match step.inst {
            Inst::Branch { .. } | Inst::FBranch { .. } | Inst::BranchCmp { .. } => {
                stats.branches += 1;
                // Direct targets come from the decoded instruction; the
                // direction is the speculated part.
                tables.direction.predict(step.pc) != step.taken
            }
            // Unconditional direct branch/call: target known at decode,
            // never mispredicted.
            Inst::Br { .. } => false,
            Inst::Jump { kind, .. } => {
                stats.branches += 1;
                let predicted = match kind {
                    JumpKind::Ret => tables.ras.peek(),
                    JumpKind::Jmp | JumpKind::Jsr => tables.btb.lookup(step.pc),
                };
                predicted != Some(step.next_pc)
            }
            _ => false,
        };
        if wrong {
            stats.branch_mispredicts += 1;
        }
        self.warmth.observe(step);
        wrong
    }
}

/// For a store step: the bytes just written, read back from the emulator's
/// memory (zero-extended for sub-quad widths). `None` for non-stores.
fn store_image(emu: &Emulator, step: &StepRecord) -> Option<u64> {
    let addr = step.mem_addr?;
    match step.inst {
        Inst::Store { width, .. } => Some(match width {
            MemWidth::Byte | MemWidth::SByte => u64::from(emu.memory().read_u8(addr)),
            MemWidth::Half | MemWidth::SHalf => u64::from(emu.memory().read_u16(addr)),
            MemWidth::Long | MemWidth::ULong => u64::from(emu.memory().read_u32(addr)),
            MemWidth::Quad => emu.memory().read_u64(addr),
        }),
        Inst::FStore { .. } => Some(emu.memory().read_u64(addr)),
        _ => None,
    }
}

/// Figures 2 and 3 accounting over the dynamic stream.
fn record_format_stats(inst: &Inst, stats: &mut SimStats) {
    let f = &mut stats.format;
    if inst.is_nop() {
        f.nops += 1;
        return;
    }
    match inst.format_class() {
        FormatClass::ZeroSrc => f.zero_src += 1,
        FormatClass::OneSrc => f.one_src += 1,
        FormatClass::Store => f.stores += 1,
        FormatClass::TwoSrc => {
            f.two_src += 1;
            match inst.unique_sources().len() {
                2 => f.two_src_two_unique += 1,
                _ => f.two_src_one_unique += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_asm::Asm;
    use hpa_cache::HierarchyConfig;
    use hpa_isa::Reg;

    fn front(build: impl FnOnce(&mut Asm)) -> (FrontEnd, Hierarchy, SimStats) {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let emu = Emulator::new(&a.assemble().unwrap());
        (
            FrontEnd::new(emu, 4, 7, BranchWarmth::cold()),
            Hierarchy::new(HierarchyConfig::table1()),
            SimStats::default(),
        )
    }

    #[test]
    fn fetch_respects_width_and_depth() {
        let (mut fe, mut h, mut stats) = front(|a| {
            for _ in 0..10 {
                a.add(Reg::R1, Reg::R1, 1);
            }
        });
        // Cycle 0: cold IL1 -> miss, nothing fetched.
        fe.run_cycle(0, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, 0);
        // After the fill (58 cycles for L2+memory), 4 per cycle.
        fe.run_cycle(58, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, 4);
        assert!(fe.peek_insertable(58).is_none(), "front-end depth delays insert");
        assert!(fe.peek_insertable(58 + 7).is_some());
    }

    #[test]
    fn fetch_stops_at_taken_branch_and_line_boundary() {
        let (mut fe, mut h, mut stats) = front(|a| {
            a.add(Reg::R1, Reg::R1, 1);
            a.br("far"); // taken: breaks the fetch group
            for _ in 0..20 {
                a.nop();
            }
            a.label("far");
            a.add(Reg::R1, Reg::R1, 2);
        });
        fe.run_cycle(0, &mut h, &mut stats).unwrap();
        fe.run_cycle(58, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, 2, "add + br, stop at taken branch");
        // The unconditional direct branch is not a misprediction.
        assert_eq!(stats.branch_mispredicts, 0);
    }

    #[test]
    fn mispredicted_branch_stalls_until_resolved() {
        let (mut fe, mut h, mut stats) = front(|a| {
            a.li(Reg::R1, 0);
            a.beq(Reg::R1, "t"); // taken; cold predictor says not-taken
            a.nop();
            a.label("t");
            a.add(Reg::R2, Reg::R2, 1);
        });
        fe.run_cycle(0, &mut h, &mut stats).unwrap(); // cold IL1 miss
        fe.run_cycle(58, &mut h, &mut stats).unwrap();
        assert_eq!(stats.branch_mispredicts, 1);
        let before = stats.fetched;
        fe.run_cycle(59, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, before, "stalled");
        fe.resolve_branch(70);
        fe.run_cycle(69, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, before, "resume cycle not reached");
        fe.run_cycle(70, &mut h, &mut stats).unwrap();
        assert!(stats.fetched > before);
    }

    #[test]
    fn nops_are_counted_but_not_queued() {
        let (mut fe, mut h, mut stats) = front(|a| {
            a.nop();
            a.nop();
            a.add(Reg::R1, Reg::R1, 1);
        });
        fe.run_cycle(0, &mut h, &mut stats).unwrap(); // cold IL1 miss
        fe.run_cycle(58, &mut h, &mut stats).unwrap();
        assert_eq!(stats.fetched, 4, "2 nops + add + halt");
        assert_eq!(stats.format.nops, 2);
        let mut n = 0;
        while fe.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 2, "add + halt only");
    }

    #[test]
    fn warmed_tables_predict_what_cold_tables_miss() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0);
        a.beq(Reg::R1, "t"); // always taken; a cold predictor says not-taken
        a.nop();
        a.label("t");
        a.add(Reg::R2, Reg::R2, 1);
        a.halt();
        let program = a.assemble().unwrap();
        // Functionally warm the tables over a few passes, the way sampled
        // fast-forward does.
        let mut warm = BranchWarmth::cold();
        for _ in 0..4 {
            let mut emu = Emulator::new(&program);
            while let Some(step) = emu.step().unwrap() {
                warm.observe(&step);
            }
        }
        let mut fe = FrontEnd::new(Emulator::new(&program), 4, 7, warm);
        let mut h = Hierarchy::new(HierarchyConfig::table1());
        let mut stats = SimStats::default();
        for c in 0..200 {
            fe.run_cycle(c, &mut h, &mut stats).unwrap();
            while fe.pop().is_some() {}
        }
        assert!(stats.branches >= 1);
        assert_eq!(stats.branch_mispredicts, 0, "warmth carries the taken history");
    }

    #[test]
    fn ras_predicts_returns() {
        let (mut fe, mut h, mut stats) = front(|a| {
            a.bsr(Reg::R26, "f");
            a.add(Reg::R1, Reg::R1, 1);
            a.br("end");
            a.label("f");
            a.ret(Reg::R26);
            a.label("end");
        });
        // Drive fetch for plenty of cycles.
        for c in 0..200 {
            fe.run_cycle(c, &mut h, &mut stats).unwrap();
            while fe.pop().is_some() {}
        }
        // The return must be predicted by the RAS: no mispredicts at all.
        assert_eq!(stats.branch_mispredicts, 0, "RAS covers the return");
    }

    #[test]
    fn indirect_jump_trains_btb() {
        let (mut fe, mut h, mut stats) = front(|a| {
            a.la(Reg::R2, "t");
            // Two identical indirect jumps; first misses BTB, second hits.
            a.label("t");
            a.add(Reg::R1, Reg::R1, 1);
            a.cmplt(Reg::R3, Reg::R1, 3);
            a.la(Reg::R2, "t");
            a.bne(Reg::R3, "spin");
            a.br("end");
            a.label("spin");
            a.jmp(Reg::R2);
            a.br("end");
            a.label("end");
        });
        for c in 0..400 {
            fe.run_cycle(c, &mut h, &mut stats).unwrap();
            while fe.pop().is_some() {}
            fe.resolve_branch(c + 1); // resolve instantly for this test
        }
        assert!(fe.drained());
        // The jmp executes twice: first misses the BTB, second hits.
        assert!(stats.branch_mispredicts >= 1);
        assert!(stats.branch_mispredicts < stats.branches);
    }
}
