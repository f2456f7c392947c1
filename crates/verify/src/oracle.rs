//! The lockstep co-simulation oracle.

use crate::generate::ArchState;
use crate::Divergence;
use hpa_core::asm::Program;
use hpa_core::emu::{Emulator, RunOutcome, Snapshot};
use hpa_core::isa::{Inst, MemWidth};
use hpa_core::sim::{
    BranchWarmth, CommitHook, CommitRecord, FaultInjection, SimConfig, SimFault, Simulator,
};

/// Budget for the reference emulator pass (and an upper bound on shadow
/// steps); generated programs are tiny, corpus files must stay small.
const REFERENCE_BUDGET: u64 = 10_000_000;

/// A [`CommitHook`] that replays each committed instruction on a shadow
/// emulator and compares every architecturally visible effect.
///
/// The shadow is stepped once per commit (skipping decode-eliminated nops,
/// which the front end never inserts into the window), so the comparison
/// is positional: commit *n* must be the *n*-th dynamic instruction.
#[derive(Clone, Debug)]
pub struct LockstepOracle {
    shadow: Emulator,
}

impl LockstepOracle {
    /// Builds the oracle with a fresh shadow emulator for `program`.
    #[must_use]
    pub fn new(program: &Program) -> LockstepOracle {
        LockstepOracle { shadow: Emulator::new(program) }
    }

    /// Builds the oracle around an already-positioned shadow — the
    /// mid-program variant used to validate detailed windows started from
    /// a snapshot. The shadow must stand exactly at the first instruction
    /// the window will commit.
    #[must_use]
    pub fn with_shadow(shadow: Emulator) -> LockstepOracle {
        LockstepOracle { shadow }
    }

    /// Reads the shadow's memory image of a completed store, mirroring the
    /// capture the simulator performs at fetch.
    fn shadow_store_image(&self, inst: Inst, addr: u64) -> Option<u64> {
        let mem = self.shadow.memory();
        match inst {
            Inst::Store { width, .. } => Some(match width {
                MemWidth::Byte | MemWidth::SByte => u64::from(mem.read_u8(addr)),
                MemWidth::Half | MemWidth::SHalf => u64::from(mem.read_u16(addr)),
                MemWidth::Long | MemWidth::ULong => u64::from(mem.read_u32(addr)),
                MemWidth::Quad => mem.read_u64(addr),
            }),
            Inst::FStore { .. } => Some(mem.read_u64(addr)),
            _ => None,
        }
    }
}

impl CommitHook for LockstepOracle {
    fn on_commit(&mut self, rec: &CommitRecord) -> Result<(), String> {
        let step = loop {
            match self.shadow.step() {
                Ok(Some(s)) if s.inst.is_nop() => continue,
                Ok(Some(s)) => break s,
                Ok(None) => {
                    return Err(format!(
                        "shadow halted before commit seq {} (pc {:#x}) — the timing \
                         simulator retired more instructions than the program executes",
                        rec.seq, rec.pc
                    ));
                }
                Err(e) => return Err(format!("shadow emulator fault: {e}")),
            }
        };
        if step.pc != rec.pc {
            return Err(format!(
                "pc mismatch: committed {:#x}, shadow executed {:#x} — retire stream \
                 out of sync",
                rec.pc, step.pc
            ));
        }
        if step.inst != rec.inst {
            return Err(format!(
                "instruction mismatch at pc {:#x}: committed `{}`, shadow executed `{}`",
                rec.pc, rec.inst, step.inst
            ));
        }
        if step.next_pc != rec.next_pc || step.taken != rec.taken {
            return Err(format!(
                "control mismatch at pc {:#x}: committed next_pc {:#x} taken={}, \
                 shadow next_pc {:#x} taken={}",
                rec.pc, rec.next_pc, rec.taken, step.next_pc, step.taken
            ));
        }
        if step.mem_addr != rec.mem_addr {
            return Err(format!(
                "memory address mismatch at pc {:#x}: committed {:?}, shadow {:?}",
                rec.pc, rec.mem_addr, step.mem_addr
            ));
        }
        if let Some(dest) = rec.dest {
            let shadow_value = self.shadow.arch_value(dest);
            if rec.dest_value != Some(shadow_value) {
                return Err(format!(
                    "destination mismatch at pc {:#x}: {dest} committed {:?}, shadow \
                     holds {shadow_value:#x}",
                    rec.pc, rec.dest_value
                ));
            }
        }
        if let (Some(addr), Some(data)) = (rec.mem_addr, rec.mem_data) {
            if let Some(shadow_data) = self.shadow_store_image(rec.inst, addr) {
                if data != shadow_data {
                    return Err(format!(
                        "store data mismatch at pc {:#x} addr {addr:#x}: committed \
                         {data:#x}, shadow memory holds {shadow_data:#x}",
                        rec.pc
                    ));
                }
            }
        }
        Ok(())
    }

    fn box_clone(&self) -> Box<dyn CommitHook> {
        Box::new(self.clone())
    }
}

/// What a clean lockstep run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LockstepOutcome {
    /// Cycles the timing simulation took.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Final architectural state (used for cross-scheme comparison).
    pub state: ArchState,
    /// Whether the fault planted by [`run_lockstep_injected`] fired;
    /// always false for an uninjected run.
    #[doc(hidden)]
    pub fired: bool,
}

/// Runs `program` under `config` with the lockstep oracle attached and the
/// pipeline invariant sweep enabled, then cross-checks the final
/// architectural state against an independent reference emulation.
///
/// # Errors
///
/// The first [`Divergence`]: an oracle mismatch, an emulator or pipeline
/// fault, a scheduler deadlock, or a final-state mismatch
/// ([`Divergence::final_state`]).
pub fn run_lockstep(program: &Program, config: SimConfig) -> Result<LockstepOutcome, Divergence> {
    run_lockstep_inner(program, config, None, u64::MAX)
}

/// [`run_lockstep`] with a planted scheduler bug and a watchdog: a run
/// still active at `cycle_budget` cycles is a deadlock divergence. For
/// mutation-testing that the oracle/invariant net catches the bug, and
/// for classifying fault-injection campaign runs.
#[doc(hidden)]
pub fn run_lockstep_injected(
    program: &Program,
    config: SimConfig,
    injection: FaultInjection,
    cycle_budget: u64,
) -> Result<LockstepOutcome, Divergence> {
    run_lockstep_inner(program, config, Some(injection), cycle_budget)
}

fn run_lockstep_inner(
    program: &Program,
    config: SimConfig,
    injection: Option<FaultInjection>,
    cycle_budget: u64,
) -> Result<LockstepOutcome, Divergence> {
    let mut sim = Simulator::new(program, config);
    sim.set_commit_hook(Box::new(LockstepOracle::new(program)));
    sim.set_strict_invariants(true);
    sim.set_cycle_budget(cycle_budget);
    if let Some(inj) = injection {
        sim.inject_fault(inj);
    }
    sim.try_run().map_err(fault_to_divergence)?;

    // Final-state cross-check: an independent emulation of the whole
    // program must agree with the simulator's architectural state. This
    // catches defects the per-commit oracle structurally cannot (e.g. the
    // simulator finishing early without committing the tail).
    let mut reference = Emulator::new(program);
    let reason = match reference.run(REFERENCE_BUDGET) {
        Ok(RunOutcome::Halted { .. }) => None,
        Ok(RunOutcome::BudgetExhausted { .. }) => {
            Some(format!("reference emulation did not halt within {REFERENCE_BUDGET} steps"))
        }
        Err(e) => Some(format!("reference emulation faulted: {e}")),
    };
    if let Some(reason) = reason {
        return Err(Divergence::at(sim.cycle(), reason));
    }
    let sim_state = ArchState::capture(sim.emulator());
    let ref_state = ArchState::capture(&reference);
    if let Some(diff) = sim_state.first_difference(&ref_state, "simulator", "reference") {
        return Err(Divergence {
            seq: 0,
            cycle: sim.cycle(),
            reason: format!("final architectural state mismatch: {diff}"),
            dump: sim.dump_state(),
            final_state: Some(diff),
        });
    }
    Ok(LockstepOutcome {
        cycles: sim.stats().cycles,
        committed: sim.stats().committed,
        state: sim_state,
        fired: sim.injection_fired(),
    })
}

fn fault_to_divergence(fault: SimFault) -> Divergence {
    match fault {
        SimFault::Hook { seq, cycle, reason, dump } => {
            Divergence { seq, cycle, reason, dump, final_state: None }
        }
        SimFault::Invariant { cycle, reason, dump } => Divergence {
            dump,
            ..Divergence::at(cycle, format!("pipeline invariant violated: {reason}"))
        },
        SimFault::Emu { cycle, .. } | SimFault::Deadlock { cycle, .. } => {
            Divergence::at(cycle, fault.to_string())
        }
    }
}

/// Validates snapshot restore *exactly*: a detailed window started from
/// `snap` must produce the same commit stream as full detailed simulation
/// reaching the same region.
///
/// The simulator is execution-driven along the correct path, so its
/// commit stream equals the functional instruction stream; the oracle's
/// shadow is therefore advanced to the snapshot region *functionally and
/// independently* — `snap.executed()` fresh steps from program start,
/// never through the snapshot itself. Any architectural state the
/// snapshot failed to carry (a register, a dirty page, the halt flag)
/// surfaces as a per-commit divergence inside the window, and a final
/// cross-check compares the window's end state against an equally
/// advanced independent reference.
///
/// `config` bounds the window as usual (`with_warmup`/`with_max_insts`
/// count from the window start); an unbounded config validates the whole
/// remainder of the program.
///
/// # Errors
///
/// The first [`Divergence`], as [`run_lockstep`].
pub fn run_lockstep_window(
    program: &Program,
    config: SimConfig,
    snap: &Snapshot,
) -> Result<LockstepOutcome, Divergence> {
    // Independent functional replay up to the snapshot point.
    let mut shadow = Emulator::new(program);
    let replay_error = match shadow.run(snap.executed()) {
        Ok(RunOutcome::BudgetExhausted { .. }) if shadow.pc() == snap.pc() => None,
        Ok(RunOutcome::BudgetExhausted { .. }) => Some(format!(
            "snapshot pc {:#x} disagrees with functional replay pc {:#x} at the same \
             instruction count",
            snap.pc(),
            shadow.pc()
        )),
        Ok(RunOutcome::Halted { executed }) => Some(format!(
            "shadow halted after {executed} steps, before the snapshot point ({} executed) \
             — the snapshot's executed count does not match the program",
            snap.executed()
        )),
        Err(e) => Some(format!("shadow emulation faulted before the snapshot point: {e}")),
    };
    if let Some(reason) = replay_error {
        return Err(Divergence::at(0, reason));
    }

    let mut sim = Simulator::from_snapshot(program, config, snap, BranchWarmth::cold());
    sim.set_commit_hook(Box::new(LockstepOracle::with_shadow(shadow)));
    sim.set_strict_invariants(true);
    sim.try_run().map_err(fault_to_divergence)?;

    // Final-state cross-check: a fresh emulation advanced by the same
    // total instruction count must agree with the window's fetch-front
    // emulator (restored state + window execution ≡ straight-line
    // functional execution).
    let mut reference = Emulator::new(program);
    if let Err(e) = reference.run(sim.emulator().executed()) {
        return Err(Divergence::at(sim.cycle(), format!("reference emulation faulted: {e}")));
    }
    let sim_state = ArchState::capture(sim.emulator());
    let ref_state = ArchState::capture(&reference);
    if let Some(reason) = sim_state.first_difference(&ref_state, "window", "reference") {
        return Err(Divergence {
            seq: 0,
            cycle: sim.cycle(),
            reason: format!("window final state mismatch: {reason}"),
            dump: sim.dump_state(),
            final_state: Some(reason),
        });
    }
    Ok(LockstepOutcome {
        cycles: sim.stats().cycles,
        committed: sim.stats().committed,
        state: sim_state,
        fired: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_core::asm::Asm;
    use hpa_core::isa::Reg;

    /// `lead` nops, then a 50-iteration countdown loop.
    fn countdown(lead: usize) -> Program {
        let mut a = Asm::new();
        for _ in 0..lead {
            a.nop();
        }
        a.li(Reg::R1, 50);
        a.label("loop");
        a.sub(Reg::R1, Reg::R1, 1);
        a.bgt(Reg::R1, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    fn replay_divergence(program: &Program, snap: &Snapshot) -> String {
        let config = SimConfig::four_wide().with_max_insts(10);
        run_lockstep_window(program, config, snap).expect_err("replay diverges").reason
    }

    #[test]
    fn window_replay_reports_halt_pc_and_fault() {
        let mut emu = Emulator::new(&countdown(0));
        emu.run(30).unwrap();
        let snap = emu.snapshot();
        assert!(run_lockstep_window(&countdown(0), SimConfig::four_wide(), &snap).is_ok());

        let mut a = Asm::new();
        a.nop();
        a.halt();
        let reason = replay_divergence(&a.assemble().unwrap(), &snap);
        assert!(reason.starts_with("shadow halted after 2 steps"), "{reason}");

        let reason = replay_divergence(&countdown(2), &snap);
        assert!(reason.contains("disagrees with functional replay"), "{reason}");

        let mut a = Asm::new();
        a.li(Reg::R6, -1);
        a.ldq(Reg::R3, Reg::R6, 0);
        let reason = replay_divergence(&a.assemble().unwrap(), &snap);
        assert!(reason.starts_with("shadow emulation faulted"), "{reason}");
    }
}
