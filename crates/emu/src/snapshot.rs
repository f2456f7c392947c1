//! Architectural checkpoints: capture an [`Emulator`]'s complete state
//! cheaply and rebuild an identical machine from it later.
//!
//! A snapshot holds the register files, PC, halt flag, executed count and
//! the memory image — every resident page of the sparse page table.
//! Untouched memory reads as zero on both sides of a round trip, so
//! resident pages are the whole story. Sampled simulation fast-forwards a
//! functional emulator, snapshots at each sample boundary, and seeds a
//! detailed timing window from the checkpoint; the lockstep oracle in
//! `hpa-verify` proves the window's commit stream matches full execution
//! reaching the same region.
//!
//! # Cost
//!
//! Memory pages are shared copy-on-write (see [`Memory`]), and the
//! [`Program`] shares its text and data image. Capturing a snapshot,
//! building a machine from one and restoring one therefore cost one
//! reference-count bump per resident page plus a copy of the page table's
//! slot array; no page contents are copied. A page is copied later, once,
//! by the first write to it on a side that still shares it — so a detailed
//! window pays for the pages it stores to, not for the whole image.

use crate::machine::Emulator;
use crate::memory::Memory;
use hpa_asm::Program;

/// A complete architectural checkpoint of an [`Emulator`].
///
/// Floating-point registers are stored as raw `f64` bits so NaN payloads
/// and signed zeros round-trip exactly and snapshots compare with `==`;
/// memory compares by content, not by table layout or page sharing.
/// The program text is *not* captured — programs are immutable, so the
/// caller re-supplies the [`Program`] on restore.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    regs: [u64; 32],
    fregs: [u64; 32],
    pc: u64,
    halted: bool,
    executed: u64,
    strict_alignment: bool,
    memory: Memory,
}

impl Snapshot {
    /// Program counter at capture time.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the machine had executed `halt` at capture time.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions the machine had executed at capture time.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of memory pages captured.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.memory.resident_pages()
    }
}

impl Emulator {
    /// Captures the machine's complete architectural state, sharing every
    /// memory page with this machine.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            regs: self.regs,
            fregs: self.fregs.map(f64::to_bits),
            pc: self.pc,
            halted: self.halted,
            executed: self.executed,
            strict_alignment: self.strict_alignment,
            memory: self.memory.clone(),
        }
    }

    /// Builds a machine running `program` whose architectural state is
    /// exactly `snap`, sharing every memory page with the snapshot. The
    /// caller is responsible for pairing a snapshot with the program it
    /// was captured under; nothing in the snapshot identifies the text
    /// segment.
    #[must_use]
    pub fn from_snapshot(program: &Program, snap: &Snapshot) -> Emulator {
        Emulator {
            program: program.clone(),
            regs: snap.regs,
            fregs: snap.fregs.map(f64::from_bits),
            pc: snap.pc,
            halted: snap.halted,
            executed: snap.executed,
            memory: snap.memory.clone(),
            strict_alignment: snap.strict_alignment,
        }
    }

    /// Restores this machine to `snap`, keeping its current program.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.regs = snap.regs;
        self.fregs = snap.fregs.map(f64::from_bits);
        self.pc = snap.pc;
        self.halted = snap.halted;
        self.executed = snap.executed;
        self.memory = snap.memory.clone();
        self.strict_alignment = snap.strict_alignment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_asm::Asm;
    use hpa_isa::{FReg, Reg};

    /// A little program that loops, touches memory across two pages, and
    /// exercises the FP file before halting.
    fn program() -> Program {
        let mut a = Asm::new();
        a.li(Reg::R1, 8);
        a.li(Reg::R2, 0x1_0FF8); // quad straddles a page boundary
        a.label("loop");
        a.add(Reg::R3, Reg::R3, Reg::R1);
        a.stq(Reg::R3, Reg::R2, 0);
        a.itof(FReg::F1, Reg::R3);
        a.sub(Reg::R1, Reg::R1, 1);
        a.bgt(Reg::R1, "loop");
        a.ldq(Reg::R4, Reg::R2, 0);
        a.halt();
        a.assemble().expect("assembles")
    }

    #[test]
    fn round_trip_mid_run() {
        let program = program();
        let mut emu = Emulator::new(&program);
        emu.run(13).unwrap();
        let snap = emu.snapshot();
        let restored = Emulator::from_snapshot(&program, &snap);
        assert_eq!(restored.snapshot(), snap, "snapshot(from_snapshot(s)) == s");
        // Both machines must agree instruction by instruction to the end.
        let mut original = emu;
        let mut replica = restored;
        loop {
            let a = original.step().unwrap();
            let b = replica.step().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(original.snapshot(), replica.snapshot());
    }

    #[test]
    fn snapshot_captures_memory_and_flags() {
        let program = program();
        let mut emu = Emulator::new(&program);
        emu.set_strict_alignment(true);
        emu.run(20).unwrap();
        let snap = emu.snapshot();
        assert_eq!(snap.executed(), 20);
        assert_eq!(snap.pc(), emu.pc());
        assert!(!snap.halted());
        assert_eq!(snap.resident_pages(), emu.memory().resident_pages());
        let restored = Emulator::from_snapshot(&program, &snap);
        assert_eq!(restored.memory().read_u64(0x1_0FF8), emu.memory().read_u64(0x1_0FF8));
        // Strict alignment is part of machine state and must survive.
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restore_rewinds_in_place() {
        let program = program();
        let mut emu = Emulator::new(&program);
        emu.run(5).unwrap();
        let snap = emu.snapshot();
        emu.run(1_000).unwrap();
        assert!(emu.halted());
        emu.restore(&snap);
        assert_eq!(emu.snapshot(), snap);
        assert!(!emu.halted());
        assert_eq!(emu.executed(), 5);
    }

    #[test]
    fn halted_machine_round_trips() {
        let program = program();
        let mut emu = Emulator::new(&program);
        emu.run(1_000).unwrap();
        assert!(emu.halted());
        let snap = emu.snapshot();
        let mut restored = Emulator::from_snapshot(&program, &snap);
        assert!(restored.halted());
        assert_eq!(restored.step().unwrap(), None, "stays halted");
        assert_eq!(restored.snapshot(), snap);
    }

    /// The structural guard: capture, build and restore share every page
    /// and the program instead of copying them.
    #[test]
    fn snapshot_from_snapshot_and_restore_share_pages() {
        let program = program();
        let mut emu = Emulator::new(&program);
        emu.run(20).unwrap();
        assert!(emu.memory().resident_pages() > 0);
        let snap = emu.snapshot();
        assert!(snap.memory.shares_every_page_with(emu.memory()), "snapshot copies no page");

        let restored = Emulator::from_snapshot(&program, &snap);
        assert!(restored.memory().shares_every_page_with(&snap.memory));
        assert!(std::ptr::eq(restored.program().insts(), program.insts()));

        let mut other = Emulator::new(&program);
        other.run(1_000).unwrap();
        other.restore(&snap);
        assert!(other.memory().shares_every_page_with(&snap.memory));

        // Shared pages must not cost thread mobility: parallel runners
        // move machines and snapshots between threads.
        fn assert_send<T: Send>() {}
        assert_send::<Memory>();
        assert_send::<Emulator>();
        assert_send::<Snapshot>();
    }

    #[test]
    fn nan_bits_survive_the_round_trip() {
        let program = program();
        let mut emu = Emulator::new(&program);
        let payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF); // quiet NaN, tagged
        emu.set_freg(FReg::F7, payload);
        let restored = Emulator::from_snapshot(&program, &emu.snapshot());
        assert_eq!(restored.freg(FReg::F7).to_bits(), payload.to_bits());
    }
}
