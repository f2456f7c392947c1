//! The emulator core.

use crate::Memory;
use hpa_asm::Program;
use hpa_isa::{ArchReg, FReg, Inst, MemWidth, Reg, RegOrLit, INST_BYTES};
use std::fmt;

/// Data addresses must stay below this limit (a 48-bit address space, as
/// on real Alpha implementations). A wild address — typically a negative
/// offset applied to an uninitialized base register wrapping past zero —
/// is reported as a structured error instead of silently allocating pages
/// until memory is exhausted.
pub const MEM_ADDR_LIMIT: u64 = 1 << 48;

/// Errors raised during emulation. These indicate program bugs, not
/// emulator failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuError {
    /// The PC left the text segment.
    PcOutOfRange {
        /// The offending program counter.
        pc: u64,
    },
    /// A load or store addressed memory at or beyond [`MEM_ADDR_LIMIT`].
    MemOutOfRange {
        /// PC of the faulting load/store.
        pc: u64,
        /// The offending effective address.
        addr: u64,
        /// Access size in bytes.
        width: u64,
    },
    /// A load or store was not naturally aligned for its width. Only
    /// raised when [`Emulator::set_strict_alignment`] is enabled; the ISA
    /// permits unaligned access by default.
    Misaligned {
        /// PC of the faulting load/store.
        pc: u64,
        /// The offending effective address.
        addr: u64,
        /// Access size in bytes.
        width: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "program counter {pc:#x} outside text"),
            EmuError::MemOutOfRange { pc, addr, width } => {
                write!(f, "pc {pc:#x}: {width}-byte access at {addr:#x} outside data memory")
            }
            EmuError::Misaligned { pc, addr, width } => {
                write!(f, "pc {pc:#x}: misaligned {width}-byte access at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// What one executed instruction did — the interface between the functional
/// model and the timing simulator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StepRecord {
    /// Address of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Address of the next instruction in the committed path.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken.
    pub taken: bool,
    /// For loads/stores: the effective byte address.
    pub mem_addr: Option<u64>,
}

/// Why [`Emulator::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The program executed a `halt`.
    Halted {
        /// Instructions executed in this `run` call.
        executed: u64,
    },
    /// The instruction budget was exhausted first.
    BudgetExhausted {
        /// Instructions executed in this `run` call (equals the budget).
        executed: u64,
    },
}

/// The functional machine: architectural registers, memory and a program.
#[derive(Clone, Debug)]
pub struct Emulator {
    pub(crate) program: Program,
    pub(crate) regs: [u64; 32],
    pub(crate) fregs: [f64; 32],
    pub(crate) pc: u64,
    pub(crate) halted: bool,
    pub(crate) executed: u64,
    pub(crate) memory: Memory,
    pub(crate) strict_alignment: bool,
}

impl Emulator {
    /// Creates a machine with the program loaded and its data segments
    /// applied; all registers start at zero and the PC at address 0.
    #[must_use]
    pub fn new(program: &Program) -> Emulator {
        let mut memory = Memory::new();
        for (addr, bytes) in program.data_segments() {
            memory.write_bytes(*addr, bytes);
        }
        Emulator {
            program: program.clone(),
            regs: [0; 32],
            fregs: [0.0; 32],
            pc: 0,
            halted: false,
            executed: 0,
            memory,
            strict_alignment: false,
        }
    }

    /// Makes every load/store require natural alignment for its width,
    /// raising [`EmuError::Misaligned`] otherwise. Off by default: the ISA
    /// allows unaligned access, but fuzzing harnesses can opt in to flag
    /// accidental misalignment in generated programs.
    pub fn set_strict_alignment(&mut self, on: bool) {
        self.strict_alignment = on;
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the program has executed `halt`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Reads an integer register (`r31` reads as zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.number() as usize]
        }
    }

    /// Writes an integer register (writes to `r31` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Reads a floating-point register (`f31` reads as zero).
    #[must_use]
    pub fn freg(&self, f: FReg) -> f64 {
        if f.is_zero() {
            0.0
        } else {
            self.fregs[f.number() as usize]
        }
    }

    /// Writes a floating-point register (writes to `f31` are discarded).
    pub fn set_freg(&mut self, f: FReg, value: f64) {
        if !f.is_zero() {
            self.fregs[f.number() as usize] = value;
        }
    }

    /// The data memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the data memory (for input setup in tests).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Reads any architectural register by its unified name: integer
    /// registers as their value, floating-point registers as the raw bits
    /// of their `f64` (so values compare exactly, including NaNs).
    #[must_use]
    pub fn arch_value(&self, r: ArchReg) -> u64 {
        if r.is_zero() {
            if r.is_int() {
                0
            } else {
                0.0f64.to_bits()
            }
        } else if r.is_int() {
            self.regs[r.index()]
        } else {
            self.fregs[r.index() - 32].to_bits()
        }
    }

    fn operand(&self, rb: RegOrLit) -> u64 {
        match rb {
            RegOrLit::Reg(r) => self.reg(r),
            RegOrLit::Lit(l) => l as i64 as u64,
        }
    }

    /// Validates a data access before it touches memory.
    ///
    /// The bounds test is one compare: with `width >= 1` the subtraction
    /// cannot underflow, and `addr > MEM_ADDR_LIMIT - width` rejects
    /// exactly the accesses whose last byte would reach the limit —
    /// including wrapped (huge) addresses, which the previous two-branch
    /// form needed a separate `addr >= MEM_ADDR_LIMIT` test for. This
    /// runs on every load and store of both the fetch-phase emulator and
    /// sampled-mode fast-forward, so the extra branch was measurable.
    #[inline]
    fn check_mem(&self, pc: u64, addr: u64, width: u64) -> Result<(), EmuError> {
        debug_assert!(width >= 1);
        if addr > MEM_ADDR_LIMIT - width {
            return Err(EmuError::MemOutOfRange { pc, addr, width });
        }
        if self.strict_alignment && !addr.is_multiple_of(width) {
            return Err(EmuError::Misaligned { pc, addr, width });
        }
        Ok(())
    }

    /// Executes one instruction and reports what it did.
    ///
    /// Returns `None` once the machine has halted.
    ///
    /// # Errors
    ///
    /// [`EmuError::PcOutOfRange`] if the PC escapes the text segment.
    pub fn step(&mut self) -> Result<Option<StepRecord>, EmuError> {
        self.exec()
    }

    /// The one instruction body behind [`Emulator::step`] and
    /// [`Emulator::run_with`]. Always inlined, so the run loop executes it
    /// in place instead of calling out once per instruction.
    #[inline(always)]
    fn exec(&mut self) -> Result<Option<StepRecord>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.fetch(pc).ok_or(EmuError::PcOutOfRange { pc })?;
        let fallthrough = pc + INST_BYTES;
        let mut next_pc = fallthrough;
        let mut taken = false;
        let mut mem_addr = None;

        let branch_target =
            |disp: i32| fallthrough.wrapping_add_signed(i64::from(disp) * INST_BYTES as i64);

        match inst {
            Inst::Op { op, ra, rb, rc } => {
                let v = op.eval(self.reg(ra), self.operand(rb));
                self.set_reg(rc, v);
            }
            Inst::Op1 { op, ra, rc } => {
                let v = op.eval(self.reg(ra));
                self.set_reg(rc, v);
            }
            Inst::FpOp { op, fa, fb, fc } => {
                let v = op.eval(self.freg(fa), self.freg(fb));
                self.set_freg(fc, v);
            }
            Inst::Itof { ra, fc } => {
                let v = self.reg(ra) as i64 as f64;
                self.set_freg(fc, v);
            }
            Inst::Ftoi { fa, rc } => {
                let v = self.freg(fa) as i64 as u64;
                self.set_reg(rc, v);
            }
            Inst::Load { width, rt, base, disp } => {
                let addr = self.reg(base).wrapping_add_signed(disp as i64);
                self.check_mem(pc, addr, width.bytes())?;
                mem_addr = Some(addr);
                let v = match width {
                    MemWidth::Byte => u64::from(self.memory.read_u8(addr)),
                    MemWidth::SByte => self.memory.read_u8(addr) as i8 as i64 as u64,
                    MemWidth::Half => u64::from(self.memory.read_u16(addr)),
                    MemWidth::SHalf => self.memory.read_u16(addr) as i16 as i64 as u64,
                    MemWidth::Long => self.memory.read_u32(addr) as i32 as i64 as u64,
                    MemWidth::ULong => u64::from(self.memory.read_u32(addr)),
                    MemWidth::Quad => self.memory.read_u64(addr),
                };
                self.set_reg(rt, v);
            }
            Inst::Store { width, rt, base, disp } => {
                let addr = self.reg(base).wrapping_add_signed(disp as i64);
                self.check_mem(pc, addr, width.bytes())?;
                mem_addr = Some(addr);
                let v = self.reg(rt);
                match width {
                    MemWidth::Byte | MemWidth::SByte => self.memory.write_u8(addr, v as u8),
                    MemWidth::Half | MemWidth::SHalf => self.memory.write_u16(addr, v as u16),
                    MemWidth::Long | MemWidth::ULong => self.memory.write_u32(addr, v as u32),
                    MemWidth::Quad => self.memory.write_u64(addr, v),
                }
            }
            Inst::FLoad { ft, base, disp } => {
                let addr = self.reg(base).wrapping_add_signed(disp as i64);
                self.check_mem(pc, addr, 8)?;
                mem_addr = Some(addr);
                let v = f64::from_bits(self.memory.read_u64(addr));
                self.set_freg(ft, v);
            }
            Inst::FStore { ft, base, disp } => {
                let addr = self.reg(base).wrapping_add_signed(disp as i64);
                self.check_mem(pc, addr, 8)?;
                mem_addr = Some(addr);
                self.memory.write_u64(addr, self.freg(ft).to_bits());
            }
            Inst::Branch { cond, ra, disp } => {
                taken = cond.eval(self.reg(ra));
                if taken {
                    next_pc = branch_target(disp);
                }
            }
            Inst::BranchCmp { cmp, ra, rb, disp } => {
                taken = cmp.eval(self.reg(ra), self.reg(rb));
                if taken {
                    next_pc = branch_target(disp);
                }
            }
            Inst::FBranch { cond, fa, disp } => {
                taken = cond.eval_fp(self.freg(fa));
                if taken {
                    next_pc = branch_target(disp);
                }
            }
            Inst::Br { ra, disp } => {
                self.set_reg(ra, fallthrough);
                taken = true;
                next_pc = branch_target(disp);
            }
            Inst::Jump { rt, base, disp, .. } => {
                // Read the target before writing the return address so that
                // `jsr r26, (r26)` behaves correctly.
                let target = self.reg(base).wrapping_add_signed(i64::from(disp));
                self.set_reg(rt, fallthrough);
                taken = true;
                next_pc = target;
            }
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        self.pc = next_pc;
        self.executed += 1;
        Ok(Some(StepRecord { pc, inst, next_pc, taken, mem_addr }))
    }

    /// Runs until `halt` or until `budget` instructions have executed.
    ///
    /// # Errors
    ///
    /// Propagates [`EmuError`] from [`Emulator::step`].
    pub fn run(&mut self, budget: u64) -> Result<RunOutcome, EmuError> {
        self.run_with(budget, |_| {})
    }

    /// Runs like [`Emulator::run`], handing each executed instruction's
    /// [`StepRecord`] to `observe` — the same records, in the same order,
    /// as `budget` calls of [`Emulator::step`]. The observer is a
    /// compile-time parameter: `run` passes a no-op and pays nothing for
    /// it, and sampled fast-forward trains its branch tables in it.
    ///
    /// # Errors
    ///
    /// Propagates [`EmuError`] from [`Emulator::step`]; the faulting
    /// instruction is not observed and leaves the state unchanged.
    #[inline]
    pub fn run_with(
        &mut self,
        budget: u64,
        mut observe: impl FnMut(&StepRecord),
    ) -> Result<RunOutcome, EmuError> {
        for executed in 0..budget {
            match self.exec()? {
                Some(step) => observe(&step),
                None => return Ok(RunOutcome::Halted { executed }),
            }
        }
        Ok(RunOutcome::BudgetExhausted { executed: budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_asm::Asm;
    use hpa_isa::{FReg, Reg};

    fn run_asm(build: impl FnOnce(&mut Asm)) -> Emulator {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().expect("assembles"));
        match emu.run(1_000_000).expect("runs") {
            RunOutcome::Halted { .. } => emu,
            RunOutcome::BudgetExhausted { .. } => panic!("did not halt"),
        }
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=100 = 5050
        let emu = run_asm(|a| {
            a.li(Reg::R1, 100);
            a.li(Reg::R2, 0);
            a.label("loop");
            a.add(Reg::R2, Reg::R2, Reg::R1);
            a.sub(Reg::R1, Reg::R1, 1);
            a.bgt(Reg::R1, "loop");
        });
        assert_eq!(emu.reg(Reg::R2), 5050);
        assert_eq!(emu.reg(Reg::R1), 0);
    }

    #[test]
    fn memory_widths_and_extension() {
        let emu = run_asm(|a| {
            a.li(Reg::R1, 0x1_0000);
            a.li(Reg::R2, -2);
            a.stb(Reg::R2, Reg::R1, 0); // 0xFE
            a.ldbu(Reg::R3, Reg::R1, 0); // zero-extends
            a.stl(Reg::R2, Reg::R1, 8); // 0xFFFF_FFFE
            a.ldl(Reg::R4, Reg::R1, 8); // sign-extends
            a.stq(Reg::R2, Reg::R1, 16);
            a.ldq(Reg::R5, Reg::R1, 16);
        });
        assert_eq!(emu.reg(Reg::R3), 0xFE);
        assert_eq!(emu.reg(Reg::R4), (-2i64) as u64);
        assert_eq!(emu.reg(Reg::R5), (-2i64) as u64);
    }

    #[test]
    fn call_and_return() {
        let emu = run_asm(|a| {
            a.li(Reg::R1, 5);
            a.bsr(Reg::R26, "double");
            a.bsr(Reg::R26, "double");
            a.br("done");
            a.label("double");
            a.add(Reg::R1, Reg::R1, Reg::R1);
            a.ret(Reg::R26);
            a.label("done");
        });
        assert_eq!(emu.reg(Reg::R1), 20);
    }

    #[test]
    fn indirect_call_via_la() {
        let emu = run_asm(|a| {
            a.li(Reg::R1, 1);
            a.la(Reg::R27, "target");
            a.jsr(Reg::R26, Reg::R27);
            a.br("end");
            a.label("target");
            a.add(Reg::R1, Reg::R1, 41);
            a.ret(Reg::R26);
            a.label("end");
        });
        assert_eq!(emu.reg(Reg::R1), 42);
    }

    #[test]
    fn zero_register_semantics() {
        let emu = run_asm(|a| {
            a.li(Reg::R31, 99); // discarded
            a.add(Reg::R1, Reg::R31, 7); // r31 reads zero
        });
        assert_eq!(emu.reg(Reg::R31), 0);
        assert_eq!(emu.reg(Reg::R1), 7);
    }

    #[test]
    fn floating_point_path() {
        let emu = run_asm(|a| {
            a.li(Reg::R1, 7);
            a.itof(FReg::F1, Reg::R1);
            a.li(Reg::R2, 2);
            a.itof(FReg::F2, Reg::R2);
            a.fdiv(FReg::F3, FReg::F1, FReg::F2); // 3.5
            a.li(Reg::R3, 0x1_0000);
            a.stt(FReg::F3, Reg::R3, 0);
            a.ldt(FReg::F4, Reg::R3, 0);
            a.fadd(FReg::F4, FReg::F4, FReg::F4); // 7.0
            a.ftoi(Reg::R4, FReg::F4);
        });
        assert_eq!(emu.reg(Reg::R4), 7);
        assert_eq!(emu.freg(FReg::F3), 3.5);
        assert_eq!(emu.freg(FReg::F31), 0.0);
    }

    #[test]
    fn step_records_describe_control_flow() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0);
        a.beq(Reg::R1, "skip"); // taken
        a.nop();
        a.label("skip");
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        let r1 = emu.step().unwrap().unwrap();
        assert_eq!(r1.pc, 0);
        assert!(!r1.taken);
        let r2 = emu.step().unwrap().unwrap();
        assert!(r2.inst.is_cond_branch());
        assert!(r2.taken);
        assert_eq!(r2.next_pc, 12);
        let r3 = emu.step().unwrap().unwrap();
        assert_eq!(r3.inst, Inst::Halt);
        assert!(emu.halted());
        assert_eq!(emu.step().unwrap(), None);
    }

    #[test]
    fn mem_addr_is_reported() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0x2000);
        a.ldq(Reg::R2, Reg::R1, 8);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.step().unwrap();
        let rec = emu.step().unwrap().unwrap();
        assert_eq!(rec.mem_addr, Some(0x2008));
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let mut a = Asm::new();
        a.nop(); // falls off the end
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.step().unwrap();
        assert_eq!(emu.step(), Err(EmuError::PcOutOfRange { pc: 4 }));
    }

    #[test]
    fn budget_exhaustion() {
        let mut a = Asm::new();
        a.label("spin");
        a.br("spin");
        let mut emu = Emulator::new(&a.assemble().unwrap());
        assert_eq!(emu.run(10).unwrap(), RunOutcome::BudgetExhausted { executed: 10 });
        assert_eq!(emu.executed(), 10);
    }

    #[test]
    fn data_segments_are_loaded() {
        let mut a = Asm::new();
        a.data_u64s(0x3000, &[123, 456]);
        a.li(Reg::R1, 0x3000);
        a.ldq(Reg::R2, Reg::R1, 0);
        a.ldq(Reg::R3, Reg::R1, 8);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R2), 123);
        assert_eq!(emu.reg(Reg::R3), 456);
    }

    #[test]
    fn jsr_through_own_link_register() {
        // jsr r26, (r26) must jump to the OLD r26.
        let mut a = Asm::new();
        a.la(Reg::R26, "t");
        a.jsr(Reg::R26, Reg::R26);
        a.label("t");
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert!(emu.halted());
        // Return address of the jsr (slot 3 -> 0x10).
        assert_eq!(emu.reg(Reg::R26), 0x10);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use hpa_asm::{Asm, Program};
    use hpa_isa::{FReg, Reg};

    #[test]
    fn ftoi_truncates_toward_zero_and_saturates() {
        let mut a = Asm::new();
        a.li(Reg::R1, -7);
        a.itof(FReg::F1, Reg::R1);
        a.li(Reg::R2, 2);
        a.itof(FReg::F2, Reg::R2);
        a.fdiv(FReg::F3, FReg::F1, FReg::F2); // -3.5
        a.ftoi(Reg::R3, FReg::F3); // -3 (truncation toward zero)
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R3) as i64, -3);
    }

    #[test]
    fn fp_zero_register_discards_writes() {
        let mut a = Asm::new();
        a.li(Reg::R1, 5);
        a.itof(FReg::F31, Reg::R1); // discarded
        a.fadd(FReg::F1, FReg::F31, FReg::F31); // 0.0
        a.ftoi(Reg::R2, FReg::F1);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R2), 0);
    }

    #[test]
    fn unaligned_quad_access_round_trips() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0x1_0003); // deliberately unaligned
        a.li(Reg::R2, 0x0123_4567);
        a.stq(Reg::R2, Reg::R1, 0);
        a.ldq(Reg::R3, Reg::R1, 0);
        a.ldbu(Reg::R4, Reg::R1, 0); // low byte
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R3), 0x0123_4567);
        assert_eq!(emu.reg(Reg::R4), 0x67);
    }

    #[test]
    fn negative_displacement_addressing() {
        let mut a = Asm::new();
        a.li(Reg::R1, 0x1_0010);
        a.li(Reg::R2, 42);
        a.stq(Reg::R2, Reg::R1, -16);
        a.li(Reg::R3, 0x1_0000);
        a.ldq(Reg::R4, Reg::R3, 0);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R4), 42);
    }

    #[test]
    fn branch_target_record_on_not_taken() {
        let mut a = Asm::new();
        a.li(Reg::R1, 1);
        a.beq(Reg::R1, "skip"); // not taken: r1 != 0
        a.add(Reg::R2, Reg::R2, 9);
        a.label("skip");
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.step().unwrap();
        let b = emu.step().unwrap().unwrap();
        assert!(!b.taken);
        assert_eq!(b.next_pc, b.pc + 4, "fallthrough");
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::R2), 9);
    }

    #[test]
    fn wild_address_is_a_structured_error() {
        // An uninitialized base with a negative displacement wraps past
        // zero to the top of the address space: MemOutOfRange, not an
        // unbounded page allocation.
        let mut a = Asm::new();
        a.ldq(Reg::R2, Reg::R1, -8); // r1 = 0 -> addr = 2^64 - 8
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        assert_eq!(
            emu.step(),
            Err(EmuError::MemOutOfRange { pc: 0, addr: (-8i64) as u64, width: 8 })
        );
    }

    #[test]
    fn access_straddling_the_limit_is_out_of_range() {
        let mut a = Asm::new();
        a.stq(Reg::R2, Reg::R1, 0);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.set_reg(Reg::R1, MEM_ADDR_LIMIT - 4); // quad crosses the limit
        assert_eq!(
            emu.step(),
            Err(EmuError::MemOutOfRange { pc: 0, addr: MEM_ADDR_LIMIT - 4, width: 8 })
        );
    }

    #[test]
    fn strict_alignment_is_opt_in() {
        let build = || {
            let mut a = Asm::new();
            a.li(Reg::R1, 0x1_0003);
            a.stl(Reg::R2, Reg::R1, 0);
            a.halt();
            Emulator::new(&a.assemble().unwrap())
        };
        // Default: unaligned access is legal.
        let mut emu = build();
        assert!(emu.run(100).is_ok());
        // Strict: the same access is a structured error at the store.
        let mut emu = build();
        emu.set_strict_alignment(true);
        assert!(matches!(emu.run(100), Err(EmuError::Misaligned { addr: 0x1_0003, width: 4, .. })));
    }

    #[test]
    fn faulting_access_leaves_state_unchanged() {
        let mut a = Asm::new();
        a.ldq(Reg::R2, Reg::R1, -8);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        assert!(emu.step().is_err());
        assert_eq!(emu.pc(), 0, "faulting instruction does not advance the PC");
        assert_eq!(emu.executed(), 0);
        assert_eq!(emu.reg(Reg::R2), 0);
    }

    #[test]
    fn arch_value_reads_both_files() {
        use hpa_isa::ArchReg;
        let mut a = Asm::new();
        a.li(Reg::R1, 7);
        a.itof(FReg::F2, Reg::R1);
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        emu.run(100).unwrap();
        assert_eq!(emu.arch_value(ArchReg::from(Reg::R1)), 7);
        assert_eq!(emu.arch_value(ArchReg::from(FReg::F2)), 7.0f64.to_bits());
        assert_eq!(emu.arch_value(ArchReg::from(Reg::R31)), 0);
        assert_eq!(emu.arch_value(ArchReg::from(FReg::F31)), 0.0f64.to_bits());
    }

    /// `budget` calls of [`Emulator::step`], with the outcome folded the
    /// way [`Emulator::run_with`] reports it.
    fn step_by_step(
        emu: &mut Emulator,
        budget: u64,
    ) -> (Vec<StepRecord>, Result<RunOutcome, EmuError>) {
        let mut records = Vec::new();
        for executed in 0..budget {
            match emu.step() {
                Ok(Some(record)) => records.push(record),
                Ok(None) => return (records, Ok(RunOutcome::Halted { executed })),
                Err(e) => return (records, Err(e)),
            }
        }
        (records, Ok(RunOutcome::BudgetExhausted { executed: budget }))
    }

    /// Runs `program` for `budget` instructions both ways and asserts they
    /// agree on every record, the outcome and the final machine state.
    fn run_with_matches_step(
        program: &Program,
        budget: u64,
    ) -> (Emulator, Result<RunOutcome, EmuError>) {
        let mut stepped = Emulator::new(program);
        let (expected, expected_outcome) = step_by_step(&mut stepped, budget);
        let mut run = Emulator::new(program);
        let mut records = Vec::new();
        let outcome = run.run_with(budget, |record| records.push(*record));
        assert_eq!(records, expected, "budget {budget}");
        assert_eq!(outcome, expected_outcome, "budget {budget}");
        assert_eq!(run.executed(), stepped.executed(), "budget {budget}");
        assert_eq!(run.pc(), stepped.pc(), "budget {budget}");
        assert_eq!(run.snapshot(), stepped.snapshot(), "budget {budget}");
        (run, outcome)
    }

    /// A loop that calls a subroutine, stores and loads, then either halts
    /// or loads from outside data memory.
    fn looping_program(fault: bool) -> Program {
        let mut a = Asm::new();
        a.li(Reg::R1, 20);
        a.li(Reg::R5, 0x1_0000);
        a.label("loop");
        a.bsr(Reg::R26, "body");
        a.sub(Reg::R1, Reg::R1, 1);
        a.bgt(Reg::R1, "loop");
        if fault {
            a.li(Reg::R6, -1);
            a.ldq(Reg::R3, Reg::R6, 0);
        }
        a.halt();
        a.label("body");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.stq(Reg::R2, Reg::R5, 0);
        a.ldq(Reg::R4, Reg::R5, 0);
        a.add(Reg::R5, Reg::R5, 8);
        a.ret(Reg::R26);
        a.assemble().unwrap()
    }

    #[test]
    fn run_with_observes_exactly_what_step_returns() {
        let program = looping_program(false);
        let outcome = |budget| run_with_matches_step(&program, budget).1;
        let Ok(RunOutcome::Halted { executed: total }) = outcome(u64::MAX) else {
            panic!("runs to halt");
        };
        assert_eq!(outcome(0), Ok(RunOutcome::BudgetExhausted { executed: 0 }));
        assert_eq!(outcome(7), Ok(RunOutcome::BudgetExhausted { executed: 7 }));
        // The halt is the last instruction the budget allows: the budget,
        // not the halt, ends the run.
        assert_eq!(outcome(total), Ok(RunOutcome::BudgetExhausted { executed: total }));
        assert_eq!(outcome(total + 1), Ok(RunOutcome::Halted { executed: total }));
    }

    #[test]
    fn run_with_stops_at_a_mid_budget_fault_like_step() {
        let (emu, outcome) = run_with_matches_step(&looping_program(true), 10_000);
        let Err(EmuError::MemOutOfRange { pc, addr: u64::MAX, width: 8 }) = outcome else {
            panic!("faults at the wild load: {outcome:?}");
        };
        assert_eq!(emu.pc(), pc, "the faulting load does not advance the PC");
        assert!(!emu.halted());
        assert!(emu.executed() > 20 * 8, "faults after the loop, mid-budget");
    }

    #[test]
    fn run_after_halt_is_stable() {
        let mut a = Asm::new();
        a.halt();
        let mut emu = Emulator::new(&a.assemble().unwrap());
        assert!(matches!(emu.run(10).unwrap(), RunOutcome::Halted { executed: 1 }));
        assert!(matches!(emu.run(10).unwrap(), RunOutcome::Halted { executed: 0 }));
        assert_eq!(emu.executed(), 1);
    }
}
