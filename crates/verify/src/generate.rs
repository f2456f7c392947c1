//! Seeded random-program generation for differential fuzzing.
//!
//! Programs are a counted outer loop over a small straight-line body with
//! forward skips: every control edge is either the bounded back-edge or a
//! forward branch clamped inside the body, so any generated program — and
//! any *deletion subset* of one, which the shrinker relies on — terminates.

use hpa_core::asm::{Asm, Program};
use hpa_core::emu::Emulator;
use hpa_core::isa::{AluOp, ArchReg, BranchCond, FReg, FpBinOp, Inst, MemWidth, Reg, RegOrLit};
use hpa_core::workloads::SplitMix64;

/// Base address of the first store/load arena (`r1` at entry).
pub const ARENA0: u64 = 0x1_0000;
/// Base address of the second arena (`r2` at entry), 128 bytes above
/// [`ARENA0`] so displacements of the two pointers alias and partially
/// overlap.
pub const ARENA1: u64 = ARENA0 + 0x80;

/// Integer scratch registers the generator reads and writes.
const INT_POOL: [Reg; 13] = [
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
];

/// Floating-point scratch registers.
const FP_POOL: [FReg; 6] = [FReg::F1, FReg::F2, FReg::F3, FReg::F4, FReg::F5, FReg::F6];

/// ALU operations the generator draws from (all of them; division and
/// remainder by zero are architecturally defined, so nothing is excluded).
const ALU_OPS: [AluOp; 34] = AluOp::ALL;

/// One generated body instruction, kept abstract so the shrinker can
/// delete entries without re-resolving branch targets (forward skips are
/// clamped to the body length at lowering).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum GenInst {
    /// Register-register ALU operation.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination (index into the integer scratch pool, `r3`–`r15`).
        rc: u8,
        /// Left source.
        ra: u8,
        /// Right source.
        rb: u8,
    },
    /// Register-literal ALU operation.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rc: u8,
        /// Source.
        ra: u8,
        /// Immediate literal.
        imm: i16,
    },
    /// Integer load from one of the arenas.
    Load {
        /// Access width.
        width: MemWidth,
        /// Destination.
        rt: u8,
        /// Which arena pointer (0 = `r1`, 1 = `r2`).
        arena: u8,
        /// Byte displacement (±128, deliberately overlapping between the
        /// arenas and across widths).
        disp: i16,
    },
    /// Integer store to one of the arenas.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data source.
        rt: u8,
        /// Which arena pointer.
        arena: u8,
        /// Byte displacement.
        disp: i16,
    },
    /// Floating-point load (8 bytes).
    FLoad {
        /// Destination (index into the floating-point scratch pool,
        /// `f1`–`f6`).
        ft: u8,
        /// Which arena pointer.
        arena: u8,
        /// Byte displacement.
        disp: i16,
    },
    /// Floating-point store (8 bytes).
    FStore {
        /// Data source.
        ft: u8,
        /// Which arena pointer.
        arena: u8,
        /// Byte displacement.
        disp: i16,
    },
    /// Move an integer into the FP file.
    Itof {
        /// FP destination.
        fc: u8,
        /// Integer source.
        ra: u8,
    },
    /// Truncate an FP value into the integer file.
    Ftoi {
        /// Integer destination.
        rc: u8,
        /// FP source.
        fa: u8,
    },
    /// FP arithmetic.
    Fp {
        /// Operation.
        op: FpBinOp,
        /// Destination.
        fc: u8,
        /// Left source.
        fa: u8,
        /// Right source.
        fb: u8,
    },
    /// Forward conditional branch skipping up to `dist` body instructions
    /// (clamped to the body end at lowering — never skips the loop
    /// counter).
    SkipIf {
        /// Branch condition, tested against zero.
        cond: BranchCond,
        /// Tested register.
        ra: u8,
        /// Instructions to skip (1..=6 before clamping).
        dist: u8,
    },
    /// Bounded drift of an arena pointer (keeps aliasing interesting
    /// without escaping the seeded region).
    ArenaBump {
        /// Which arena pointer.
        arena: u8,
        /// Signed byte delta (±16).
        delta: i16,
    },
}

/// A generated program: a counted loop over `body`.
#[derive(Clone, PartialEq, Debug)]
pub struct GenProgram {
    /// Outer loop iterations (1..=4).
    pub iters: u8,
    /// Initial values for the integer scratch registers.
    pub int_seeds: [i16; 4],
    /// The loop body.
    pub body: Vec<GenInst>,
}

impl GenProgram {
    /// Draws a random program.
    #[must_use]
    pub fn random(rng: &mut SplitMix64) -> GenProgram {
        let iters = 1 + rng.below(4) as u8;
        let len = 8 + rng.below(33) as usize;
        let mut int_seeds = [0i16; 4];
        for s in &mut int_seeds {
            *s = rng.next_u64() as i16;
        }
        let body = (0..len).map(|_| GenInst::random(rng)).collect();
        GenProgram { iters, int_seeds, body }
    }

    /// Lowers to an executable [`Program`].
    ///
    /// Layout: arena pointers and scratch seeds, the counted loop with
    /// per-site forward-skip labels, `halt`. The arenas are pre-seeded
    /// with deterministic nonzero data so loads feed real values into the
    /// dependency chains.
    #[must_use]
    pub fn lower(&self) -> Program {
        let mut a = Asm::new();
        let words: Vec<u64> =
            (0..64u64).map(|i| 0x0101_0101_0101_0101u64.wrapping_mul(i + 1)).collect();
        a.data_u64s(ARENA0, &words);
        a.li(Reg::R1, ARENA0 as i64);
        a.li(Reg::R2, ARENA1 as i64);
        for (k, &seed) in self.int_seeds.iter().enumerate() {
            a.li(INT_POOL[k], i64::from(seed));
        }
        // Remaining scratch registers start at zero (emulator reset
        // state); FP scratch is seeded from the integers.
        a.raw(Inst::Itof { ra: INT_POOL[0], fc: FP_POOL[0] });
        a.raw(Inst::Itof { ra: INT_POOL[1], fc: FP_POOL[1] });
        a.li(Reg::R20, i64::from(self.iters));
        a.label("loop");
        for (idx, inst) in self.body.iter().enumerate() {
            a.label(format!("b{idx}"));
            inst.lower(&mut a, idx, self.body.len());
        }
        a.label(format!("b{}", self.body.len()));
        a.sub(Reg::R20, Reg::R20, 1i16);
        a.bgt(Reg::R20, "loop");
        a.halt();
        a.assemble().expect("generated programs always assemble")
    }
}

impl GenInst {
    /// Draws one random body instruction.
    #[must_use]
    pub fn random(rng: &mut SplitMix64) -> GenInst {
        let ir = |rng: &mut SplitMix64| rng.below(INT_POOL.len() as u64) as u8;
        let fr = |rng: &mut SplitMix64| rng.below(FP_POOL.len() as u64) as u8;
        let arena = |rng: &mut SplitMix64| rng.below(2) as u8;
        let disp = |rng: &mut SplitMix64| (rng.below(257) as i16) - 128;
        let width = |rng: &mut SplitMix64| match rng.below(3) {
            0 => MemWidth::Byte,
            1 => MemWidth::Long,
            _ => MemWidth::Quad,
        };
        match rng.below(16) {
            0..=3 => GenInst::AluRR {
                op: ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize],
                rc: ir(rng),
                ra: ir(rng),
                rb: ir(rng),
            },
            4..=5 => GenInst::AluRI {
                // Only the ops with a literal-form encoding (legacy set plus
                // the W-form add/shifts); the rest are register-register only.
                op: {
                    let mut op = ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize];
                    while !op.has_lit_form() {
                        op = ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize];
                    }
                    op
                },
                rc: ir(rng),
                ra: ir(rng),
                imm: (rng.below(512) as i16) - 256,
            },
            6..=8 => {
                GenInst::Load { width: width(rng), rt: ir(rng), arena: arena(rng), disp: disp(rng) }
            }
            9..=11 => GenInst::Store {
                width: width(rng),
                rt: ir(rng),
                arena: arena(rng),
                disp: disp(rng),
            },
            12 => match rng.below(4) {
                0 => GenInst::FLoad { ft: fr(rng), arena: arena(rng), disp: disp(rng) },
                1 => GenInst::FStore { ft: fr(rng), arena: arena(rng), disp: disp(rng) },
                2 => GenInst::Itof { fc: fr(rng), ra: ir(rng) },
                _ => GenInst::Ftoi { rc: ir(rng), fa: fr(rng) },
            },
            13 => GenInst::Fp {
                op: FpBinOp::ALL[rng.below(FpBinOp::ALL.len() as u64) as usize],
                fc: fr(rng),
                fa: fr(rng),
                fb: fr(rng),
            },
            14 => GenInst::SkipIf {
                cond: BranchCond::ALL[rng.below(BranchCond::ALL.len() as u64) as usize],
                ra: ir(rng),
                dist: 1 + rng.below(6) as u8,
            },
            _ => GenInst::ArenaBump { arena: arena(rng), delta: (rng.below(33) as i16) - 16 },
        }
    }

    /// Emits the instruction at body position `idx` of a `len`-long body.
    fn lower(&self, a: &mut Asm, idx: usize, len: usize) {
        match *self {
            GenInst::AluRR { op, rc, ra, rb } => {
                a.raw(Inst::Op {
                    op,
                    ra: INT_POOL[ra as usize],
                    rb: RegOrLit::Reg(INT_POOL[rb as usize]),
                    rc: INT_POOL[rc as usize],
                });
            }
            GenInst::AluRI { op, rc, ra, imm } => {
                a.raw(Inst::Op {
                    op,
                    ra: INT_POOL[ra as usize],
                    rb: RegOrLit::Lit(imm),
                    rc: INT_POOL[rc as usize],
                });
            }
            GenInst::Load { width, rt, arena, disp } => {
                a.raw(Inst::Load {
                    width,
                    rt: INT_POOL[rt as usize],
                    base: arena_reg(arena),
                    disp,
                });
            }
            GenInst::Store { width, rt, arena, disp } => {
                a.raw(Inst::Store {
                    width,
                    rt: INT_POOL[rt as usize],
                    base: arena_reg(arena),
                    disp,
                });
            }
            GenInst::FLoad { ft, arena, disp } => {
                a.raw(Inst::FLoad { ft: FP_POOL[ft as usize], base: arena_reg(arena), disp });
            }
            GenInst::FStore { ft, arena, disp } => {
                a.raw(Inst::FStore { ft: FP_POOL[ft as usize], base: arena_reg(arena), disp });
            }
            GenInst::Itof { fc, ra } => {
                a.raw(Inst::Itof { ra: INT_POOL[ra as usize], fc: FP_POOL[fc as usize] });
            }
            GenInst::Ftoi { rc, fa } => {
                a.raw(Inst::Ftoi { fa: FP_POOL[fa as usize], rc: INT_POOL[rc as usize] });
            }
            GenInst::Fp { op, fc, fa, fb } => {
                a.raw(Inst::FpOp {
                    op,
                    fa: FP_POOL[fa as usize],
                    fb: FP_POOL[fb as usize],
                    fc: FP_POOL[fc as usize],
                });
            }
            GenInst::SkipIf { cond, ra, dist } => {
                let target = (idx + 1 + dist as usize).min(len);
                let label = format!("b{target}");
                let r = INT_POOL[ra as usize];
                match cond {
                    BranchCond::Eq => a.beq(r, label),
                    BranchCond::Ne => a.bne(r, label),
                    BranchCond::Lt => a.blt(r, label),
                    BranchCond::Le => a.ble(r, label),
                    BranchCond::Gt => a.bgt(r, label),
                    BranchCond::Ge => a.bge(r, label),
                    BranchCond::Lbc => a.blbc(r, label),
                    BranchCond::Lbs => a.blbs(r, label),
                };
            }
            GenInst::ArenaBump { arena, delta } => {
                let r = arena_reg(arena);
                a.add(r, r, delta);
            }
        }
    }
}

fn arena_reg(arena: u8) -> Reg {
    if arena == 0 {
        Reg::R1
    } else {
        Reg::R2
    }
}

/// A snapshot of all 64 architectural registers plus the dynamic
/// instruction count, for cross-run comparison. Floating-point values are
/// held as raw bits so NaNs compare exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArchState {
    /// All register values (`r0..r31` then `f0..f31`), FP as raw bits.
    pub regs: [u64; 64],
    /// Dynamic instructions executed.
    pub executed: u64,
}

impl ArchState {
    /// Captures the state of an emulator.
    #[must_use]
    pub fn capture(emu: &Emulator) -> ArchState {
        let mut regs = [0u64; 64];
        for (i, slot) in regs.iter_mut().enumerate() {
            let r = if i < 32 {
                ArchReg::from(Reg::new(i as u8))
            } else {
                ArchReg::from(FReg::new((i - 32) as u8))
            };
            *slot = emu.arch_value(r);
        }
        ArchState { regs, executed: emu.executed() }
    }

    /// Describes the first difference from `other`, using `self_name` /
    /// `other_name` in the message; `None` when identical.
    #[must_use]
    pub fn first_difference(
        &self,
        other: &ArchState,
        self_name: &str,
        other_name: &str,
    ) -> Option<String> {
        if self.executed != other.executed {
            return Some(format!(
                "{self_name} executed {} instructions, {other_name} executed {}",
                self.executed, other.executed
            ));
        }
        for i in 0..64 {
            if self.regs[i] != other.regs[i] {
                let name = if i < 32 { format!("r{i}") } else { format!("f{}", i - 32) };
                return Some(format!(
                    "{name}: {self_name} holds {:#x}, {other_name} holds {:#x}",
                    self.regs[i], other.regs[i]
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_assemble_and_halt() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let g = GenProgram::random(&mut rng);
            let p = g.lower();
            let mut emu = Emulator::new(&p);
            let out = emu.run(1_000_000).expect("no emulator fault");
            assert!(
                matches!(out, hpa_core::emu::RunOutcome::Halted { .. }),
                "generated program must halt: {out:?}"
            );
        }
    }

    #[test]
    fn deletion_subsets_still_halt() {
        // The shrinker deletes arbitrary body subsets; forward-clamped
        // skips must keep every subset terminating.
        let mut rng = SplitMix64::new(11);
        let g = GenProgram::random(&mut rng);
        for mask in 0..32u64 {
            let mut sub = g.clone();
            sub.body = g
                .body
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << (i % 6)) == 0)
                .map(|(_, x)| *x)
                .collect();
            let mut emu = Emulator::new(&sub.lower());
            let out = emu.run(1_000_000).expect("no emulator fault");
            assert!(matches!(out, hpa_core::emu::RunOutcome::Halted { .. }));
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let mut rng = SplitMix64::new(3);
        let g = GenProgram::random(&mut rng);
        assert_eq!(hpa_core::asm::disassemble(&g.lower()), hpa_core::asm::disassemble(&g.lower()));
    }
}
