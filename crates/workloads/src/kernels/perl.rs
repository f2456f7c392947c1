//! `perl` stand-in: a bytecode virtual machine with an indirect-threaded
//! dispatch loop — the classic interpreter structure whose data-dependent
//! indirect jumps give perl its modest IPC in the paper's Table 2.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

// Bytecode opcodes.
const OP_PUSH: u8 = 0; // push imm8
const OP_ADD: u8 = 1;
const OP_SUB: u8 = 2;
const OP_MUL: u8 = 3;
const OP_DUP: u8 = 4;
const OP_SWAP: u8 = 5;
const OP_LOAD: u8 = 6; // push locals[imm8]
const OP_STORE: u8 = 7; // locals[imm8] = pop
const OP_JNZ: u8 = 8; // pop; if != 0: ip += imm8 (signed)
const OP_END: u8 = 9;
const NUM_OPS: u64 = 10;

/// Each interpreted program occupies a fixed 32-byte slot.
const PROG_BYTES: u64 = 32;

const R_IP: Reg = Reg::R1;
const R_SP: Reg = Reg::R2; // operand stack pointer, grows up
const R_LOCALS: Reg = Reg::R3;
const R_JT: Reg = Reg::R4;
const R_OP: Reg = Reg::R5;
const R_A: Reg = Reg::R6;
const R_B: Reg = Reg::R7;
const R_ADDR: Reg = Reg::R8;
const R_TMP: Reg = Reg::R9;
const R_PROG: Reg = Reg::R12; // current program base
const R_PEND: Reg = Reg::R13;
const R_IMM: Reg = Reg::R14;

/// One interpreted program: a countdown loop updating two locals.
/// `acc = acc * 3 + i` per iteration, `i` counting down from `n`.
fn make_program(n: u8, seed: u8) -> Vec<u8> {
    let body = vec![
        OP_PUSH,
        n,
        OP_STORE,
        0, // i = n
        OP_PUSH,
        seed,
        OP_STORE,
        1, // acc = seed
        // loop:
        OP_LOAD,
        1,
        OP_PUSH,
        3,
        OP_MUL,
        OP_LOAD,
        0,
        OP_ADD,
        OP_STORE,
        1,
        OP_LOAD,
        0,
        OP_PUSH,
        1,
        OP_SUB,
        OP_DUP,
        OP_STORE,
        0,
        OP_JNZ,
        0x100u16.wrapping_sub(20) as u8, // -20: back to loop
        OP_END,
    ];
    assert!(body.len() <= PROG_BYTES as usize);
    let mut p = body;
    p.resize(PROG_BYTES as usize, OP_END);
    p
}

fn generate_programs(count: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0x9E21);
    let mut out = Vec::new();
    for _ in 0..count {
        let n = 40 + (rng.below(200) as u8);
        let seed = rng.byte();
        out.extend_from_slice(&make_program(n, seed));
    }
    out
}

/// Host-side reference interpreter.
fn reference(programs: &[u8]) -> u64 {
    let mut cs = Checksum::default();
    let mut base = 0usize;
    while base < programs.len() {
        let mut ip = base;
        let mut stack: Vec<u64> = Vec::new();
        let mut locals = [0u64; 4];
        loop {
            let op = programs[ip];
            ip += 1;
            match op {
                OP_PUSH => {
                    stack.push(u64::from(programs[ip]));
                    ip += 1;
                }
                OP_ADD | OP_SUB | OP_MUL => {
                    let b = stack.pop().expect("b");
                    let a = stack.pop().expect("a");
                    stack.push(match op {
                        OP_ADD => a.wrapping_add(b),
                        OP_SUB => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    });
                }
                OP_DUP => {
                    let a = *stack.last().expect("top");
                    stack.push(a);
                }
                OP_SWAP => {
                    let n = stack.len();
                    stack.swap(n - 1, n - 2);
                }
                OP_LOAD => {
                    stack.push(locals[programs[ip] as usize]);
                    ip += 1;
                }
                OP_STORE => {
                    locals[programs[ip] as usize] = stack.pop().expect("value");
                    ip += 1;
                }
                OP_JNZ => {
                    let off = programs[ip] as i8;
                    ip += 1;
                    if stack.pop().expect("cond") != 0 {
                        ip = (ip as i64 + i64::from(off)) as usize;
                    }
                }
                OP_END => break,
                _ => unreachable!("generator emits valid opcodes"),
            }
        }
        cs.mix(locals[1]);
        base += PROG_BYTES as usize;
    }
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let count = 8 * scale.factor(8) as usize;
    let programs = generate_programs(count);
    let expected = reference(&programs);

    let mut regions = Regions::new();
    let prog_base = regions.alloc(programs.len() as u64);
    let jt_base = regions.alloc(NUM_OPS * 8); // the stack and locals follow
    let stack_base = jt_base + NUM_OPS * 8;
    let locals_base = stack_base + (16 << 10);

    let mut a = Asm::new();
    a.data_bytes(prog_base, &programs);

    // Build the dispatch table at runtime with la/stq.
    a.li(R_JT, jt_base as i64);
    for (i, handler) in [
        "h_push", "h_add", "h_sub", "h_mul", "h_dup", "h_swap", "h_load", "h_store", "h_jnz",
        "h_end",
    ]
    .iter()
    .enumerate()
    {
        a.la(R_TMP, *handler);
        a.stq(R_TMP, R_JT, (i * 8) as i16);
    }

    a.li(R_PROG, prog_base as i64);
    a.li(R_PEND, (prog_base + programs.len() as u64) as i64);
    a.li(R_LOCALS, locals_base as i64);
    a.li(CHECKSUM_REG, 0);

    a.label("newprog");
    a.mov(R_IP, R_PROG);
    a.li(R_SP, stack_base as i64);
    // Clear locals.
    a.stq(Reg::R31, R_LOCALS, 0);
    a.stq(Reg::R31, R_LOCALS, 8);
    a.stq(Reg::R31, R_LOCALS, 16);
    a.stq(Reg::R31, R_LOCALS, 24);

    a.label("dispatch");
    emit_align(&mut a, 1);
    a.ldbu(R_OP, R_IP, 0);
    a.add(R_IP, R_IP, 1);
    a.s8add(R_ADDR, R_OP, R_JT);
    a.ldq(R_ADDR, R_ADDR, 0);
    a.jmp(R_ADDR);

    a.label("h_push");
    a.ldbu(R_IMM, R_IP, 0);
    a.add(R_IP, R_IP, 1);
    a.stq(R_IMM, R_SP, 0);
    a.add(R_SP, R_SP, 8);
    a.br("dispatch");

    for (label, is_mul) in [("h_add", false), ("h_sub", false), ("h_mul", true)] {
        a.label(label);
        a.ldq(R_B, R_SP, -8);
        a.ldq(R_A, R_SP, -16);
        a.sub(R_SP, R_SP, 8);
        match label {
            "h_add" => a.add(R_A, R_A, R_B),
            "h_sub" => a.sub(R_A, R_A, R_B),
            _ => a.mul(R_A, R_A, R_B),
        };
        let _ = is_mul;
        a.stq(R_A, R_SP, -8);
        a.br("dispatch");
    }

    a.label("h_dup");
    a.ldq(R_A, R_SP, -8);
    a.stq(R_A, R_SP, 0);
    a.add(R_SP, R_SP, 8);
    a.br("dispatch");

    a.label("h_swap");
    a.ldq(R_A, R_SP, -8);
    a.ldq(R_B, R_SP, -16);
    a.stq(R_B, R_SP, -8);
    a.stq(R_A, R_SP, -16);
    a.br("dispatch");

    a.label("h_load");
    a.ldbu(R_IMM, R_IP, 0);
    a.add(R_IP, R_IP, 1);
    a.s8add(R_ADDR, R_IMM, R_LOCALS);
    a.ldq(R_A, R_ADDR, 0);
    a.stq(R_A, R_SP, 0);
    a.add(R_SP, R_SP, 8);
    a.br("dispatch");

    a.label("h_store");
    a.ldbu(R_IMM, R_IP, 0);
    a.add(R_IP, R_IP, 1);
    a.sub(R_SP, R_SP, 8);
    a.ldq(R_A, R_SP, 0);
    a.s8add(R_ADDR, R_IMM, R_LOCALS);
    a.stq(R_A, R_ADDR, 0);
    a.br("dispatch");

    a.label("h_jnz");
    a.ldbu(R_IMM, R_IP, 0);
    a.add(R_IP, R_IP, 1);
    a.sextb(R_IMM, R_IMM); // signed offset
    a.sub(R_SP, R_SP, 8);
    a.ldq(R_A, R_SP, 0);
    a.beq(R_A, "dispatch");
    a.add(R_IP, R_IP, R_IMM);
    a.br("dispatch");

    a.label("h_end");
    a.ldq(R_A, R_LOCALS, 8);
    emit_mix(&mut a, R_A);
    a.add(R_PROG, R_PROG, PROG_BYTES as i32);
    a.cmpult(R_TMP, R_PROG, R_PEND);
    a.bne(R_TMP, "newprog");
    a.halt();

    Workload {
        name: "perl",
        description: "bytecode VM with indirect-threaded dispatch (interpreter loop)",
        program: a.assemble().expect("perl kernel assembles"),
        expected_checksum: expected,
        budget: 40_000 * count as u64 + 50_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_runs_the_countdown() {
        // n=2, seed=5: acc = 5; i=2: acc=17; i=1: acc=52; halt.
        let p = make_program(2, 5);
        let mut cs = Checksum::default();
        cs.mix(52);
        assert_eq!(reference(&p), cs.0);
    }

    #[test]
    fn jnz_offset_is_negative_twenty() {
        let p = make_program(3, 0);
        let jnz_pos = p.iter().position(|&b| b == OP_JNZ).unwrap();
        assert_eq!(p[jnz_pos + 1] as i8, -20);
    }
}
