//! `gcc` stand-in: tokenizing and evaluating arithmetic expressions with a
//! precedence (shunting-yard) evaluator — compiler front-end style
//! byte-dispatch and stack manipulation.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const R_P: Reg = Reg::R1; // input cursor
const R_C: Reg = Reg::R2; // current character
const R_VSP: Reg = Reg::R3; // value stack pointer (grows up, 8B slots)
const R_OSP: Reg = Reg::R4; // operator stack pointer (grows up, 1B slots)
const R_VA: Reg = Reg::R5; // operand a
const R_VB: Reg = Reg::R6; // operand b
const R_OP: Reg = Reg::R7; // operator byte
const R_TMP: Reg = Reg::R8;
const R_TMP2: Reg = Reg::R9;
const R_EXPRS: Reg = Reg::R12; // remaining expression count

/// Generates one random expression with single-digit literals, `+`, `*`
/// and balanced parentheses, terminated by `=`.
fn generate_expr(rng: &mut SplitMix64, len_budget: usize, out: &mut Vec<u8>) {
    // term := digit | '(' expr ')' ; expr := term (op term)*
    fn term(rng: &mut SplitMix64, depth: usize, budget: &mut isize, out: &mut Vec<u8>) {
        if depth < 4 && *budget > 8 && rng.below(4) == 0 {
            out.push(b'(');
            *budget -= 2;
            expr(rng, depth + 1, budget, out);
            out.push(b')');
        } else {
            out.push(b'0' + rng.below(10) as u8);
            *budget -= 1;
        }
    }
    fn expr(rng: &mut SplitMix64, depth: usize, budget: &mut isize, out: &mut Vec<u8>) {
        term(rng, depth, budget, out);
        while *budget > 2 && rng.below(3) != 0 {
            out.push(if rng.below(2) == 0 { b'+' } else { b'*' });
            *budget -= 1;
            term(rng, depth, budget, out);
        }
    }
    let mut budget = len_budget as isize;
    expr(rng, 0, &mut budget, out);
    out.push(b'=');
}

fn precedence(op: u8) -> u8 {
    match op {
        b'*' => 2,
        b'+' => 1,
        _ => 0, // '('
    }
}

fn apply(op: u8, a: u64, b: u64) -> u64 {
    match op {
        b'*' => a.wrapping_mul(b),
        _ => a.wrapping_add(b),
    }
}

/// Host-side reference evaluator over the whole input stream.
fn reference(input: &[u8]) -> u64 {
    let mut cs = Checksum::default();
    let mut vals: Vec<u64> = Vec::new();
    let mut ops: Vec<u8> = Vec::new();
    let pop_apply = |vals: &mut Vec<u64>, ops: &mut Vec<u8>| {
        let op = ops.pop().expect("op");
        let b = vals.pop().expect("b");
        let a = vals.pop().expect("a");
        vals.push(apply(op, a, b));
    };
    for &c in input {
        match c {
            b'0'..=b'9' => vals.push(u64::from(c - b'0')),
            b'(' => ops.push(c),
            b')' => {
                while *ops.last().expect("matching paren") != b'(' {
                    pop_apply(&mut vals, &mut ops);
                }
                ops.pop();
            }
            b'+' | b'*' => {
                while ops.last().is_some_and(|&top| precedence(top) >= precedence(c)) {
                    pop_apply(&mut vals, &mut ops);
                }
                ops.push(c);
            }
            b'=' => {
                while !ops.is_empty() {
                    pop_apply(&mut vals, &mut ops);
                }
                cs.mix(vals.pop().expect("result"));
                assert!(vals.is_empty());
            }
            _ => unreachable!("generator emits only expression bytes"),
        }
    }
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let expr_count = 96 * scale.factor(8);
    let mut rng = SplitMix64::new(0x6CC0);
    let mut input = Vec::new();
    for _ in 0..expr_count {
        generate_expr(&mut rng, 48, &mut input);
    }
    let expected = reference(&input);

    let mut regions = Regions::new();
    let text = regions.alloc(input.len() as u64);
    let vstack = regions.alloc(128 << 10); // value stack arena
    let ostack = vstack + (64 << 10); // operator stack arena

    let mut a = Asm::new();
    a.data_bytes(text, &input);

    a.li(R_P, text as i64);
    a.li(R_EXPRS, expr_count as i64);
    a.li(R_VSP, vstack as i64);
    a.li(R_OSP, ostack as i64);
    a.li(CHECKSUM_REG, 0);

    a.label("next");
    emit_align(&mut a, 1);
    a.ldbu(R_C, R_P, 0);
    a.add(R_P, R_P, 1);
    // Digit?
    a.sub(R_TMP, R_C, i32::from(b'0'));
    a.blt(R_TMP, "notdigit");
    a.cmple(R_TMP2, R_TMP, 9);
    a.beq(R_TMP2, "notdigit");
    // push value (R_TMP holds c - '0')
    a.stq(R_TMP, R_VSP, 0);
    a.add(R_VSP, R_VSP, 8);
    a.br("next");

    a.label("notdigit");
    a.sub(R_TMP, R_C, i32::from(b'('));
    a.bne(R_TMP, "notopen");
    a.stb(R_C, R_OSP, 0);
    a.add(R_OSP, R_OSP, 1);
    a.br("next");

    a.label("notopen");
    a.sub(R_TMP, R_C, i32::from(b')'));
    a.bne(R_TMP, "notclose");
    a.label("drain_paren");
    a.ldbu(R_OP, R_OSP, -1);
    a.sub(R_TMP, R_OP, i32::from(b'('));
    a.beq(R_TMP, "pop_paren");
    a.bsr(Reg::R26, "apply");
    a.br("drain_paren");
    a.label("pop_paren");
    a.sub(R_OSP, R_OSP, 1);
    a.br("next");

    a.label("notclose");
    a.sub(R_TMP, R_C, i32::from(b'='));
    a.bne(R_TMP, "operator");
    // '=': drain all ops, mix the result.
    a.label("drain_all");
    a.li(R_TMP, ostack as i64);
    a.cmpule(R_TMP2, R_OSP, R_TMP);
    a.bne(R_TMP2, "expr_done");
    a.bsr(Reg::R26, "apply");
    a.br("drain_all");
    a.label("expr_done");
    a.sub(R_VSP, R_VSP, 8);
    a.ldq(R_VA, R_VSP, 0);
    emit_mix(&mut a, R_VA);
    a.sub(R_EXPRS, R_EXPRS, 1);
    a.bgt(R_EXPRS, "next");
    a.halt();

    // '+' or '*': pop while top precedence >= this precedence.
    a.label("operator");
    // prec(c): '*' -> 2, '+' -> 1 (R_TMP2).
    a.sub(R_TMP, R_C, i32::from(b'*'));
    a.li(R_TMP2, 1);
    a.bne(R_TMP, "prec_done");
    a.li(R_TMP2, 2);
    a.label("prec_done");
    a.label("drain_prec");
    a.li(R_TMP, ostack as i64);
    a.cmpule(R_TMP, R_OSP, R_TMP);
    a.bne(R_TMP, "push_op");
    a.ldbu(R_OP, R_OSP, -1);
    // prec(top) in R_TMP: '(' -> 0, '+' -> 1, '*' -> 2
    a.sub(R_TMP, R_OP, i32::from(b'('));
    a.beq(R_TMP, "push_op");
    a.sub(R_TMP, R_OP, i32::from(b'*'));
    a.beq(R_TMP, "top_is_mul");
    a.li(R_TMP, 1);
    a.br("cmp_prec");
    a.label("top_is_mul");
    a.li(R_TMP, 2);
    a.label("cmp_prec");
    a.cmplt(R_TMP, R_TMP, R_TMP2); // top < new ?
    a.bne(R_TMP, "push_op");
    a.bsr(Reg::R26, "apply");
    a.br("drain_prec");
    a.label("push_op");
    a.stb(R_C, R_OSP, 0);
    a.add(R_OSP, R_OSP, 1);
    a.br("next");

    // apply: pop op and two values, push result. Clobbers R_OP, R_VA,
    // R_VB, R_TMP.
    a.label("apply");
    a.sub(R_OSP, R_OSP, 1);
    a.ldbu(R_OP, R_OSP, 0);
    a.sub(R_VSP, R_VSP, 8);
    a.ldq(R_VB, R_VSP, 0);
    a.ldq(R_VA, R_VSP, -8);
    a.sub(R_TMP, R_OP, i32::from(b'*'));
    a.bne(R_TMP, "apply_add");
    a.mul(R_VA, R_VA, R_VB);
    a.br("apply_store");
    a.label("apply_add");
    a.add(R_VA, R_VA, R_VB);
    a.label("apply_store");
    a.stq(R_VA, R_VSP, -8);
    a.ret(Reg::R26);

    Workload {
        name: "gcc",
        description: "expression tokenizer + shunting-yard evaluator (compiler front end)",
        program: a.assemble().expect("gcc kernel assembles"),
        expected_checksum: expected,
        budget: 400 * input.len() as u64 + 10_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_respects_precedence() {
        assert_eq!(reference(b"2+3*4="), Checksum::default().0 * 31 + 14);
        let mut cs = Checksum::default();
        cs.mix(20);
        assert_eq!(reference(b"(2+3)*4="), cs.0);
    }

    #[test]
    fn generator_emits_balanced_expressions() {
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        for _ in 0..50 {
            generate_expr(&mut rng, 48, &mut out);
        }
        let mut depth = 0i32;
        for &c in &out {
            match c {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        // Reference evaluates without panicking.
        let _ = reference(&out);
    }
}
