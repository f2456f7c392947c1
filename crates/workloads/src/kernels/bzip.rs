//! `bzip` stand-in: run-length coding of a move-to-front transform,
//! the core symbol-ranking step of the bzip2 pipeline.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const R_P: Reg = Reg::R1; // input cursor
const R_END: Reg = Reg::R2;
const R_TBL: Reg = Reg::R3; // MTF table base
const R_B: Reg = Reg::R4; // current input byte
const R_I: Reg = Reg::R5; // MTF rank
const R_T: Reg = Reg::R6; // table byte
const R_PREV: Reg = Reg::R7; // previous rank (RLE state)
const R_RUN: Reg = Reg::R8; // current run length
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_J: Reg = Reg::R12;

/// Generates a run-heavy input over a 16-symbol alphabet.
fn generate_input(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0xB21F);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        // Bias toward few symbols (min of two draws) and runs of 1–8.
        let sym = rng.below(16).min(rng.below(16)) as u8;
        let run = 1 + rng.below(8) as usize;
        for _ in 0..run.min(len - out.len()) {
            out.push(sym);
        }
    }
    out
}

/// Host-side reference: MTF + RLE checksum.
fn reference(input: &[u8]) -> u64 {
    let mut tbl: Vec<u8> = (0..=255).collect();
    let mut cs = Checksum::default();
    let mut prev: i64 = -1;
    let mut run: u64 = 0;
    for &b in input {
        let i = tbl.iter().position(|&x| x == b).expect("byte in table");
        tbl[..=i].rotate_right(1);
        if i as i64 == prev {
            run += 1;
        } else {
            if run > 0 {
                cs.mix(prev as u64);
                cs.mix(run);
            }
            prev = i as i64;
            run = 1;
        }
    }
    cs.mix(prev as u64);
    cs.mix(run);
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let len = 2048 * scale.factor(8) as usize;
    let input = generate_input(len);
    let expected = reference(&input);

    let mut regions = Regions::new();
    let in_base = regions.alloc(len as u64 + 256); // the 256-byte MTF table follows
    let tbl = in_base + len as u64;
    let mut a = Asm::new();
    a.data_bytes(in_base, &input);

    // Initialize the MTF table to the identity permutation.
    a.li(R_TBL, tbl as i64);
    a.li(R_I, 0);
    a.label("init");
    a.add(R_ADDR, R_TBL, R_I);
    a.stb(R_I, R_ADDR, 0);
    a.add(R_I, R_I, 1);
    a.cmplt(R_TMP, R_I, 256);
    a.bne(R_TMP, "init");

    a.li(R_P, in_base as i64);
    a.li(R_END, tbl as i64);
    a.li(R_PREV, -1);
    a.li(R_RUN, 0);
    a.li(CHECKSUM_REG, 0);

    a.label("outer");
    emit_align(&mut a, 1);
    a.ldbu(R_B, R_P, 0);
    // Linear scan for the byte's current rank.
    a.li(R_I, 0);
    a.label("scan");
    a.add(R_ADDR, R_TBL, R_I);
    a.ldbu(R_T, R_ADDR, 0);
    a.sub(R_TMP, R_T, R_B);
    a.beq(R_TMP, "found");
    a.add(R_I, R_I, 1);
    a.br("scan");

    a.label("found");
    // Shift tbl[0..rank) up one slot, then install the byte at the front.
    a.mov(R_J, R_I);
    a.label("shift");
    a.ble(R_J, "shiftdone");
    a.add(R_ADDR, R_TBL, R_J);
    a.ldbu(R_T, R_ADDR, -1);
    a.stb(R_T, R_ADDR, 0);
    a.sub(R_J, R_J, 1);
    a.br("shift");
    a.label("shiftdone");
    a.stb(R_B, R_TBL, 0);

    // RLE over the rank stream.
    a.sub(R_TMP, R_I, R_PREV);
    a.bne(R_TMP, "newsym");
    a.add(R_RUN, R_RUN, 1);
    a.br("next");
    a.label("newsym");
    a.ble(R_RUN, "skipmix");
    emit_mix(&mut a, R_PREV);
    emit_mix(&mut a, R_RUN);
    a.label("skipmix");
    a.mov(R_PREV, R_I);
    a.li(R_RUN, 1);

    a.label("next");
    a.add(R_P, R_P, 1);
    a.cmpult(R_TMP, R_P, R_END);
    a.bne(R_TMP, "outer");

    // Flush the final run.
    emit_mix(&mut a, R_PREV);
    emit_mix(&mut a, R_RUN);
    a.halt();

    regions.seal(Workload {
        name: "bzip",
        description: "move-to-front transform + run-length coding (bzip2 symbol ranking)",
        program: a.assemble().expect("bzip kernel assembles"),
        expected_checksum: expected,
        budget: 300 * len as u64 + 10_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_rle_basics() {
        // Input "aaab" over rank stream: a->rank of 'a', then 0,0, then 'b'.
        let cs = reference(&[5, 5, 5, 6]);
        // Hand-compute: tbl identity. b=5 -> i=5; runs: (5,1) then (0,2)
        // for the two repeats (rank 0), then b=6 -> i=6 (6 shifted? after
        // MTF of 5, table = [5,0,1,2,3,4,6,...], so 6 is at rank 6).
        let mut c = Checksum::default();
        c.mix(5);
        c.mix(1);
        c.mix(0);
        c.mix(2);
        c.mix(6);
        c.mix(1);
        assert_eq!(cs, c.0);
    }

    #[test]
    fn input_is_deterministic() {
        assert_eq!(generate_input(64), generate_input(64));
    }
}
