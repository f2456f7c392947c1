//! `gap` stand-in: multi-limb (bignum) multiply-accumulate with carry
//! propagation plus a Euclid GCD phase — the arithmetic core of a
//! computational group-theory system.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const M32: u64 = 0xFFFF_FFFF;
const LCG_MUL: i64 = 1_103_515_245;
const LCG_ADD: i64 = 12_345;

// Register map (phase 1). The accumulator itself lives in memory —
// GAP's bignums are memory-resident — and is loaded/updated/stored limb
// by limb each iteration.
const R_S: Reg = Reg::R1; // 32-bit LCG scalar
const R_LCGM: Reg = Reg::R2; // LCG multiplier constant
const R_M32: Reg = Reg::R3; // 32-bit mask
const R_P: Reg = Reg::R4; // partial product
const R_CARRY: Reg = Reg::R5;
const R_N: Reg = Reg::R6; // loop counter
const R_ACCB: Reg = Reg::R18; // accumulator base address
const R_L: Reg = Reg::R19; // limb loaded from memory
const R_A: [Reg; 4] = [Reg::R14, Reg::R15, Reg::R16, Reg::R17];

// Register map (phase 2).
const R_X: Reg = Reg::R7;
const R_Y: Reg = Reg::R8;
const R_T: Reg = Reg::R9;
const R_STATE: Reg = Reg::R12; // xorshift state
const R_K: Reg = Reg::R13;
const R_TMP: Reg = Reg::R11;

const A_INIT: [u64; 4] = [0x89AB_CDEF, 0x0123_4567, 0xDEAD_BEEF, 0x0BAD_F00D];

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn reference(mac_iters: u64, gcd_pairs: u64) -> u64 {
    // Phase 1: acc += A * s for a stream of 32-bit scalars.
    let mut s: u64 = 1;
    let mut acc = [0u64; 8];
    for _ in 0..mac_iters {
        s = (s.wrapping_mul(LCG_MUL as u64).wrapping_add(LCG_ADD as u64)) & M32;
        let mut carry = 0u64;
        for i in 0..4 {
            let p = A_INIT[i] * s + acc[i] + carry;
            acc[i] = p & M32;
            carry = p >> 32;
        }
        for limb in acc.iter_mut().skip(4) {
            let p = *limb + carry;
            *limb = p & M32;
            carry = p >> 32;
        }
    }
    let mut cs = Checksum::default();
    for limb in acc {
        cs.mix(limb);
    }
    // Phase 2: GCDs of pseudo-random 63-bit pairs.
    let mut state: u64 = 0x6A09_E667_F3BC_C908;
    for _ in 0..gcd_pairs {
        state = xorshift(state);
        let mut x = state >> 1;
        state = xorshift(state);
        let mut y = state >> 1;
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        cs.mix(x);
    }
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let mac_iters = 2048 * scale.factor(8);
    let gcd_pairs = 24 * scale.factor(8);
    let expected = reference(mac_iters, gcd_pairs);

    let mut regions = Regions::new();
    let acc_base = regions.alloc(8 * 8); // 8 zero-initialized limbs
    let mut a = Asm::new();
    a.li(R_S, 1);
    a.li(R_LCGM, LCG_MUL);
    a.li(R_M32, M32 as i64);
    a.li(R_N, mac_iters as i64);
    a.li(R_ACCB, acc_base as i64);
    for (i, &r) in R_A.iter().enumerate() {
        a.li(r, A_INIT[i] as i64);
    }

    a.label("mac");
    emit_align(&mut a, 1);
    // s = (s * 1103515245 + 12345) & 0xFFFFFFFF
    a.mul(R_S, R_S, R_LCGM);
    a.add(R_S, R_S, LCG_ADD as i32);
    a.and_(R_S, R_S, R_M32);
    // Multiply-accumulate across the four A limbs (read-modify-write the
    // memory-resident accumulator, as GAP's kernels do).
    a.li(R_CARRY, 0);
    for i in 0..4i16 {
        a.ldq(R_L, R_ACCB, 8 * i);
        a.mul(R_P, R_A[i as usize], R_S);
        a.add(R_P, R_P, R_L);
        a.add(R_P, R_P, R_CARRY);
        a.and_(R_L, R_P, R_M32);
        a.stq(R_L, R_ACCB, 8 * i);
        a.srl(R_CARRY, R_P, 32);
    }
    // Carry propagation through the upper limbs.
    for i in 4..8i16 {
        a.ldq(R_L, R_ACCB, 8 * i);
        a.add(R_P, R_L, R_CARRY);
        a.and_(R_L, R_P, R_M32);
        a.stq(R_L, R_ACCB, 8 * i);
        a.srl(R_CARRY, R_P, 32);
    }
    a.sub(R_N, R_N, 1);
    a.bgt(R_N, "mac");

    a.li(CHECKSUM_REG, 0);
    for i in 0..8i16 {
        a.ldq(R_L, R_ACCB, 8 * i);
        emit_mix(&mut a, R_L);
    }

    // Phase 2: Euclid with the 20-cycle divide unit.
    a.li(R_STATE, 0x6A09_E667_F3BC_C908u64 as i64);
    a.li(R_K, gcd_pairs as i64);
    a.label("pair");
    for reg in [R_X, R_Y] {
        // xorshift64 step into R_STATE, then take 63 bits.
        a.sll(R_TMP, R_STATE, 13);
        a.xor(R_STATE, R_STATE, R_TMP);
        a.srl(R_TMP, R_STATE, 7);
        a.xor(R_STATE, R_STATE, R_TMP);
        a.sll(R_TMP, R_STATE, 17);
        a.xor(R_STATE, R_STATE, R_TMP);
        a.srl(reg, R_STATE, 1);
    }
    a.label("euclid");
    a.beq(R_Y, "gcddone");
    a.rem(R_T, R_X, R_Y);
    a.mov(R_X, R_Y);
    a.mov(R_Y, R_T);
    a.br("euclid");
    a.label("gcddone");
    emit_mix(&mut a, R_X);
    a.sub(R_K, R_K, 1);
    a.bgt(R_K, "pair");
    a.halt();

    regions.seal(Workload {
        name: "gap",
        description: "multi-limb multiply-accumulate + Euclid GCD (bignum arithmetic)",
        program: a.assemble().expect("gap kernel assembles"),
        expected_checksum: expected,
        budget: 80 * mac_iters + 800 * gcd_pairs + 10_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_carries_propagate() {
        // One MAC iteration by hand: s1 = (1103515245 + 12345) & M32.
        let s = (LCG_MUL as u64 + LCG_ADD as u64) & M32;
        let p0 = A_INIT[0] * s;
        let mut cs_limb0 = p0 & M32;
        let _ = &mut cs_limb0;
        let r = reference(1, 0);
        // The full checksum mixes all 8 limbs; just pin the first limb's
        // contribution by recomputing the whole thing independently.
        let mut acc = [0u64; 8];
        let mut carry = 0;
        for i in 0..4 {
            let p = A_INIT[i] * s + acc[i] + carry;
            acc[i] = p & M32;
            carry = p >> 32;
        }
        for limb in acc.iter_mut().skip(4) {
            let p = *limb + carry;
            *limb = p & M32;
            carry = p >> 32;
        }
        let mut cs = Checksum::default();
        for limb in acc {
            cs.mix(limb);
        }
        assert_eq!(r, cs.0);
    }

    #[test]
    fn xorshift_is_nonzero_and_varies() {
        let a = xorshift(1);
        let b = xorshift(a);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
