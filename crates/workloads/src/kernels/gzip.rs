//! `gzip` stand-in: greedy LZ77 string matching with a hash head table —
//! the deflate match-finder inner loop.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const HASH_ENTRIES: u64 = 1024;
const MAX_MATCH: u64 = 16;
const MAX_DIST: u64 = 4096;
const HASH_MUL: i64 = 0x9E37_79B1; // Fibonacci hashing constant

const R_I: Reg = Reg::R1;
const R_N: Reg = Reg::R2; // input length minus 3 (last hashable position)
const R_IN: Reg = Reg::R3;
const R_HEAD: Reg = Reg::R4;
const R_H: Reg = Reg::R5;
const R_CAND: Reg = Reg::R6;
const R_LEN: Reg = Reg::R7;
const R_LIMIT: Reg = Reg::R8;
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_DIST: Reg = Reg::R12;
const R_MUL: Reg = Reg::R13;
const R_B: Reg = Reg::R14;
const R_B2: Reg = Reg::R15;
const R_NFULL: Reg = Reg::R16; // full input length
const R_M24: Reg = Reg::R17; // 0xFFFFFF hash mask
const R_BITBUF: Reg = Reg::R18; // pending output bits
const R_BITCNT: Reg = Reg::R19;
const R_OUTP: Reg = Reg::R20; // output byte cursor
const R_EV: Reg = Reg::R21; // value passed to emitbits

fn generate_input(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0x621F);
    let mut out: Vec<u8> = (0..64).map(|_| rng.byte() % 32 + b'a').collect();
    while out.len() < len {
        if rng.below(4) == 0 || out.len() < 32 {
            out.push(rng.byte() % 32 + b'a');
        } else {
            let copy_len = (4 + rng.below(17)) as usize;
            let start = rng.below((out.len() - copy_len.min(out.len() - 1)) as u64) as usize;
            for k in 0..copy_len.min(len - out.len()) {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    out.truncate(len);
    out
}

fn hash3(b0: u8, b1: u8, b2: u8) -> u64 {
    let key = u64::from(b0) | (u64::from(b1) << 8) | (u64::from(b2) << 16);
    (key.wrapping_mul(HASH_MUL as u64) >> 16) & (HASH_ENTRIES - 1)
}

/// Mirrors the kernel's `emitbits` routine: appends the low 10 bits of
/// every emitted symbol to a bit stream flushed 32 bits at a time.
#[derive(Default)]
struct BitPacker {
    bitbuf: u64,
    bitcnt: u64,
    out_bytes: u64,
}

impl BitPacker {
    fn emit(&mut self, value: u64) {
        self.bitbuf |= (value & 1023) << self.bitcnt;
        self.bitcnt += 10;
        if self.bitcnt >= 32 {
            self.out_bytes += 4;
            self.bitbuf >>= 32;
            self.bitcnt -= 32;
        }
    }
}

fn reference(input: &[u8]) -> u64 {
    let mut cs = Checksum::default();
    let mut packer = BitPacker::default();
    let mut head = vec![0u64; HASH_ENTRIES as usize]; // position + 1; 0 = empty
    let n = input.len() as u64;
    let mut i = 0u64;
    while i + 3 <= n {
        let h = hash3(input[i as usize], input[i as usize + 1], input[i as usize + 2]);
        let cand = head[h as usize];
        head[h as usize] = i + 1;
        if cand != 0 && i + 1 - cand <= MAX_DIST {
            let cand = cand - 1;
            let limit = MAX_MATCH.min(n - i);
            let mut len = 0u64;
            while len < limit && input[(cand + len) as usize] == input[(i + len) as usize] {
                len += 1;
            }
            if len >= 3 {
                cs.mix(1000 + (i - cand));
                cs.mix(len);
                packer.emit(1000 + (i - cand));
                packer.emit(len);
                i += len;
                continue;
            }
        }
        cs.mix(u64::from(input[i as usize]));
        packer.emit(u64::from(input[i as usize]));
        i += 1;
    }
    while i < n {
        cs.mix(u64::from(input[i as usize]));
        packer.emit(u64::from(input[i as usize]));
        i += 1;
    }
    cs.mix(packer.out_bytes);
    cs.mix(packer.bitcnt);
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let len = 8192 * scale.factor(8) as usize;
    let input = generate_input(len);
    let expected = reference(&input);

    let mut regions = Regions::new();
    let in_base = regions.alloc(len as u64);
    let head_base = regions.alloc(HASH_ENTRIES * 8);
    let out_base = regions.alloc(len as u64);

    let mut a = Asm::new();
    a.data_bytes(in_base, &input);

    a.li(R_IN, in_base as i64);
    a.li(R_HEAD, head_base as i64);
    a.li(R_MUL, HASH_MUL);
    a.li(R_M24, 0xFF_FFFF);
    a.li(R_I, 0);
    a.li(R_NFULL, len as i64);
    a.li(R_N, len as i64 - 3);
    a.li(R_BITBUF, 0);
    a.li(R_BITCNT, 0);
    a.li(R_OUTP, out_base as i64);
    a.li(CHECKSUM_REG, 0);
    a.br("main");

    // emitbits: append the low 10 bits of R_EV to the output bit stream,
    // flushing 32 bits at a time (deflate's send_bits).
    a.label("emitbits");
    a.and_(R_EV, R_EV, 1023);
    a.sll(R_EV, R_EV, R_BITCNT);
    a.or_(R_BITBUF, R_BITBUF, R_EV);
    a.add(R_BITCNT, R_BITCNT, 10);
    a.cmplt(R_EV, R_BITCNT, 32);
    a.bne(R_EV, "emit_ret");
    a.stl(R_BITBUF, R_OUTP, 0);
    a.add(R_OUTP, R_OUTP, 4);
    a.srl(R_BITBUF, R_BITBUF, 32);
    a.sub(R_BITCNT, R_BITCNT, 32);
    a.label("emit_ret");
    a.ret(Reg::R26);

    a.label("main");
    emit_align(&mut a, 1);
    a.cmplt(R_TMP, R_N, R_I); // n-3 < i  <=>  i+3 > n
    a.bne(R_TMP, "tail");
    // h = ((3 low bytes of a 32-bit read) * HASH_MUL >> 16) & 1023 —
    // one unaligned word read, like zlib's UPDATE_HASH.
    a.add(R_ADDR, R_IN, R_I);
    a.ldl(R_B, R_ADDR, 0);
    a.and_(R_B, R_B, R_M24);
    a.mul(R_B, R_B, R_MUL);
    a.srl(R_B, R_B, 16);
    a.and_(R_H, R_B, (HASH_ENTRIES - 1) as i32);
    // cand = head[h]; head[h] = i + 1
    a.s8add(R_ADDR, R_H, R_HEAD);
    a.ldq(R_CAND, R_ADDR, 0);
    a.add(R_TMP, R_I, 1);
    a.stq(R_TMP, R_ADDR, 0);
    a.beq(R_CAND, "literal");
    // dist+1 = i + 1 - cand ; require dist <= MAX_DIST
    a.sub(R_DIST, R_TMP, R_CAND); // i + 1 - cand = i - (cand-1)
    a.cmple(R_TMP, R_DIST, MAX_DIST as i32);
    a.beq(R_TMP, "literal");
    a.sub(R_CAND, R_CAND, 1);
    // limit = min(MAX_MATCH, n_full - i)
    a.sub(R_LIMIT, R_NFULL, R_I);
    a.cmple(R_TMP, R_LIMIT, MAX_MATCH as i32);
    a.bne(R_TMP, "limit_ok");
    a.li(R_LIMIT, MAX_MATCH as i64);
    a.label("limit_ok");
    // Word-at-a-time comparison, like zlib's longest_match: xor two
    // 8-byte reads; the first differing byte index is cttz/8.
    a.li(R_LEN, 0);
    a.label("matchloop");
    a.cmplt(R_TMP, R_LEN, R_LIMIT);
    a.beq(R_TMP, "matchdone");
    a.add(R_ADDR, R_CAND, R_LEN);
    a.add(R_ADDR, R_ADDR, R_IN);
    a.ldq(R_B, R_ADDR, 0);
    a.add(R_ADDR, R_I, R_LEN);
    a.add(R_ADDR, R_ADDR, R_IN);
    a.ldq(R_B2, R_ADDR, 0);
    a.xor(R_TMP, R_B, R_B2);
    a.bne(R_TMP, "matchpartial");
    a.add(R_LEN, R_LEN, 8);
    a.br("matchloop");
    a.label("matchpartial");
    a.cttz(R_TMP, R_TMP);
    a.srl(R_TMP, R_TMP, 3);
    a.add(R_LEN, R_LEN, R_TMP);
    a.label("matchdone");
    // Clamp overshoot from the 8-byte stride.
    a.cmple(R_TMP, R_LEN, R_LIMIT);
    a.bne(R_TMP, "noclamp");
    a.mov(R_LEN, R_LIMIT);
    a.label("noclamp");
    a.cmplt(R_TMP, R_LEN, 3);
    a.bne(R_TMP, "literal");
    // Emit the match: mix(1000 + dist), mix(len); i += len.
    // R_DIST = i+1-head[h] equals i-cand after the cand -= 1 adjustment.
    a.add(R_TMP, R_DIST, 1000);
    emit_mix(&mut a, R_TMP);
    a.mov(R_EV, R_TMP);
    a.bsr(Reg::R26, "emitbits");
    emit_mix(&mut a, R_LEN);
    a.mov(R_EV, R_LEN);
    a.bsr(Reg::R26, "emitbits");
    a.add(R_I, R_I, R_LEN);
    a.br("main");

    a.label("literal");
    a.add(R_ADDR, R_IN, R_I);
    a.ldbu(R_B, R_ADDR, 0);
    emit_mix(&mut a, R_B);
    a.mov(R_EV, R_B);
    a.bsr(Reg::R26, "emitbits");
    a.add(R_I, R_I, 1);
    a.br("main");

    a.label("tail");
    a.cmplt(R_TMP, R_I, R_NFULL);
    a.beq(R_TMP, "done");
    a.add(R_ADDR, R_IN, R_I);
    a.ldbu(R_B, R_ADDR, 0);
    emit_mix(&mut a, R_B);
    a.mov(R_EV, R_B);
    a.bsr(Reg::R26, "emitbits");
    a.add(R_I, R_I, 1);
    a.br("tail");

    a.label("done");
    // Fold the packer state into the checksum.
    a.li(R_TMP, out_base as i64);
    a.sub(R_TMP, R_OUTP, R_TMP);
    emit_mix(&mut a, R_TMP);
    emit_mix(&mut a, R_BITCNT);
    a.halt();

    Workload {
        name: "gzip",
        description: "greedy LZ77 hash-chain match finder (deflate inner loop)",
        program: a.assemble().expect("gzip kernel assembles"),
        expected_checksum: expected,
        budget: 200 * len as u64 + 10_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_finds_matches_in_repetitive_input() {
        // "abcabcabc...": after the first 3 literals everything matches.
        let input: Vec<u8> = b"abcabcabcabcabcabc".to_vec();
        let cs = reference(&input);
        // Literals a, b, c then matches; recompute by hand via the model.
        assert_ne!(cs, 0);
        let input2: Vec<u8> = (0..18).map(|i| (i % 7) as u8 + b'a').collect();
        assert_ne!(reference(&input2), cs);
    }

    #[test]
    fn generated_input_is_compressible() {
        let input = generate_input(4096);
        // Count match coverage via the reference model's logic.
        let mut head = vec![0u64; HASH_ENTRIES as usize];
        let n = input.len() as u64;
        let (mut i, mut matched) = (0u64, 0u64);
        while i + 3 <= n {
            let h = hash3(input[i as usize], input[i as usize + 1], input[i as usize + 2]);
            let cand = head[h as usize];
            head[h as usize] = i + 1;
            if cand != 0 && i + 1 - cand <= MAX_DIST {
                let cand = cand - 1;
                let limit = MAX_MATCH.min(n - i);
                let mut len = 0u64;
                while len < limit && input[(cand + len) as usize] == input[(i + len) as usize] {
                    len += 1;
                }
                if len >= 3 {
                    matched += len;
                    i += len;
                    continue;
                }
            }
            i += 1;
        }
        assert!(matched > n / 4, "input should compress: {matched}/{n}");
    }
}
