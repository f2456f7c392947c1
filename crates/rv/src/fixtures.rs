//! The checked-in RISC-V fixture binaries and their reference models.
//!
//! Each fixture is a real guest program — compiled by [`crate::rvasm`]
//! into a static ELF64 executable — plus an independent host-side Rust
//! implementation of the same computation. The guest leaves its checksum
//! in `a1` (internal `r10`, the workload checksum register) and exits via
//! `ecall`; the host model predicts that checksum, which makes every
//! fixture a differential test between the RISC-V frontend and plain
//! Rust.
//!
//! The ELF bytes under `fixtures/` are generated by [`Fixture::elf`] and
//! pinned by the `fixtures_golden` test (regenerate with
//! `REGEN_FIXTURES=1 cargo test -p hpa-rv`), so the binaries stay
//! reproducible from source despite the container having no RISC-V
//! cross-compiler.

use crate::decode::{RvBranch, RvOp, RvWidth};
use crate::rvasm::{build_elf, RvAsm, DATA_BASE, TEXT_BASE};
use hpa_obs::SplitMix64;

/// The checked-in quicksort binary (see [`quicksort`]).
pub const QUICKSORT_ELF: &[u8] = include_bytes!("../fixtures/quicksort.elf");
/// The checked-in matmul binary (see [`matmul`]).
pub const MATMUL_ELF: &[u8] = include_bytes!("../fixtures/matmul.elf");
/// The checked-in prime-sieve binary (see [`sieve`]).
pub const SIEVE_ELF: &[u8] = include_bytes!("../fixtures/sieve.elf");

/// One fixture: generated ELF, checked-in ELF, and the reference answer.
pub struct Fixture {
    /// Workload-registry name (`rv-` prefix).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// File name under `crates/rv/fixtures/`.
    pub file: &'static str,
    /// The ELF image as built from source, right now.
    pub elf: Vec<u8>,
    /// The ELF image as checked in (what ships and what runs).
    pub checked_in: &'static [u8],
    /// The checksum the guest must leave in `a1`, per the host model.
    pub expected_checksum: u64,
    /// Generous dynamic-instruction budget.
    pub budget: u64,
}

/// All fixtures, in registry order.
#[must_use]
pub fn all() -> Vec<Fixture> {
    vec![quicksort(), matmul(), sieve()]
}

/// Looks a fixture up by registry name.
#[must_use]
pub fn by_name(name: &str) -> Option<Fixture> {
    all().into_iter().find(|f| f.name == name)
}

/// The fixture registry names, in order.
pub const FIXTURE_NAMES: [&str; 3] = ["rv-quicksort", "rv-matmul", "rv-sieve"];

fn u64s_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

// RISC-V ABI register numbers, for readability below.
const RA: u8 = 1;
const SP: u8 = 2;
const T0: u8 = 5;
const T1: u8 = 6;
const T2: u8 = 7;
const S0: u8 = 8;
const S1: u8 = 9;
const A0: u8 = 10;
const A1: u8 = 11;
const A2: u8 = 12;
const A3: u8 = 13;
const A5: u8 = 15;
const A6: u8 = 16;
const A7: u8 = 17;
const S2: u8 = 18;
const T3: u8 = 28;
const T4: u8 = 29;
const T5: u8 = 30;

/// Recursive quicksort (Lomuto partition) over 64 pseudo-random `u64`s,
/// with a real call stack: `jal`/`ret` recursion, spills to `sp`-relative
/// slots. Checksum: `sum(a[i] * (i+1))` over the sorted array, wrapping.
#[must_use]
pub fn quicksort() -> Fixture {
    const N: usize = 64;
    let mut rng = SplitMix64::new(0x5EED_0001);
    let data: Vec<u64> = (0..N).map(|_| rng.next_u64()).collect();

    // Host model: the sorted order is the spec, not the algorithm.
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let mut expected = 0u64;
    for (i, v) in sorted.iter().enumerate() {
        expected = expected.wrapping_add(v.wrapping_mul(i as u64 + 1));
    }

    let mut a = RvAsm::new();
    // main: quicksort(0, N-1), then checksum, then exit.
    a.li(S0, DATA_BASE as i64);
    a.li(A0, 0);
    a.li(A1, N as i64 - 1);
    a.jal(RA, "quicksort");
    a.li(T0, 0); // i
    a.li(A1, 0); // checksum
    a.li(T3, N as i64);
    a.label("csum");
    a.opi(RvOp::Sll, T1, T0, 3);
    a.op(RvOp::Add, T1, T1, S0);
    a.load(RvWidth::D, T1, T1, 0);
    a.opi(RvOp::Add, T2, T0, 1);
    a.op(RvOp::Mul, T1, T1, T2);
    a.op(RvOp::Add, A1, A1, T1);
    a.opi(RvOp::Add, T0, T0, 1);
    a.branch(RvBranch::Lt, T0, T3, "csum");
    a.exit(0);

    // quicksort(a0 = lo, a1 = hi), array base in s0.
    a.label("quicksort");
    a.branch(RvBranch::Lt, A0, A1, "qs_go");
    a.ret();
    a.label("qs_go");
    a.opi(RvOp::Add, SP, SP, -32);
    a.store(RvWidth::D, RA, SP, 24);
    a.store(RvWidth::D, A0, SP, 0);
    a.store(RvWidth::D, A1, SP, 8);
    // pivot = a[hi]
    a.opi(RvOp::Sll, T0, A1, 3);
    a.op(RvOp::Add, T0, T0, S0);
    a.load(RvWidth::D, T1, T0, 0);
    a.opi(RvOp::Add, T2, A0, -1); // i = lo - 1
    a.mv(T3, A0); // j = lo
    a.label("part");
    a.branch(RvBranch::Ge, T3, A1, "part_done");
    a.opi(RvOp::Sll, T4, T3, 3);
    a.op(RvOp::Add, T4, T4, S0);
    a.load(RvWidth::D, T5, T4, 0);
    a.branch(RvBranch::Ltu, T1, T5, "part_next"); // a[j] > pivot: skip
    a.opi(RvOp::Add, T2, T2, 1);
    a.opi(RvOp::Sll, A2, T2, 3);
    a.op(RvOp::Add, A2, A2, S0);
    a.load(RvWidth::D, A3, A2, 0);
    a.store(RvWidth::D, T5, A2, 0);
    a.store(RvWidth::D, A3, T4, 0);
    a.label("part_next");
    a.opi(RvOp::Add, T3, T3, 1);
    a.jal(0, "part");
    a.label("part_done");
    // swap a[i+1] <-> a[hi]
    a.opi(RvOp::Add, T2, T2, 1);
    a.opi(RvOp::Sll, A2, T2, 3);
    a.op(RvOp::Add, A2, A2, S0);
    a.load(RvWidth::D, A3, A2, 0);
    a.store(RvWidth::D, T1, A2, 0);
    a.store(RvWidth::D, A3, T0, 0);
    a.store(RvWidth::D, T2, SP, 16); // save p
                                     // quicksort(lo, p - 1)
    a.load(RvWidth::D, A0, SP, 0);
    a.opi(RvOp::Add, A1, T2, -1);
    a.jal(RA, "quicksort");
    // quicksort(p + 1, hi)
    a.load(RvWidth::D, T2, SP, 16);
    a.opi(RvOp::Add, A0, T2, 1);
    a.load(RvWidth::D, A1, SP, 8);
    a.jal(RA, "quicksort");
    a.load(RvWidth::D, RA, SP, 24);
    a.opi(RvOp::Add, SP, SP, 32);
    a.ret();

    Fixture {
        name: "rv-quicksort",
        description: "recursive quicksort of 64 u64s (RISC-V binary)",
        file: "quicksort.elf",
        elf: build_elf(&a.assemble(TEXT_BASE), &u64s_to_bytes(&data), 0),
        checked_in: QUICKSORT_ELF,
        expected_checksum: expected,
        budget: 1_000_000,
    }
}

/// 8x8 `u64` matrix multiply with a multiply-accumulate checksum, then a
/// width-mixing epilogue that round-trips the checksum through
/// byte-addressed memory at every sub-word width (`sd`/`lwu`/`lw`/
/// `lhu`/`lh`/`sh`) and one `addw`.
#[must_use]
pub fn matmul() -> Fixture {
    const DIM: u64 = 8;
    let mut rng = SplitMix64::new(0x5EED_0002);
    let a_mat: Vec<u64> = (0..DIM * DIM).map(|_| rng.next_u64()).collect();
    let b_mat: Vec<u64> = (0..DIM * DIM).map(|_| rng.next_u64()).collect();

    // Host model, mirrored operation-for-operation (all wrapping).
    let mut csum = 0u64;
    for i in 0..DIM as usize {
        for j in 0..DIM as usize {
            let mut acc = 0u64;
            for k in 0..DIM as usize {
                acc = acc.wrapping_add(a_mat[i * 8 + k].wrapping_mul(b_mat[k * 8 + j]));
            }
            csum = csum.wrapping_mul(7).wrapping_add(acc);
        }
    }
    // The width-mixing epilogue (see the guest code below).
    let sext32 = |v: u64| v as u32 as i32 as i64 as u64;
    let lwu = csum & 0xFFFF_FFFF;
    let lw = sext32(csum >> 32);
    let lhu = csum & 0xFFFF;
    let lh = ((csum >> 16) as u16) as i16 as i64 as u64;
    let mut v = csum.wrapping_add(lwu).wrapping_add(lw).wrapping_add(lhu).wrapping_add(lh);
    let half = v & 0xFFFF;
    v = v.wrapping_add(half);
    let expected = sext32(v.wrapping_add(half));

    let a_base = DATA_BASE as i64;
    let b_base = a_base + 512;
    let c_base = a_base + 1024;
    let scratch = a_base + 1536;

    let mut a = RvAsm::new();
    a.li(S0, a_base);
    a.li(S1, b_base);
    a.li(S2, c_base);
    a.li(A1, 0); // checksum
    a.li(A5, DIM as i64);
    a.li(A6, 7);
    a.li(T0, 0); // i
    a.label("iloop");
    a.li(T1, 0); // j
    a.label("jloop");
    a.li(T2, 0); // k
    a.li(T3, 0); // acc
    a.label("kloop");
    a.opi(RvOp::Sll, T4, T0, 3);
    a.op(RvOp::Add, T4, T4, T2);
    a.opi(RvOp::Sll, T4, T4, 3);
    a.op(RvOp::Add, T4, T4, S0);
    a.load(RvWidth::D, T4, T4, 0); // A[i][k]
    a.opi(RvOp::Sll, T5, T2, 3);
    a.op(RvOp::Add, T5, T5, T1);
    a.opi(RvOp::Sll, T5, T5, 3);
    a.op(RvOp::Add, T5, T5, S1);
    a.load(RvWidth::D, T5, T5, 0); // B[k][j]
    a.op(RvOp::Mul, T4, T4, T5);
    a.op(RvOp::Add, T3, T3, T4);
    a.opi(RvOp::Add, T2, T2, 1);
    a.branch(RvBranch::Lt, T2, A5, "kloop");
    // C[i][j] = acc
    a.opi(RvOp::Sll, T4, T0, 3);
    a.op(RvOp::Add, T4, T4, T1);
    a.opi(RvOp::Sll, T4, T4, 3);
    a.op(RvOp::Add, T4, T4, S2);
    a.store(RvWidth::D, T3, T4, 0);
    // checksum = checksum*7 + acc
    a.op(RvOp::Mul, A1, A1, A6);
    a.op(RvOp::Add, A1, A1, T3);
    a.opi(RvOp::Add, T1, T1, 1);
    a.branch(RvBranch::Lt, T1, A5, "jloop");
    a.opi(RvOp::Add, T0, T0, 1);
    a.branch(RvBranch::Lt, T0, A5, "iloop");
    // Width-mixing epilogue: bounce the checksum through memory at every
    // load width the frontend supports.
    a.li(T4, scratch);
    a.store(RvWidth::D, A1, T4, 0);
    a.load(RvWidth::Wu, T0, T4, 0);
    a.load(RvWidth::W, T1, T4, 4);
    a.load(RvWidth::Hu, T2, T4, 0);
    a.load(RvWidth::H, T3, T4, 2);
    a.op(RvOp::Add, A1, A1, T0);
    a.op(RvOp::Add, A1, A1, T1);
    a.op(RvOp::Add, A1, A1, T2);
    a.op(RvOp::Add, A1, A1, T3);
    a.store(RvWidth::H, A1, T4, 8);
    a.load(RvWidth::Hu, T0, T4, 8);
    a.op(RvOp::Add, A1, A1, T0);
    a.op(RvOp::Addw, A1, A1, T0);
    a.exit(0);

    let mut data = u64s_to_bytes(&a_mat);
    data.extend_from_slice(&u64s_to_bytes(&b_mat));
    Fixture {
        name: "rv-matmul",
        description: "8x8 u64 matrix multiply (RISC-V binary)",
        file: "matmul.elf",
        // BSS: the C matrix (512) plus the width-mix scratch slots.
        elf: build_elf(&a.assemble(TEXT_BASE), &data, 512 + 64),
        checked_in: MATMUL_ELF,
        expected_checksum: expected,
        budget: 1_000_000,
    }
}

/// Sieve of Eratosthenes over byte flags in BSS, summing the primes below
/// 1000. Exercises `lbu`/`sb` and the shim's `write` path (`ecall` with
/// `a7 != 93`) before exiting.
#[must_use]
pub fn sieve() -> Fixture {
    const N: u64 = 1000;

    // Host model.
    let mut flags = vec![false; N as usize];
    let mut expected = 0u64;
    for i in 2..N as usize {
        if !flags[i] {
            expected = expected.wrapping_add(i as u64);
            let mut j = 2 * i;
            while j < N as usize {
                flags[j] = true;
                j += i;
            }
        }
    }

    let mut a = RvAsm::new();
    a.li(T0, DATA_BASE as i64); // flags
    a.li(A1, 0); // sum
    a.li(T2, N as i64);
    a.li(T1, 2); // i
    a.label("outer");
    a.branch(RvBranch::Ge, T1, T2, "done");
    a.op(RvOp::Add, T3, T0, T1);
    a.load(RvWidth::Bu, T4, T3, 0);
    a.branch(RvBranch::Ne, T4, 0, "next");
    a.op(RvOp::Add, A1, A1, T1); // prime: sum += i
    a.op(RvOp::Add, T5, T1, T1); // j = 2i
    a.label("mark");
    a.branch(RvBranch::Ge, T5, T2, "next");
    a.op(RvOp::Add, T3, T0, T5);
    a.li(A5, 1);
    a.store(RvWidth::B, A5, T3, 0);
    a.op(RvOp::Add, T5, T5, T1);
    a.jal(0, "mark");
    a.label("next");
    a.opi(RvOp::Add, T1, T1, 1);
    a.jal(0, "outer");
    a.label("done");
    // A `write` ecall first: the shim must pass it through (a0 <- a2)
    // without halting.
    a.li(A7, 64);
    a.li(A2, 4);
    a.ecall();
    a.exit(0);

    Fixture {
        name: "rv-sieve",
        description: "prime sieve to 1000 (RISC-V binary)",
        file: "sieve.elf",
        elf: build_elf(&a.assemble(TEXT_BASE), &[], N),
        checked_in: SIEVE_ELF,
        expected_checksum: expected,
        budget: 1_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_registry_is_consistent() {
        let fixtures = all();
        assert_eq!(fixtures.len(), FIXTURE_NAMES.len());
        for (f, name) in fixtures.iter().zip(FIXTURE_NAMES) {
            assert_eq!(f.name, name);
            assert!(by_name(name).is_some());
            assert!(!f.elf.is_empty());
        }
        assert!(by_name("rv-nonesuch").is_none());
    }

    #[test]
    fn sieve_model_matches_known_prime_sum() {
        // The sum of primes below 1000 is a textbook constant.
        assert_eq!(sieve().expected_checksum, 76_127);
    }
}
