//! The twelve benchmark kernels.
//!
//! Shared conventions:
//!
//! * a kernel declares its data regions with [`Regions`], upward from
//!   [`crate::DATA_BASE`], and builds its [`Workload`] through
//!   [`Regions::seal`], which checks every data segment lies inside one;
//! * the final checksum is left in [`crate::CHECKSUM_REG`] (`r10`) and the
//!   host-side reference computes the identical value with
//!   `checksum = checksum * 31 + value` steps ([`Checksum`]);
//! * `r26` is the link register for calls, matching Alpha convention;
//! * loop heads are padded with the occasional 2-source-format alignment
//!   nop, mirroring the DEC-compiler padding whose decode-time elimination
//!   the paper's Figure 3 reports.

pub mod bzip;
pub mod crafty;
pub mod eon;
pub mod gap;
pub mod gcc;
pub mod gzip;
pub mod mcf;
pub mod parser;
pub mod perl;
pub mod twolf;
pub mod vortex;
pub mod vpr;

use crate::{Workload, CHECKSUM_REG, DATA_BASE};
use hpa_asm::Asm;
use hpa_isa::Reg;

/// The data-region allocator: regions are laid out upward from
/// [`DATA_BASE`], each starting where the one before it ends, rounded up
/// to a whole MiB. A region therefore never starts inside its predecessor
/// at any scale, and regions of at most 1 MiB sit exactly 1 MiB apart.
pub(crate) struct Regions {
    next: u64,
    /// The regions reserved so far, as `(base, bytes)`: the first `len`
    /// slots. A fixed array, not a `Vec`: no heap and no drop code in each
    /// kernel (kernels lay out at most three regions).
    declared: [(u64, u64); 8],
    len: usize,
}

impl Regions {
    /// An empty layout: the first region starts at [`DATA_BASE`].
    pub fn new() -> Regions {
        Regions { next: DATA_BASE, declared: [(0, 0); 8], len: 0 }
    }

    /// Reserves a region of `bytes` and returns its base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next = base + bytes.max(1).next_multiple_of(1 << 20);
        *self.declared.get_mut(self.len).expect("a kernel lays out at most 8 regions") =
            (base, bytes);
        self.len += 1;
        base
    }

    /// Returns `workload` after checking that every data segment of its
    /// program lies inside one declared region.
    ///
    /// # Panics
    ///
    /// If a segment starts outside every region or runs past the end of
    /// the one it starts in: the kernel sized a region too small, and its
    /// input would spill into the next.
    pub fn seal(&self, workload: Workload) -> Workload {
        for (addr, bytes) in workload.program.data_segments() {
            let end = addr + bytes.len() as u64;
            assert!(
                self.declared[..self.len]
                    .iter()
                    .any(|&(base, size)| base <= *addr && end <= base + size),
                "{}: data segment {addr:#x}..{end:#x} lies outside every declared region",
                workload.name
            );
        }
        workload
    }
}

/// Host-side mirror of the in-kernel checksum accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Checksum(pub u64);

impl Checksum {
    /// Mixes one value, exactly like the emitted `mul r10, r10, #31; add
    /// r10, r10, value` pair.
    pub fn mix(&mut self, value: u64) {
        self.0 = self.0.wrapping_mul(31).wrapping_add(value);
    }
}

/// Emits the in-kernel mix step for a value held in `val`.
pub(crate) fn emit_mix(a: &mut Asm, val: Reg) {
    a.mul(CHECKSUM_REG, CHECKSUM_REG, 31);
    a.add(CHECKSUM_REG, CHECKSUM_REG, val);
}

/// Emits `n` alignment nops (2-source-format, decode-eliminated).
pub(crate) fn emit_align(a: &mut Asm, n: usize) {
    for _ in 0..n {
        a.nop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_a_mib_apart_until_one_outgrows_it() {
        let mut r = Regions::new();
        assert_eq!(r.alloc(100), DATA_BASE);
        assert_eq!(r.alloc(1 << 20), DATA_BASE + (1 << 20));
        assert_eq!(r.alloc((2 << 20) + 1), DATA_BASE + (2 << 20));
        assert_eq!(r.alloc(8), DATA_BASE + (5 << 20));
    }

    fn workload_with_data(regions: &Regions, addr: u64, bytes: usize) -> Workload {
        let mut a = Asm::new();
        a.data_bytes(addr, &vec![7; bytes]);
        a.halt();
        let program = a.assemble().expect("assembles");
        regions.seal(Workload {
            name: "probe",
            description: "one data segment",
            program,
            expected_checksum: 0,
            budget: 1,
        })
    }

    #[test]
    fn a_segment_inside_a_declared_region_seals() {
        let mut r = Regions::new();
        r.alloc(64);
        let second = r.alloc(4096);
        workload_with_data(&r, DATA_BASE, 64);
        workload_with_data(&r, second + 4000, 96);
    }

    #[test]
    #[should_panic(expected = "lies outside every declared region")]
    fn an_undersized_region_fails_to_seal() {
        let mut r = Regions::new();
        r.alloc(64);
        workload_with_data(&r, DATA_BASE, 65);
    }

    #[test]
    #[should_panic(expected = "lies outside every declared region")]
    fn an_undeclared_segment_fails_to_seal() {
        let r = Regions::new();
        workload_with_data(&r, DATA_BASE, 1);
    }

    #[test]
    fn checksum_matches_emitted_arithmetic() {
        let mut c = Checksum::default();
        c.mix(5);
        c.mix(7);
        assert_eq!(c.0, 5 * 31 + 7);
    }
}
