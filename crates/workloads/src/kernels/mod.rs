//! The twelve benchmark kernels.
//!
//! Shared conventions:
//!
//! * data segments start at [`crate::DATA_BASE`], and a kernel with more
//!   than one region lays them out with [`Regions`];
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

use crate::{CHECKSUM_REG, DATA_BASE};
use hpa_asm::Asm;
use hpa_isa::Reg;

/// The data-region allocator: regions are laid out upward from
/// [`DATA_BASE`], each starting where the one before it ends, rounded up
/// to a whole MiB. A region therefore never starts inside its predecessor
/// at any scale, and regions of at most 1 MiB sit exactly 1 MiB apart.
pub(crate) struct Regions {
    next: u64,
}

impl Regions {
    /// An empty layout: the first region starts at [`DATA_BASE`].
    pub fn new() -> Regions {
        Regions { next: DATA_BASE }
    }

    /// Reserves a region of `bytes` and returns its base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next = base + bytes.max(1).next_multiple_of(1 << 20);
        base
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

    #[test]
    fn checksum_matches_emitted_arithmetic() {
        let mut c = Checksum::default();
        c.mix(5);
        c.mix(7);
        assert_eq!(c.0, 5 * 31 + 7);
    }
}
