//! # hpa-workloads — SPEC CINT2000 stand-in benchmark kernels
//!
//! The paper evaluates on the twelve SPEC CINT2000 benchmarks compiled for
//! Alpha. Those binaries (and the MinneSPEC reduced inputs) are not
//! available here, so this crate provides twelve hand-written kernels in
//! the `hpa` ISA, one per benchmark, each implementing a real algorithm
//! from the same application domain (see `DESIGN.md` §2 for the
//! substitution argument):
//!
//! | name     | SPEC program        | kernel                                         |
//! |----------|---------------------|------------------------------------------------|
//! | `bzip`   | bzip2 (compression) | run-length + move-to-front coding              |
//! | `crafty` | chess               | bitboard attack generation over random boards  |
//! | `eon`    | ray tracer (C++)    | floating-point ray–sphere intersection         |
//! | `gap`    | group theory        | multi-limb (bignum) modular arithmetic         |
//! | `gcc`    | compiler            | expression tokenizer + stack evaluator         |
//! | `gzip`   | LZ77 compression    | greedy hash-chain string matching              |
//! | `mcf`    | network simplex     | Bellman–Ford relaxation over a sparse graph    |
//! | `parser` | link grammar        | hash-table dictionary with chained lookups     |
//! | `perl`   | interpreter         | bytecode VM with indirect-threaded dispatch    |
//! | `twolf`  | place & route       | simulated-annealing cost evaluation            |
//! | `vortex` | object database     | binary-search-tree object store                |
//! | `vpr`    | FPGA place & route  | BFS maze routing on a grid                     |
//!
//! Every [`Workload`] carries a host-side Rust reference implementation of
//! the same computation; [`Workload::verify`] runs the kernel under the
//! functional emulator and checks the architectural result against the
//! reference, so the timing simulator can assert that *no scheduling or
//! register-file scheme ever changes program semantics*.
//!
//! # Example
//!
//! ```
//! use hpa_workloads::{all_workloads, Scale};
//!
//! let workloads = all_workloads(Scale::Tiny);
//! assert_eq!(workloads.len(), 12);
//! for w in &workloads {
//!     w.verify().expect("kernel self-check");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;

pub use hpa_obs::SplitMix64;

use hpa_asm::Program;
use hpa_emu::{Emulator, RunOutcome};
use hpa_isa::Reg;
use std::fmt;

/// The register that every kernel leaves its final checksum in.
pub const CHECKSUM_REG: Reg = Reg::R10;

/// Base address of kernel data segments (text occupies low addresses).
pub const DATA_BASE: u64 = 0x1_0000;

/// How large a run a kernel should produce. The paper simulates billions of
/// instructions per benchmark; a from-scratch cycle simulator targets
/// millions, which is enough for the operand statistics to converge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// A few tens of thousands of dynamic instructions — for unit tests.
    Tiny,
    /// Roughly half a million to a million dynamic instructions — the
    /// default for the experiment harness.
    Default,
    /// Several million dynamic instructions — for convergence checks.
    Large,
    /// Tens of millions of dynamic instructions — long enough that full
    /// detailed simulation hurts, built for the sampled (SMARTS-style)
    /// mode to show its speedup.
    Long,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 4] = [Scale::Tiny, Scale::Default, Scale::Large, Scale::Long];

    /// A kernel-specific iteration multiplier: 1 for [`Scale::Tiny`],
    /// `default_factor` for [`Scale::Default`], 8x that for
    /// [`Scale::Large`] and 32x for [`Scale::Long`].
    #[must_use]
    pub fn factor(self, default_factor: u64) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Default => default_factor,
            Scale::Large => default_factor * 8,
            Scale::Long => default_factor * 32,
        }
    }

    /// The stable CLI/wire key (`--scale <key>`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Default => "default",
            Scale::Large => "large",
            Scale::Long => "long",
        }
    }

    /// Parses a key produced by [`Scale::key`].
    #[must_use]
    pub fn from_key(key: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.key() == key)
    }
}

/// Error returned by [`Workload::verify`].
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// The kernel did not reach `halt` within the instruction budget.
    DidNotHalt {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The kernel halted with the wrong checksum.
    ChecksumMismatch {
        /// What the emulator computed.
        actual: u64,
        /// What the Rust reference implementation computed.
        expected: u64,
    },
    /// The emulator raised an error (PC out of range — a kernel bug).
    Emu(hpa_emu::EmuError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DidNotHalt { budget } => {
                write!(f, "kernel did not halt within {budget} instructions")
            }
            VerifyError::ChecksumMismatch { actual, expected } => {
                write!(f, "checksum mismatch: got {actual:#x}, expected {expected:#x}")
            }
            VerifyError::Emu(e) => write!(f, "emulator error: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// One benchmark kernel: program, expected result and metadata.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name matching the SPEC benchmark it stands in for.
    pub name: &'static str,
    /// One-line description of the kernel.
    pub description: &'static str,
    /// The assembled program (text + initial data image).
    pub program: Program,
    /// The checksum the kernel must leave in [`CHECKSUM_REG`], computed by
    /// the host-side Rust reference implementation.
    pub expected_checksum: u64,
    /// A generous instruction budget within which the kernel must halt.
    pub budget: u64,
}

impl Workload {
    /// Runs the kernel under the functional emulator and checks the result
    /// against the reference implementation.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify(&self) -> Result<u64, VerifyError> {
        let mut emu = Emulator::new(&self.program);
        match emu.run(self.budget).map_err(VerifyError::Emu)? {
            RunOutcome::Halted { executed } => {
                let actual = emu.reg(CHECKSUM_REG);
                if actual == self.expected_checksum {
                    Ok(executed)
                } else {
                    Err(VerifyError::ChecksumMismatch { actual, expected: self.expected_checksum })
                }
            }
            RunOutcome::BudgetExhausted { .. } => {
                Err(VerifyError::DidNotHalt { budget: self.budget })
            }
        }
    }
}

/// Builds one workload by name.
///
/// Valid names are the twelve SPEC CINT2000 benchmark names listed in the
/// [crate docs](crate) plus the real-binary RISC-V workloads in
/// [`RISCV_WORKLOAD_NAMES`]; returns `None` otherwise.
#[must_use]
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    if name.starts_with("rv-") {
        return riscv_workload(name);
    }
    Some(match name {
        "bzip" => kernels::bzip::build(scale),
        "crafty" => kernels::crafty::build(scale),
        "eon" => kernels::eon::build(scale),
        "gap" => kernels::gap::build(scale),
        "gcc" => kernels::gcc::build(scale),
        "gzip" => kernels::gzip::build(scale),
        "mcf" => kernels::mcf::build(scale),
        "parser" => kernels::parser::build(scale),
        "perl" => kernels::perl::build(scale),
        "twolf" => kernels::twolf::build(scale),
        "vortex" => kernels::vortex::build(scale),
        "vpr" => kernels::vpr::build(scale),
        _ => return None,
    })
}

/// The names of all twelve workloads, in the paper's (alphabetical) order.
pub const WORKLOAD_NAMES: [&str; 12] = [
    "bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf", "vortex",
    "vpr",
];

/// Workloads backed by real compiled RISC-V guest binaries, translated by
/// the `hpa-rv` frontend from the checked-in fixture ELFs. These are kept
/// out of [`WORKLOAD_NAMES`] (and therefore out of the paper-figure
/// experiment sweeps) on purpose: they validate the real-binary pipeline,
/// not the SPEC stand-in set.
pub const RISCV_WORKLOAD_NAMES: [&str; 3] = hpa_rv::fixtures::FIXTURE_NAMES;

/// Builds a real-binary workload from a checked-in RISC-V fixture ELF.
/// Real binaries are fixed programs, so `Scale` does not apply; every
/// scale yields the identical translated program.
fn riscv_workload(name: &str) -> Option<Workload> {
    let f = hpa_rv::fixtures::by_name(name)?;
    let image = hpa_rv::load_elf(f.checked_in).expect("checked-in fixture is a valid RISC-V ELF");
    let program = hpa_rv::translate(&image).expect("checked-in fixture translates");
    Some(Workload {
        name: f.name,
        description: f.description,
        program,
        expected_checksum: f.expected_checksum,
        budget: f.budget,
    })
}

/// Builds all twelve workloads at the given scale.
#[must_use]
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    WORKLOAD_NAMES.iter().map(|n| workload(n, scale).expect("known name")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unknown_names_fail() {
        for name in WORKLOAD_NAMES {
            assert!(workload(name, Scale::Tiny).is_some(), "{name}");
        }
        assert!(workload("specrand", Scale::Tiny).is_none());
        assert!(workload("rv-nonesuch", Scale::Tiny).is_none());
    }

    /// Every kernel computes its reference result at every scale: however
    /// large an input grows, no data region starts inside another. One
    /// thread per kernel, since the Long rows take seconds each.
    #[test]
    fn every_workload_verifies_at_every_scale() {
        std::thread::scope(|threads| {
            for name in WORKLOAD_NAMES {
                threads.spawn(move || {
                    for scale in Scale::ALL {
                        let w = workload(name, scale).expect("known workload");
                        let executed =
                            w.verify().unwrap_or_else(|e| panic!("{name} at {}: {e}", scale.key()));
                        assert!(executed > 10_000, "{name} at {}: a non-trivial run", scale.key());
                    }
                });
            }
        });
    }

    #[test]
    fn riscv_workloads_resolve_and_verify() {
        for name in RISCV_WORKLOAD_NAMES {
            let w = workload(name, Scale::Tiny).expect("riscv name resolves");
            assert_eq!(w.name, name);
            w.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
            // Real binaries are scale-invariant: same program at any scale.
            let large = workload(name, Scale::Large).expect("riscv name resolves");
            assert_eq!(w.program.insts(), large.program.insts());
        }
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Tiny.factor(10), 1);
        assert_eq!(Scale::Default.factor(10), 10);
        assert_eq!(Scale::Large.factor(10), 80);
        assert_eq!(Scale::Long.factor(10), 320);
    }

    #[test]
    fn scale_keys_round_trip() {
        for s in Scale::ALL {
            assert_eq!(Scale::from_key(s.key()), Some(s));
        }
        assert_eq!(Scale::from_key("huge"), None);
    }
}
